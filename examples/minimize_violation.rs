//! Postprocessing (§5.7, Figure 4): take a violating test case, then
//! minimize the input sequence, remove irrelevant instructions and locate
//! the leaking region by LFENCE insertion.
//!
//! Run with: `cargo run --release --example minimize_violation`

use revizor_suite::prelude::*;

fn main() {
    let target = Target::target5();
    let config = FuzzerConfig::for_target(&target, Contract::ct_seq());
    let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());

    let gadget = gadgets::spectre_v1();
    let inputs = InputGenerator::new(2).generate(&gadget, 11, 24);
    println!("=== Original violating test case ===\n{}", gadget.to_asm());

    let outcome = fuzzer.test_with_inputs(&gadget, &inputs).expect("pipeline runs");
    match &outcome.confirmed_violation {
        Some(v) => println!(
            "violation confirmed between inputs #{} and #{} ({} inputs in the priming sequence)\n",
            v.input_a,
            v.input_b,
            inputs.len()
        ),
        None => {
            println!("no violation with this seed — nothing to minimize");
            return;
        }
    }

    let minimized = Postprocessor::new().minimize(&mut fuzzer, &gadget, &inputs);
    println!("=== Minimized test case (Figure 4 analogue) ===\n{}", minimized.test_case.to_asm());
    println!("inputs: {} -> {}", inputs.len(), minimized.inputs.len());
    println!("leaking region (block, instruction index): {:?}", minimized.leaking_region);
    println!();
    println!(
        "The instructions in the leaking region are the ones that cannot be fenced without \
         making the violation disappear — the location of the speculative leak."
    );
}
