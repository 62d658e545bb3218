//! Test-case and input generation (§5.1, §5.2): prints a Figure-3-style
//! randomly generated program for each ISA subset, and shows how the
//! low-entropy input generator creates colliding contract traces
//! ("effective inputs").
//!
//! Run with: `cargo run --release --example generate_testcase -- [--seed=N]`

use revizor_suite::bench::cli::{self, Flag};
use revizor_suite::prelude::*;

const FLAGS: &[Flag] = &[Flag::value::<u64>("seed", "N", "generator seed (default 2022)")];

fn main() {
    let seed = cli::parse(FLAGS).get("seed").unwrap_or(2022);

    for isa in [IsaSubset::AR, IsaSubset::AR_MEM, IsaSubset::AR_MEM_CB, IsaSubset::AR_MEM_CB_VAR] {
        let config = GeneratorConfig::for_subset(isa).with_basic_blocks(3).with_instructions(10);
        let tc = ProgramGenerator::new(config).generate(seed);
        println!("=== {} (seed {seed}) ===", isa.name());
        println!("{}", tc.to_asm());
    }

    // Input effectiveness: how many of 50 low-entropy inputs share a
    // CT-SEQ contract trace (only those can form counterexamples, CH2).
    let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB);
    let tc = ProgramGenerator::new(config).generate(seed);
    let model = ContractModel::new(Contract::ct_seq());
    println!("=== Input effectiveness for different PRNG entropies ===");
    for entropy in [1u32, 2, 4, 8] {
        let inputs = InputGenerator::new(entropy).generate(&tc, seed, 50);
        let ctraces: Vec<_> =
            inputs.iter().filter_map(|i| model.collect_trace(&tc, i).ok()).collect();
        let analyzer = Analyzer::new();
        let classes = analyzer.input_classes(&ctraces);
        let stats = analyzer.effectiveness(&classes, ctraces.len());
        println!(
            "entropy {entropy} bits: {:2} classes, {:2}/{} effective inputs ({:.0}%)",
            stats.classes,
            stats.effective_inputs,
            stats.total_inputs,
            stats.effectiveness() * 100.0
        );
    }
    println!("\n(lower entropy -> more colliding contract traces -> higher effectiveness, §5.2)");
}
