//! Regenerates §6.6 / Figure 6: contract sensitivity.
//!
//! CT-SEQ forbids any speculative leakage, so it is violated by both the
//! gadget that leaks a *non-speculatively* loaded value (Figure 6a) and the
//! classic V1 gadget that leaks a *speculatively* loaded value (Figure 6b).
//! ARCH-SEQ permits exposure of non-speculative data, so only the classic V1
//! gadget violates it — which is exactly the property needed to test
//! STT-like defences.
//!
//! Both contracts are evaluated as one *slate* per gadget
//! ([`inputs_to_violation_slate`](revizor::detection::inputs_to_violation_slate)):
//! each growing input batch is measured once and the hardware traces are
//! checked against CT-SEQ and ARCH-SEQ together, halving the measurement
//! cost relative to per-contract runs while reporting identical input
//! counts.
//!
//! Usage: `cargo run --release -p rvz-bench --bin contract_sensitivity -- [--budget=N]`,
//! where the budget is the most inputs tried per seed.

use revizor::detection::first_violations_over_seeds;
use revizor::gadgets;
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::{budget_flag, row};
use rvz_model::Contract;

const FLAGS: &[Flag] = &[budget_flag("most inputs per seed (default 150)")];

fn main() {
    let max_inputs = cli::parse(FLAGS).get("budget").unwrap_or(150);
    let target = Target::target5();
    println!("Contract sensitivity (Figure 6 / §6.6), target: {target}");
    println!();

    let gadgets: Vec<(&str, rvz_isa::TestCase)> = vec![
        ("Fig 6a (non-speculative load, speculative use)", gadgets::arch_seq_insensitive()),
        ("Fig 6b (classic V1: speculative load + use)", gadgets::arch_seq_sensitive()),
    ];
    let contracts = vec![Contract::ct_seq(), Contract::arch_seq()];

    let widths = [48, 18, 18];
    println!(
        "{}",
        row(&["Gadget".into(), "CT-SEQ".into(), "ARCH-SEQ".into()], &widths)
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
    for (name, gadget) in &gadgets {
        // Try a few seeds; report the first detection per contract.  The
        // whole contract slate shares each seed's measurements.
        let first = first_violations_over_seeds(
            &target,
            &contracts,
            gadget,
            (0..5u64).map(|s| s * 31 + 7),
            max_inputs,
        );
        let mut line = vec![name.to_string()];
        line.extend(first.iter().map(|r| match r {
            Some(n) => format!("violated ({n} inputs)"),
            None => "no violation".to_string(),
        }));
        println!("{}", row(&line, &widths));
    }

    println!();
    println!(
        "Expected shape (paper): both gadgets violate CT-SEQ; only Fig 6b violates ARCH-SEQ."
    );
}
