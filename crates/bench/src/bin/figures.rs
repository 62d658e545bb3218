//! Regenerates the paper's code figures:
//!
//! * Figure 3 — a randomly generated test case;
//! * Figure 4 — the minimized version of a violating test case, with the
//!   leaking region identified by LFENCE insertion;
//! * Figure 5 — the V1 latency-variant gadget;
//! * §A.6 — the double-load store-bypass variant.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use revizor::{gadgets, FuzzerConfig, Postprocessor, Revizor};
use rvz_gen::{GeneratorConfig, ProgramGenerator, Scenario};
use rvz_model::Contract;

fn main() {
    rvz_bench::cli::parse(&[]);
    // --- Figure 3: a random test case -----------------------------------
    let generator = ProgramGenerator::new(
        GeneratorConfig::paper_initial().with_basic_blocks(3).with_instructions(10),
    );
    let tc = generator.generate(2022);
    println!("=== Figure 3: randomly generated test case ===");
    println!("{}", tc.to_asm());

    // --- Figure 4: minimized violating test case -------------------------
    // The counterexample comes from a single-cell scenario-pinned campaign
    // matrix (the same shared pool every table bin runs): the cell replays
    // the V1 gadget family with fresh input batches until the analyzer
    // confirms a violation, and the postprocessor then minimizes the
    // recorded counterexample.
    println!("=== Figure 4: minimized Spectre V1 counterexample ===");
    let mut target = Target::target5();
    target.scenario = Some(Scenario::SpectreV1);
    let report = CampaignMatrix::new(11)
        .with_budget(8)
        .add_cell(target.clone(), Contract::ct_seq())
        .run();
    match &report.cells[0].violation {
        Some(v) => {
            let config = FuzzerConfig::for_target(&target, Contract::ct_seq());
            let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());
            let minimized = Postprocessor::new().minimize(&mut fuzzer, &v.test_case, &v.inputs);
            println!("{}", minimized.test_case.to_asm());
            println!(
                "leaking region (block, instruction): {:?}",
                minimized.leaking_region
            );
            println!(
                "inputs: {} -> {} after minimization",
                v.inputs.len(),
                minimized.inputs.len()
            );
        }
        None => println!("(no violation reproduced; rerun with a different seed)"),
    }
    println!();

    // --- Figure 5 and §A.6 ------------------------------------------------
    println!("=== Figure 5: V1 latency variant (V1-var) ===");
    println!("{}", gadgets::v1_var().to_asm());
    println!("=== A.6: store-bypass double-load variant ===");
    println!("{}", gadgets::ssb_double_load().to_asm());
}
