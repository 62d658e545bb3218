//! End-to-end fuzzing campaign: automatically surface Spectre V1 as a CT-SEQ
//! contract violation on the paper's Target 5 (Skylake, AR+MEM+CB,
//! Prime+Probe), using randomly generated test cases only.
//!
//! Run with: `cargo run --release --example detect_spectre_v1`

use revizor_suite::prelude::*;

fn main() {
    let target = Target::target5();
    println!("Fuzzing {target}");
    println!("Contract under test: CT-SEQ (speculation may expose nothing)\n");

    // A one-cell campaign matrix with the detection-tuned defaults (4 basic
    // blocks, 14 instructions, 20 inputs per test case), measured with the
    // campaign's schedule, `ExecutorConfig::campaign`: 1 warm-up pass and 2
    // repetitions per input sequence.
    let report = CampaignMatrix::new(7)
        .with_budget(200)
        .add_cell(target.clone(), Contract::ct_seq())
        .run();
    let cell = &report.cells[0];

    println!("test cases executed : {}", cell.test_cases);
    println!("inputs executed     : {}", cell.total_inputs);
    println!("duration            : {:?}", report.duration);
    println!("input effectiveness : {:.2}", cell.effectiveness.effectiveness());
    println!();

    match &cell.violation {
        Some(v) => {
            println!("VIOLATION of {} detected after {} test cases", v.contract, v.test_cases_until_detection);
            println!("classified as: {}", v.vulnerability);
            println!("diverging inputs: #{} and #{}", v.violation.input_a, v.violation.input_b);
            println!("  htrace A: {}", v.violation.htrace_a);
            println!("  htrace B: {}", v.violation.htrace_b);
            println!("\nviolating test case:\n{}", v.test_case.to_asm());
        }
        None => println!("no violation found within the budget — rerun with a larger budget"),
    }
}
