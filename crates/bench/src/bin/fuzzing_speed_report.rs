//! Regenerates the §6.5 fuzzing-speed measurement: how many test cases per
//! hour Revizor processes in a configuration that does not find violations.
//!
//! Usage: `cargo run --release -p rvz-bench --bin fuzzing_speed_report [test cases]`
//!
//! Exits nonzero if the compliant cell (Target 1 × CT-SEQ) reports a
//! violation.

use revizor::campaign::NoopObserver;
use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::budget_from_args;
use rvz_model::Contract;

fn main() {
    let test_cases = budget_from_args(200);
    // Target 1 (AR only) never violates CT-SEQ, so the whole budget is spent
    // fuzzing — the same setup the paper uses to measure throughput.  The
    // campaign starts from the paper's initial generator parameters
    // (`GeneratorConfig::paper_initial`) and escalates them at round
    // boundaries (§5.6).
    let target = Target::target1();
    let matrix = CampaignMatrix::new(1)
        .with_budget(test_cases)
        .with_generator_size(2, 8)
        .with_branch_then_load_bias(false)
        .with_inputs_per_test_case(50)
        .with_escalation(true)
        .add_cell(target.clone(), Contract::ct_seq());
    let mut run = matrix.start();
    while run.step(&mut NoopObserver) {}
    let group = run.checkpoint().groups.remove(0);
    let report = run.finish(&mut NoopObserver);
    let cell = &report.cells[0];
    let secs = report.duration.as_secs_f64();
    let per_second = if secs == 0.0 { 0.0 } else { cell.test_cases as f64 / secs };

    println!("Fuzzing speed (§6.5), target: {target}");
    println!("  test cases executed : {}", cell.test_cases);
    println!("  inputs executed     : {}", cell.total_inputs);
    println!("  rounds / escalations: {} / {}", group.round, group.escalations);
    println!("  wall-clock time     : {:?}", report.duration);
    println!("  test cases / second : {per_second:.1}");
    println!("  test cases / hour   : {:.0}", per_second * 3600.0);
    println!(
        "  input effectiveness (effective / total inputs): {:.2}",
        cell.effectiveness.effectiveness()
    );
    println!("  pattern coverage    : {}", group.coverage);
    println!();
    println!(
        "Paper reference: over 200 test cases per hour on real hardware with complex \
         contracts and several hundred inputs per test case; the simulator is much faster, \
         so the number to compare is the *shape*: throughput is dominated by the number of \
         inputs per test case and by trace collection, not by the analysis."
    );
    if let Some(v) = &cell.violation {
        eprintln!(
            "error: {target} x CT-SEQ must comply, but reported a {} violation after {} test cases",
            v.vulnerability, v.test_cases_until_detection
        );
        std::process::exit(1);
    }
}
