//! Regenerates Table 5: the number of random inputs needed to surface a
//! violation on handwritten test cases of known vulnerabilities.
//!
//! Usage: `cargo run --release -p rvz-bench --bin table5 -- [--budget=N] [--threads=N]`,
//! where the budget is the number of matrix seeds per gadget.
//!
//! Each sample runs all seven gadgets as **one** scenario-pinned
//! [`CampaignMatrix`] on the shared worker pool: every cell's generator is
//! pinned to its gadget family ([`Scenario::table5`]), so the matrix
//! "stream" replays the handwritten test case with fresh random inputs
//! each round, and `#inputs` is the number of inputs executed up to the
//! first confirmed violation.  V1/V1.1/V2/V4/V5-ret are measured on the
//! Prime+Probe targets; the MDS gadgets use Prime+Probe+Assist on the
//! MDS-vulnerable part (Target 7's CPU), matching the paper's note that
//! they only work on pre-9th-gen parts.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::{budget_flag, row, Threads, THREADS};
use rvz_executor::MeasurementMode;
use rvz_gen::Scenario;
use rvz_model::Contract;

const FLAGS: &[Flag] = &[budget_flag("matrix seeds per gadget (default 10)"), THREADS];

fn main() {
    let args = cli::parse(FLAGS);
    let samples = args.get("budget").unwrap_or(10);
    let threads = args.get("threads").map_or(1, |Threads(n)| n);
    let max_units = 25; // test-case evaluations (6-input batches) per cell
    println!("Table 5: detection of known vulnerabilities on handwritten test cases");
    println!("  (#inputs = mean number of random inputs executed until a CT-SEQ violation,");
    println!("   over {samples} matrix seeds; each cell replays its gadget with fresh input batches)");
    println!();

    // Scenario -> target used to test it.
    let v4_target = Target::target2(); // Skylake with the V4 patch off, Prime+Probe
    let mds_target = {
        let mut t = Target::target7(); // Skylake, assists enabled
        t.mode = MeasurementMode::prime_probe_assist();
        t
    };
    let base: Vec<(&str, Target)> = vec![
        ("V1", Target::target5()),
        ("V1.1", Target::target5()),
        ("V2", Target::target5()),
        ("V4", v4_target),
        ("V5-ret", Target::target5()),
        ("MDS-LFB", mds_target.clone()),
        ("MDS-SB", mds_target),
    ];
    let rows: Vec<(&str, Target)> = Scenario::table5()
        .into_iter()
        .zip(base)
        .map(|(scenario, (label, mut target))| {
            target.scenario = Some(scenario);
            (label, target)
        })
        .collect();
    let paper_inputs = [6u32, 6, 4, 62, 2, 2, 12];

    // One pooled matrix per sample seed; all seven scenario-pinned cells
    // share the worker fleet.  Cells are read back by index: several rows
    // pin different scenarios onto the same target id.
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for sample in 0..samples {
        let mut matrix = CampaignMatrix::new(sample as u64 * 104_729 + 3)
            .with_budget(max_units)
            .with_inputs_per_test_case(6)
            .with_parallelism(threads);
        for (_, target) in &rows {
            matrix = matrix.add_cell(target.clone(), Contract::ct_seq());
        }
        let report = matrix.run();
        for (i, cell) in report.cells.iter().enumerate() {
            if let Some(v) = &cell.violation {
                counts[i].push(v.inputs_until_detection);
            }
        }
    }

    let widths = [9, 10, 10, 8, 8, 14];
    println!(
        "{}",
        row(
            &[
                "Gadget".into(),
                "mean".into(),
                "min".into(),
                "max".into(),
                "found".into(),
                "paper (#inputs)".into()
            ],
            &widths
        )
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
    for (i, (label, _)) in rows.iter().enumerate() {
        let found = &counts[i];
        let mean = if found.is_empty() {
            0.0
        } else {
            found.iter().sum::<usize>() as f64 / found.len() as f64
        };
        println!(
            "{}",
            row(
                &[
                    label.to_string(),
                    format!("{mean:.1}"),
                    format!("{}", found.iter().min().copied().unwrap_or(0)),
                    format!("{}", found.iter().max().copied().unwrap_or(0)),
                    format!("{}/{samples}", found.len()),
                    format!("{}", paper_inputs[i]),
                ],
                &widths
            )
        );
    }
    println!();
    println!(
        "Shape check: every known vulnerability is detected with a small number of random \
         inputs (the paper needs 2-62).  Input counts here are batch-granular (a cell's \
         inputs arrive one batch per test-case evaluation), so they upper-bound the paper's \
         one-at-a-time minima; the simulator's low-entropy inputs also surface V4 faster \
         than the paper's 62."
    );
}
