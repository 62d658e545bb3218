//! Regenerates Table 4: detection time until the first violation for the
//! targets that exhibit violations (Targets 2, 5, 7, 8), for different
//! amounts of contract-permitted leakage.
//!
//! Usage: `cargo run --release -p rvz-bench --bin table4 -- [--budget=N] [--threads=N]`,
//! where the budget is the number of samples per cell.
//!
//! Each sample runs the whole 10-cell grid (3 leakage rows x 4 targets,
//! minus the paper's two N/A cells) as **one** [`CampaignMatrix`] on the
//! shared worker pool: every target's test-case stream and hardware traces
//! are collected once and checked against all of its contracts, so a
//! sample costs a fraction of 10 independent campaigns.  Per-cell
//! detection times are the group's attributed evaluation time — comparable
//! to an independent campaign's wall clock — and every sample is a
//! deterministic function of its matrix seed.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::{budget_flag, fmt_duration, row, Threads, THREADS};
use rvz_model::Contract;
use std::time::Duration;

const FLAGS: &[Flag] = &[budget_flag("samples per cell (default 5)"), THREADS];

fn main() {
    let args = cli::parse(FLAGS);
    let samples = args.get("budget").unwrap_or(5);
    let threads = args.get("threads").map_or(1, |Threads(n)| n);
    let max_test_cases = 300;
    println!("Table 4: detection time (mean over {samples} runs, coefficient of variation in parentheses)");
    println!();

    // Rows: contract-permitted leakage (None = CT-SEQ, V4 = CT-BPAS, V1 = CT-COND).
    let rows: Vec<(&str, Contract)> = vec![
        ("None", Contract::ct_seq()),
        ("V4", Contract::ct_bpas()),
        ("V1", Contract::ct_cond()),
    ];
    // Columns: the vulnerable targets and their headline vulnerability type.
    let columns: Vec<(&str, Target)> = vec![
        ("V4-type (Target 2)", Target::target2()),
        ("V1-type (Target 5)", Target::target5()),
        ("MDS-type (Target 7)", Target::target7()),
        ("LVI-type (Target 8)", Target::target8()),
    ];

    // N/A cells of the paper: a contract that already permits the target's
    // headline leak.
    let na = |row_label: &str, col_label: &str| {
        (row_label == "V4" && col_label.starts_with("V4"))
            || (row_label == "V1" && col_label.starts_with("V1"))
    };

    // One pooled matrix per sample; durations[row][col] collects the
    // detection times of the samples that found a violation.
    let mut durations: Vec<Vec<Vec<Duration>>> = vec![vec![Vec::new(); columns.len()]; rows.len()];
    for sample in 0..samples {
        let mut matrix = CampaignMatrix::new(sample as u64 * 7919 + 1)
            .with_budget(max_test_cases)
            .with_parallelism(threads);
        for (row_label, contract) in &rows {
            for (col_label, target) in &columns {
                if !na(row_label, col_label) {
                    matrix = matrix.add_cell(target.clone(), contract.clone());
                }
            }
        }
        let report = matrix.run();
        for (ri, (row_label, contract)) in rows.iter().enumerate() {
            for (ci, (col_label, target)) in columns.iter().enumerate() {
                if na(row_label, col_label) {
                    continue;
                }
                let cell = report.cell(target.id, contract).expect("grid covers every cell");
                if cell.found() {
                    durations[ri][ci].push(cell.detection_time);
                }
            }
        }
    }

    let widths = [10, 24, 24, 24, 24];
    let mut header = vec!["Permitted".to_string()];
    header.extend(columns.iter().map(|(n, _)| n.to_string()));
    println!("{}", row(&header, &widths));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));

    for (ri, (row_label, _)) in rows.iter().enumerate() {
        let mut line = vec![row_label.to_string()];
        for (ci, (col_label, _)) in columns.iter().enumerate() {
            if na(row_label, col_label) {
                line.push("N/A".to_string());
                continue;
            }
            let found = &durations[ri][ci];
            if found.is_empty() {
                line.push(format!("not found ({samples} runs)"));
                continue;
            }
            let secs: Vec<f64> = found.iter().map(Duration::as_secs_f64).collect();
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            let cv = if secs.len() < 2 || mean == 0.0 {
                0.0
            } else {
                let var = secs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / secs.len() as f64;
                var.sqrt() / mean
            };
            line.push(format!(
                "{} ({cv:.1}) [{} of {samples}]",
                fmt_duration(Duration::from_secs_f64(mean)),
                found.len(),
            ));
        }
        println!("{}", row(&line, &widths));
    }

    println!();
    println!(
        "Paper reference (absolute times are not comparable — the CPU under test here is a \
         simulator): most vulnerabilities detected within minutes; V4-type detection is the \
         slowest; permitting one leakage type does not prevent detection of the others."
    );
}
