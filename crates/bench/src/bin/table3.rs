//! Regenerates Table 3: detected contract violations for every target and
//! every CT-* contract.
//!
//! Usage: `cargo run --release -p rvz-bench --bin table3 [budget] [--json] [--threads=N] [--filter] [--zoo]`
//!
//! `--filter` enables the static speculation pre-filter: test cases that
//! provably cannot leak are discarded after generation, before any model
//! or hardware measurement.  Verdicts are unchanged (the filter is sound);
//! the measured-test-case counts drop.
//!
//! `--zoo` extends the matrix with the predictor-zoo targets (9-13): TAGE
//! and loop-predictor fuzzing cells plus the scenario-pinned BTB-aliasing,
//! deep-RSB-chain and predictor-state cells — 52 cells instead of 32.  The
//! classic 32 cells keep byte-identical verdicts either way (same seeds,
//! same streams).
//!
//! The 32 cells run as one [`CampaignMatrix`] over a single shared worker
//! pool: the four contracts of each target share one test-case stream and
//! its hardware traces (collected once, checked four times), so the whole
//! matrix costs a fraction of 32 independent campaigns.  Live progress is
//! printed to stderr as cells finish.
//!
//! With `--json` a machine-readable document is written to stdout instead of
//! the table: per-cell `target`, `contract`, `found`, `vulnerability`,
//! `test_cases`, `duration_ms` and `seed`.
//!
//! The paper fuzzes each cell for 24 hours or until the first violation; the
//! default budget here is sized for a simulator run of a few minutes.  The
//! rare latency variants of Targets 3 and 6 may need a larger budget, just
//! as the paper's artifact notes that they are hard to reproduce.

use revizor::campaign::{CellEvent, ProgressObserver};
use revizor::orchestrator::{CampaignMatrix, MatrixReport};
use revizor::targets::Target;
use rvz_bench::{budget_from_args, flag_from_args, flag_value_from_args, fmt_duration, matrix_report_json, row};
use rvz_model::Contract;

/// Streams one stderr line per finished cell, so long runs show progress.
struct LiveStatus;

impl ProgressObserver for LiveStatus {
    fn cell_finished(&mut self, event: &CellEvent) {
        let verdict = match (event.found, &event.vulnerability) {
            (true, Some(v)) => format!("VIOLATION ({v})"),
            (true, None) => "VIOLATION".to_string(),
            (false, _) => "no violation".to_string(),
        };
        eprintln!(
            "[{}] Target {} x {:<14} {verdict} after {} test cases",
            fmt_duration(event.elapsed),
            event.target_id,
            event.contract.name(),
            event.test_cases,
        );
    }
}

fn main() {
    // Budget 300 with matrix seed 30 reproduces 30/32 cells of the paper's
    // Table 3 (measured; only the two rare V1-var cells of Target 6 are
    // missing — the paper's artifact flags exactly those as hard).
    let budget = budget_from_args(300);
    let json_mode = flag_from_args("--json");
    let filter = flag_from_args("--filter");
    let zoo = flag_from_args("--zoo");
    let threads = flag_value_from_args::<usize>("--threads").unwrap_or(1);

    if !json_mode {
        println!("Table 3: testing results (budget: {budget} test cases per cell group)");
        println!("  check mark = violation detected (vulnerability, time); x = no violation within budget");
        println!();
    }

    let matrix = if zoo { CampaignMatrix::table3_zoo(30) } else { CampaignMatrix::table3(30) }
        .with_budget(budget)
        .with_parallelism(threads)
        .with_speculation_filter(filter);
    let report = matrix.run_with_observer(&mut LiveStatus);

    if json_mode {
        println!("{}", matrix_report_json(&report, budget).render_pretty());
    } else {
        print_table(&report, zoo);
    }
}

fn print_table(report: &MatrixReport, zoo: bool) {
    let contracts = Contract::table3_contracts();
    let widths = [14, 26, 26, 26, 26];
    let mut header = vec!["".to_string()];
    header.extend(contracts.iter().map(|c| c.name()));
    println!("{}", row(&header, &widths));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));

    let mut matches = 0usize;
    let mut cells = 0usize;
    let targets = if zoo { Target::catalog() } else { Target::all() };
    for target in targets {
        let label = match target.cpu_config.predictors.label() {
            l if l.is_empty() || target.id <= 8 => format!("Target {}", target.id),
            l => format!("Target {} ({l})", target.id),
        };
        let mut line = vec![label];
        for contract in &contracts {
            let outcome = report.cell(target.id, contract).expect("table3 covers every cell");
            let paper_row = target.id <= 8;
            let expected = target.paper_expects_violation(&contract.name());
            if paper_row {
                cells += 1;
                if outcome.found() == expected {
                    matches += 1;
                }
            }
            let cell = if outcome.found() {
                format!(
                    "YES ({}, {})",
                    outcome.vulnerability().map(|v| v.to_string()).unwrap_or("?".to_string()),
                    fmt_duration(outcome.detection_time)
                )
            } else {
                format!("no  ({} tcs)", outcome.test_cases)
            };
            let marker = if !paper_row || outcome.found() == expected {
                ""
            } else {
                " [differs from paper]"
            };
            line.push(format!("{cell}{marker}"));
        }
        println!("{}", row(&line, &widths));
    }

    println!();
    println!(
        "Matrix: {} unique (target, test case) measurements for {} cells in {} \
         (hardware traces shared across each target's contracts).",
        report.test_cases,
        report.cells.len(),
        fmt_duration(report.duration)
    );
    if report.statically_filtered > 0 {
        println!(
            "Static pre-filter: {} of {} generated test cases discarded before measurement.",
            report.statically_filtered, report.generated
        );
    }
    println!(
        "Agreement with the paper's Table 3: {matches}/{cells} cells \
         (cells marked 'differs' usually correspond to the rare V1-var/V4-var variants, \
         which the paper's artifact also describes as hard to reproduce)."
    );
    if zoo {
        println!(
            "Zoo rows (Targets 9-13) have no paper counterpart and are excluded from the \
             agreement count; Targets 11-12 are expected to violate every contract \
             (no CT contract models indirect-jump or return speculation); Target 13 \
             (TAGE) leaks V1 only where TAGE still mispredicts after warm-up, so it \
             violates CT-SEQ and CT-BPAS and complies with the CT-COND contracts."
        );
    }
}
