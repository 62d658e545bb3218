//! Measures what the static speculation pre-filter saves: for every
//! Table 3 target, the number of test cases *measured* (model + hardware
//! passes) until the first CT-SEQ violation — or until the budget runs out
//! on non-violating targets — with the filter off and on.
//!
//! Usage: `cargo run --release -p rvz-bench --bin filter_effectiveness -- [--budget=N]`
//!
//! Both runs share the same matrix seed, so the filter-on run sees the
//! exact same test-case stream and (soundness) reports the exact same first
//! violation; only the measured count shrinks.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::{budget_flag, row};
use rvz_model::Contract;

const FLAGS: &[Flag] = &[budget_flag("test cases per target (default 60)")];

fn main() {
    let budget = cli::parse(FLAGS).get("budget").unwrap_or(60);
    let seed = 7;

    println!("Static pre-filter effectiveness (budget {budget} test cases per target, seed {seed})");
    println!("  'measured' = test cases that reached the model/hardware pipeline before the");
    println!("  first CT-SEQ violation (or the full budget when no violation exists).");
    println!();
    let widths = [10, 22, 22, 22, 12];
    println!(
        "{}",
        row(
            &["target", "verdict", "measured (no filter)", "measured (filter)", "saved"]
                .map(String::from),
            &widths
        )
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));

    for target in Target::all() {
        let run = |filter: bool| {
            CampaignMatrix::new(seed)
                .with_budget(budget)
                .with_speculation_filter(filter)
                .add_cell(target.clone(), Contract::ct_seq())
                .run()
        };
        let off = run(false);
        let on = run(true);
        let (off_cell, on_cell) = (&off.cells[0], &on.cells[0]);
        assert_eq!(
            off_cell.vulnerability().map(|v| v.to_string()),
            on_cell.vulnerability().map(|v| v.to_string()),
            "the filter must not change the verdict of target {}",
            target.id
        );
        let verdict = match off_cell.vulnerability() {
            Some(v) => format!("violation ({v})"),
            None if off_cell.found() => "violation".to_string(),
            None => "none".to_string(),
        };
        let saved = off_cell.test_cases.saturating_sub(on_cell.test_cases);
        let pct = if off_cell.test_cases > 0 {
            100.0 * saved as f64 / off_cell.test_cases as f64
        } else {
            0.0
        };
        println!(
            "{}",
            row(
                &[
                    format!("Target {}", target.id),
                    verdict,
                    format!("{}", off_cell.test_cases),
                    format!("{} (+{} filtered)", on_cell.test_cases, on_cell.filtered),
                    format!("{pct:.0}%"),
                ],
                &widths
            )
        );
    }
}
