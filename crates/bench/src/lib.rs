//! # rvz-bench
//!
//! Benchmark and experiment-regeneration harness.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! target here (see `DESIGN.md` for the full index):
//!
//! | Paper artefact | Binary (`cargo run --release -p rvz-bench --bin <name>`) |
//! |---|---|
//! | Table 2 (experimental setups)          | `table2` |
//! | Table 3 (violations per target/contract) | `table3` |
//! | Table 4 (detection times)              | `table4` |
//! | Table 5 (inputs to violation, handwritten gadgets) | `table5` |
//! | §6.4 (speculative store eviction)      | `store_eviction` |
//! | §6.5 (fuzzing speed)                   | `fuzzing_speed_report` |
//! | §6.6 / Figure 6 (contract sensitivity) | `contract_sensitivity` |
//! | Figures 3 & 4 (generated / minimized test case) | `figures` |
//!
//! Throughput is measured by `emu_throughput` (each execution layer against
//! its reference interpreter, `BENCH_emu.json`) and by the `perfbench`
//! package outside the workspace (end to end and per pipeline stage).
//!
//! The table binaries accept an optional budget argument (test cases per
//! cell / samples per row) so that quick smoke runs and longer, more
//! paper-like runs use the same code.

pub mod binfmt;
pub mod json;
pub mod report;

use json::Json;
use report::effectiveness_stats_to_json;
use revizor::orchestrator::MatrixReport;
use std::time::Duration;

/// Parse the first positional numeric CLI argument as a budget, with a
/// default.  The table binaries take flags exclusively in `--name` /
/// `--name=value` form (see [`flag_value_from_args`]), so everything
/// starting with `--` is skipped — a flag's value can never be mistaken
/// for the budget.
pub fn budget_from_args(default: usize) -> usize {
    budget_from(std::env::args().skip(1), default)
}

/// Testable core of [`budget_from_args`].
fn budget_from(args: impl IntoIterator<Item = String>, default: usize) -> usize {
    args.into_iter()
        .filter(|arg| !arg.starts_with("--"))
        .find_map(|arg| arg.parse().ok())
        .unwrap_or(default)
}

/// Is a `--flag` present on the command line?
pub fn flag_from_args(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// The parsed value of a `--name=value` flag, if present and parseable.
pub fn flag_value_from_args<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::args().skip(1).find_map(|arg| {
        arg.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|value| value.parse().ok())
    })
}

/// The machine-readable form of a matrix run (the `table3 --json` output):
/// one object per cell with `target`, `contract`, `found`, `vulnerability`,
/// `gadget_class`, `test_cases`, `statically_filtered`, `effectiveness`,
/// `duration_ms`, `seed`, `predictors` and `scenario` fields, plus the run
/// parameters and the generated / statically-filtered / measured totals.
/// `predictors` is `"default"` for the classic cells and the predictor
/// label (e.g. `"TAGE"`) for zoo cells; `scenario` is the pinned gadget
/// family or null.
/// A cell's `duration_ms` is its group's attributed evaluation time
/// ([`CellReport::detection_time`](revizor::CellReport)) — comparable to an
/// independent per-cell campaign's duration; the top-level `duration_ms` is
/// the matrix's wall clock.
pub fn matrix_report_json(report: &MatrixReport, budget: usize) -> Json {
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|cell| {
            Json::obj()
                .field("target", cell.target.id)
                .field("contract", cell.contract.name())
                .field("found", cell.found())
                .field("vulnerability", cell.vulnerability().map(|v| v.to_string()))
                .field(
                    "gadget_class",
                    cell.violation.as_ref().and_then(|v| v.gadget.map(|g| g.label())),
                )
                .field("test_cases", cell.test_cases)
                .field("statically_filtered", cell.filtered)
                .field("effectiveness", effectiveness_stats_to_json(&cell.effectiveness))
                .field("duration_ms", cell.detection_time.as_secs_f64() * 1000.0)
                .field("seed", report.seed)
                .field(
                    "predictors",
                    match cell.target.cpu_config.predictors.label() {
                        l if l.is_empty() => "default".to_string(),
                        l => l,
                    },
                )
                .field("scenario", cell.target.scenario.as_ref().map(|s| s.label()))
        })
        .collect();
    Json::obj()
        .field("budget", budget)
        .field("seed", report.seed)
        .field("measured_test_cases", report.test_cases)
        .field("generated_test_cases", report.generated)
        .field("statically_filtered", report.statically_filtered)
        .field("duration_ms", report.duration.as_secs_f64() * 1000.0)
        .field("cells", Json::Arr(cells))
}

/// Render a duration as the paper does (`4m 51s` / `5.3s`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{}m {:02.0}s", (secs / 60.0) as u64, secs % 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.0}ms", secs * 1000.0)
    }
}

/// Render a table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(250)), "250ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(5.25)), "5.2s");
        assert_eq!(fmt_duration(Duration::from_secs(300)), "5m 00s");
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   | bb  ");
    }

    #[test]
    fn default_budget_used_without_args() {
        assert_eq!(budget_from_args(42), 42);
    }

    #[test]
    fn budget_parsing_skips_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(budget_from(args(&["120"]), 42), 120);
        assert_eq!(budget_from(args(&["--json", "120"]), 42), 120);
        assert_eq!(budget_from(args(&["120", "--json"]), 42), 120);
        // A flag's value (`--name=value` form) is never read as the budget.
        assert_eq!(budget_from(args(&["--threads=4"]), 42), 42);
        assert_eq!(budget_from(args(&["--json", "--threads=4"]), 42), 42);
        assert_eq!(budget_from(args(&["--threads=4", "120"]), 42), 120);
        assert_eq!(budget_from(args(&["garbage"]), 42), 42);
    }
}
