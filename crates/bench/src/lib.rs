//! # rvz-bench
//!
//! Benchmark and experiment-regeneration harness.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! target here:
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
//! Every binary of the workspace reads its command line through [`cli`]:
//! `--name` switches and `--name=value` flags from one table per binary,
//! listed by `--help`; anything else exits 2 naming the argument.  The
//! table binaries take their budget as `--budget=N`.

pub mod binfmt;
pub mod cli;
pub mod json;
pub mod report;

use json::Json;
use report::effectiveness_stats_to_json;
use cli::Flag;
use revizor::orchestrator::{CampaignMatrix, MatrixReport};
use std::str::FromStr;
use std::time::Duration;

/// The table binaries' `--budget=N` row; `help` says what the budget counts.
pub const fn budget_flag(help: &'static str) -> Flag {
    Flag::value::<usize>("budget", "N", help)
}

/// The matrix tables' `--threads=N` row.
pub const THREADS: Flag =
    Flag::value::<Threads>("threads", "N", "threads, the calling one included (default 1)");

/// A `--threads` value: at most [`CampaignMatrix::MAX_PARALLELISM`].
pub struct Threads(pub usize);

impl FromStr for Threads {
    type Err = String;

    fn from_str(s: &str) -> Result<Threads, String> {
        match s.parse::<usize>().map_err(|e| e.to_string())? {
            n if n > CampaignMatrix::MAX_PARALLELISM => {
                Err(format!("above the bound {}", CampaignMatrix::MAX_PARALLELISM))
            }
            n => Ok(Threads(n)),
        }
    }
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
}
