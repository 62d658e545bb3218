//! perfbench: the Revizor suite's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-spec PATH
//! ```
//!
//! Run from the root of a checkout (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`).  Workloads: `table3_inproc`,
//! `compliant_fixed` (see `spec.rs` for why each exists).
//! `--seed` (default 30) is the only argument that changes inputs: the run's
//! matrix seeds derive from it.  With `--trace 0` the run measures matrices
//! of successive seeds until `--seconds` have passed and reports the
//! end-to-end metrics; with `--trace 1` it replays two matrices under
//! per-stage spans (for `table3_inproc` also serving them through a loopback
//! `revizor-serve` fleet) and reports the per-layer metrics.  Every output
//! is checked; the last stdout line is the result as JSON, and any failed
//! check makes the exit code nonzero.

mod checks;
mod fleet;
mod inproc;
mod spec;
mod stats;
mod trace;

use checks::Checks;
use rvz_bench::json::Json;
use spec::{unit_of, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;

/// Metric name → value, in definition order.
pub type Metrics = Vec<(&'static str, f64)>;

const USAGE: &str = "usage: perfbench --workload table3_inproc|compliant_fixed \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-spec PATH";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = args.as_slice() {
        if flag == "--write-spec" {
            let doc = format!("{}\n", spec::benchmark_json().render_pretty());
            return match std::fs::write(path, doc) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {path}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bins = match fleet::build_bins() {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let mut checks = Checks::default();
    let measured = if args.trace {
        trace::run(w, args.seed, &bins, &mut checks)
    } else {
        Ok(inproc::measure(w, args.seed, args.seconds, &mut checks))
    };
    let metrics = match measured {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        reported, expected,
        "the run reports exactly the defined metrics"
    );

    for (name, value) in &metrics {
        println!("{name:<32} {value:>16.6} {}", unit_of(name));
    }
    println!(
        "fail_ratio {:.6} ({} of {} output checks failed)",
        stats::ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    let mut metrics_json = Json::obj();
    for (name, value) in &metrics {
        metrics_json = metrics_json.field(
            name,
            Json::obj()
                .field("value", *value)
                .field("unit", unit_of(name)),
        );
    }
    let result = Json::obj()
        .field("correct", checks.failed == 0)
        .field("attempted", checks.attempted)
        .field("failed", checks.failed)
        .field("metrics", metrics_json);
    println!("{}", result.render());
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
