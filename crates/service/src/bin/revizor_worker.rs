//! A worker host for fleet-mode campaign serving: dial a coordinator
//! (`revizor-serve --fleet-addr=…`), register at runtime, and lease
//! relocatable work units.
//!
//! ```text
//! revizor-worker --coordinator=127.0.0.1:15791 [--name=w1] [--retry-secs=30]
//! ```
//!
//! * `--coordinator` — the coordinator's **fleet** port (not the client
//!   port).
//! * `--name` — the name this worker registers under (default:
//!   `worker-<pid>`); it shows up in per-unit `status` placement.
//! * `--retry-secs` — how long to keep retrying a failed connect before
//!   exiting (default 30; lets workers start before the coordinator and
//!   ride out coordinator restarts).
//!
//! Checkpoints travel as binary frames in both directions; control
//! frames are JSON lines (see `rvz_service::coordinator`).
//!
//! Workers are stateless and elastic: they join and leave at any time,
//! leasing one unit (one target group of a job's matrix) at a time.
//! Every wave's checkpoint is replicated to the coordinator's spool
//! before the next wave starts, so killing a worker (even `kill -9`)
//! never loses more than the wave in flight — the coordinator steals the
//! unit back and the verdicts come out byte-identical.  Run as many
//! workers as you have machines.

use rvz_bench::{flag_from_args, flag_value_from_args};
use rvz_service::{Worker, WorkerConfig};
use std::time::Duration;

const HELP: &str = "revizor-worker: a fleet worker host for revizor-serve

usage: revizor-worker --coordinator=HOST:PORT [options]

  --coordinator=HOST:PORT the coordinator's fleet port (revizor-serve
                          --fleet-addr), where workers register at runtime
  --name=NAME             registration name (default worker-<pid>)
  --retry-secs=SECS       connect retry window (default 30)
  -h, --help              this text
";

fn main() {
    if flag_from_args("--help") || flag_from_args("-h") {
        print!("{HELP}");
        return;
    }
    let Some(coordinator) = flag_value_from_args::<String>("--coordinator") else {
        eprintln!("revizor-worker: pass --coordinator=HOST:PORT (the coordinator's fleet port)");
        std::process::exit(2);
    };
    let mut config = WorkerConfig::new(coordinator);
    if let Some(name) = flag_value_from_args::<String>("--name") {
        config.name = name;
    }
    if let Some(secs) = flag_value_from_args::<u64>("--retry-secs") {
        config.retry_for = Duration::from_secs(secs);
    }
    eprintln!(
        "revizor-worker: `{}` connecting to {} (retry window {:?})",
        config.name, config.coordinator, config.retry_for
    );
    match Worker::new(config).run() {
        Ok(()) => eprintln!("revizor-worker: coordinator shut us down; exiting"),
        Err(e) => {
            eprintln!("revizor-worker: coordinator unreachable: {e}");
            std::process::exit(1);
        }
    }
}
