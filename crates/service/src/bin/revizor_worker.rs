//! A worker host for fleet-mode campaign serving: dial a coordinator
//! (`revizor-serve --fleet-addr=…`), register at runtime, and lease
//! relocatable work units.
//!
//! ```text
//! revizor-worker --coordinator=127.0.0.1:15791 [--name=w1] [--retry-secs=30]
//! ```
//!
//! `--coordinator` is the coordinator's **fleet** port, not its client
//! port; `--help` lists the other flags.
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

use rvz_bench::cli::{self, Flag};
use rvz_service::{Worker, WorkerConfig};
use std::time::Duration;

const FLAGS: &[Flag] = &[
    Flag::value::<String>("coordinator", "HOST:PORT", "the coordinator's fleet port (required)"),
    Flag::value::<String>("name", "NAME", "registration name (default worker-<pid>)"),
    Flag::value::<u64>("retry-secs", "SECS", "connect retry window (default 30)"),
];

fn main() {
    let args = cli::parse(FLAGS);
    let Some(coordinator) = args.get::<String>("coordinator") else {
        cli::refuse("pass --coordinator=HOST:PORT (the coordinator's fleet port)");
    };
    let mut config = WorkerConfig::new(coordinator);
    if let Some(name) = args.get("name") {
        config.name = name;
    }
    if let Some(secs) = args.get("retry-secs") {
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
