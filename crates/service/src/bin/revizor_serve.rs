//! The campaign server: serve Revizor fuzzing campaigns over TCP.
//!
//! ```text
//! revizor-serve [--addr=127.0.0.1:15790] [--spool=DIR] [--shards=N]
//!               [--coordinator] [--fleet-addr=127.0.0.1:15791] [--steal-after=SECS]
//!               [--watermark=N]
//! ```
//!
//! * `--addr` — listen address (use port `0` for an ephemeral port; the
//!   bound address is printed on startup).
//! * `--spool` — durable job state; a restarted server resumes every
//!   unfinished job from here with byte-identical verdicts.
//! * `--spool-retain` — keep at most N finished/cancelled job records in
//!   the spool, pruning the oldest (default: keep all).
//! * `--store` — indexed violation store: every finished job's violation
//!   cells are appended here, deduplicated by minimized-gadget
//!   equivalence; query with `revizor-query --store=DIR`.
//! * `--token-file` — require a `token` field on every client request
//!   (except `ping`), resolved against this file: one
//!   `<token> <tenant>` pair per line (`#` comments and blank lines
//!   ignored).  Jobs are stamped with the submitting tenant, and
//!   `list`/`status`/`result`/`watch`/`cancel` only see the caller's
//!   own jobs.  Without the flag the server is open (no auth).
//! * `--shards` — in-process worker threads.  Every job is split into
//!   one work unit per target group, and each worker leases one unit at
//!   a time from the one shared queue (highest priority first, FIFO
//!   within a priority), so a job's units run on several workers at
//!   once.  Every wave's checkpoint is spooled.
//! * `--coordinator` / `--fleet-addr` — **fleet mode**: listen for
//!   `revizor-worker` hosts (on `--fleet-addr`, default
//!   `127.0.0.1:15791`) instead of running in-process workers.  Workers
//!   register at runtime and *lease* relocatable work units (one per
//!   target group of a job); checkpoints are replicated into the spool
//!   after every wave, and the coordinator steals units back from slow
//!   or dead workers, so hosts can join, leave or crash mid-job with
//!   byte-identical verdicts.
//! * `--worker-timeout` — seconds a unit-holding worker may stay silent
//!   before it is declared partitioned and its unit requeued (default
//!   120; workers send at least one frame per wave).
//! * `--steal-after` — seconds a leased unit may go without replicating
//!   progress before the coordinator steals it for an idle worker
//!   (default 30).
//! * `--watermark` — queued-unit backpressure threshold: at or above
//!   this backlog, `submit` defers with a retry-after hint instead of
//!   queueing more work (default 1024).
//!
//! The client protocol (newline-delimited JSON) is documented in
//! `rvz_service::server`; submit with `revizor-submit` or any line-based
//! TCP client.  The fleet protocol (JSON control lines, binary grant and
//! checkpoint frames) is documented in `rvz_service::coordinator`.

use rvz_bench::{flag_from_args, flag_value_from_args};
use rvz_service::{ServiceConfig, ServiceHandle};
use std::path::PathBuf;
use std::time::Duration;

const HELP: &str = "revizor-serve: serve Revizor fuzzing campaigns over TCP

usage: revizor-serve [options]

  --addr=HOST:PORT        client listen address (default 127.0.0.1:15790)
  --spool=DIR             durable job state; restarts resume unfinished jobs
  --spool-retain=N        keep at most N terminal job records, pruning the
                          oldest (default: keep all)
  --store=DIR             indexed violation store, queryable with
                          revizor-query (default: no indexing)
  --token-file=FILE       require per-client tokens: one `<token> <tenant>`
                          per line; clients pass --token and only see their
                          tenant's jobs (default: open, no auth)
  --shards=N              in-process workers, each leasing one work unit (one
                          target group of a job) at a time (default 2;
                          ignored in fleet mode)
  --coordinator           fleet mode on the default fleet address
  --fleet-addr=HOST:PORT  fleet mode: revizor-worker hosts register here at
                          runtime and lease relocatable work units
                          (default 127.0.0.1:15791)
  --worker-timeout=SECS   silence budget before a worker's unit is requeued
                          (default 120)
  --steal-after=SECS      stall budget before a leased unit is stolen for an
                          idle worker (default 30)
  --watermark=N           queued-unit backlog at which `submit` defers with a
                          retry-after hint (default 1024)
  -h, --help              this text
";

fn main() {
    if flag_from_args("--help") || flag_from_args("-h") {
        print!("{HELP}");
        return;
    }
    let addr =
        flag_value_from_args::<String>("--addr").unwrap_or_else(|| "127.0.0.1:15790".to_string());
    let spool = flag_value_from_args::<String>("--spool").map(PathBuf::from);
    let shards = flag_value_from_args::<usize>("--shards").unwrap_or(2);
    let worker_listen = flag_value_from_args::<String>("--fleet-addr")
        .or_else(|| flag_from_args("--coordinator").then(|| "127.0.0.1:15791".to_string()));

    let mut config = ServiceConfig {
        shards,
        spool: spool.clone(),
        spool_retain: flag_value_from_args::<usize>("--spool-retain"),
        store: flag_value_from_args::<String>("--store").map(PathBuf::from),
        token_file: flag_value_from_args::<String>("--token-file").map(PathBuf::from),
        listen: Some(addr),
        worker_listen,
        ..ServiceConfig::default()
    };
    if let Some(secs) = flag_value_from_args::<u64>("--worker-timeout") {
        config.worker_timeout = Duration::from_secs(secs);
    }
    if let Some(secs) = flag_value_from_args::<u64>("--steal-after") {
        config.steal_after = Duration::from_secs(secs);
    }
    if let Some(watermark) = flag_value_from_args::<usize>("--watermark") {
        config.queue_watermark = watermark;
    }
    let handle = match ServiceHandle::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("revizor-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let bound = handle.local_addr().expect("listen address configured");
    let backend = match handle.worker_addr() {
        Some(fleet_addr) => format!("fleet coordinator; workers register on {fleet_addr}"),
        None => format!("{shards} in-process worker{}", if shards == 1 { "" } else { "s" }),
    };
    eprintln!(
        "revizor-serve: listening on {bound} ({backend}, spool: {})",
        spool.as_deref().map(|p| p.display().to_string()).unwrap_or_else(|| "none".to_string()),
    );
    let resumed = handle.core().list();
    if !resumed.is_empty() {
        eprintln!("revizor-serve: {} job(s) loaded from the spool", resumed.len());
    }

    // Serve until killed; the spool makes an abrupt kill safe (unfinished
    // jobs resume on the next start).
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}
