//! The campaign server: serve Revizor fuzzing campaigns over TCP.
//!
//! ```text
//! revizor-serve [--addr=127.0.0.1:15790] [--spool=DIR] [--shards=N]
//!               [--fleet-addr=127.0.0.1:15791] [--steal-after=SECS]
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
//!   own jobs.  Without the flag the server is open (no auth).  The
//!   startup line says which: `auth: FILE` or `auth: open`.
//! * `--shards` — in-process worker threads.  Every job is split into
//!   one work unit per target group, and each worker leases one unit at
//!   a time from the one shared queue (highest priority first, FIFO
//!   within a priority), so a job's units run on several workers at
//!   once.  Every wave's checkpoint is spooled.
//! * `--fleet-addr` — **fleet mode**: listen for `revizor-worker` hosts
//!   on this address instead of running in-process workers.  Workers
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

use rvz_bench::cli::{self, Flag};
use rvz_service::{ServiceConfig, ServiceHandle};
use std::path::PathBuf;
use std::time::Duration;

const FLAGS: &[Flag] = &[
    Flag::value::<String>("addr", "HOST:PORT", "client listen address (default 127.0.0.1:15790)"),
    Flag::value::<PathBuf>("spool", "DIR", "durable job state; restarts resume unfinished jobs"),
    Flag::value::<usize>("spool-retain", "N", "keep at most N finished job records (default: all)"),
    Flag::value::<PathBuf>("store", "DIR", "violation store, queried by revizor-query"),
    Flag::value::<PathBuf>("token-file", "FILE", "`<token> <tenant>` lines (default: open)"),
    Flag::value::<usize>("shards", "N", "in-process workers (default 2; not in fleet mode)"),
    Flag::value::<String>("fleet-addr", "HOST:PORT", "fleet mode: workers register here"),
    Flag::value::<u64>("worker-timeout", "SECS", "silence before a unit is requeued (default 120)"),
    Flag::value::<u64>("steal-after", "SECS", "stall before a leased unit is stolen (default 30)"),
    Flag::value::<usize>("watermark", "N", "unit backlog at which submit defers (default 1024)"),
];

fn main() {
    let args = cli::parse(FLAGS);
    let shards = args.get("shards").unwrap_or(2);
    let base = ServiceConfig::default();
    let config = ServiceConfig {
        shards,
        spool: args.get("spool"),
        spool_retain: args.get("spool-retain"),
        store: args.get("store"),
        token_file: args.get("token-file"),
        listen: Some(args.get("addr").unwrap_or_else(|| "127.0.0.1:15790".to_string())),
        worker_listen: args.get("fleet-addr"),
        worker_timeout: args.get("worker-timeout").map_or(base.worker_timeout, Duration::from_secs),
        steal_after: args.get("steal-after").map_or(base.steal_after, Duration::from_secs),
        queue_watermark: args.get("watermark").unwrap_or(base.queue_watermark),
    };
    let shown = |path: &Option<PathBuf>, none: &str| {
        path.as_deref().map_or(none.to_string(), |p| p.display().to_string())
    };
    let (spool, auth) = (shown(&config.spool, "none"), shown(&config.token_file, "open"));
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
    eprintln!("revizor-serve: listening on {bound} ({backend}, spool: {spool}, auth: {auth})");
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
