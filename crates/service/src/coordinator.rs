//! Fleet mode: the coordinator side of the worker protocol.
//!
//! A coordinator is a campaign server whose jobs run on an **elastic fleet
//! of worker hosts** (`revizor-worker` processes) instead of in-process
//! worker threads.  Clients see the exact same JSON-lines protocol; behind
//! the core, a second listener accepts worker connections at any time and
//! its [`Coordinator::poll_once`] — polled by the same reactor thread as
//! the client port's [`crate::server::Server::poll_once`] — drives the
//! unit queue:
//!
//! ```text
//!            clients                          worker fleet (elastic)
//!   submit/watch/cancel │   ┌──────────────┐ │ register ──► lease ──►
//!            ───────────┼──►│ ServiceCore  │◄┼─────────────────────┐
//!        (backpressured     │  unit queue  │ │ ◄── grant(unit, cp) │
//!         at watermark)     │  job table   │ │ ──► wave(cp, digest)│
//!                           │  spool ◄─────┼─┼── replicate, ack ──►│
//!                           └──────┬───────┘ │ ──► unit_done(cp)   │
//!                                  │ steal: revoke slow owner,     │
//!                                  └── re-lease unit to idle worker┘
//! ```
//!
//! ## Wire encoding
//!
//! Control frames (`register`, `lease`, `heartbeat`, `unit_failed`,
//! `ack`, `revoke`, `cancel`, `shutdown`) are JSON lines.  Everything that
//! carries a checkpoint is a binary [`binfmt`] frame, and only one: a
//! `grant` is a `KIND_GRANT` frame, and `wave`, `unit_done` and
//! `unit_cancelled` are `KIND_TRANSFER` frames whose routing fields ride
//! in the meta section.  A JSON line naming one of those transfer ops is
//! a protocol violation, handled like a malformed frame: the connection
//! is dropped and its unit requeued, so nothing from it is ever spooled.
//!
//! Jobs split into **relocatable work units** (one per target group) at
//! submit.  Workers join at runtime (`register`), ask for work (`lease`),
//! and drive one unit at a time; a job's units can run on different hosts
//! concurrently and the final report is reconstructed from their final
//! sub-checkpoints, byte-identical to an in-process run.
//!
//! ## The replication contract
//!
//! After every wave a worker sends its unit's sub-checkpoint (with its
//! [`digest`](revizor::orchestrator::MatrixCheckpoint::digest) computed
//! *before* encoding) and blocks for the coordinator's `ack`.  The
//! coordinator re-digests the decoded snapshot — a mismatch means the
//! transfer codec lost state, so the snapshot is **rejected** (`"accepted":
//! false`) rather than spooled; the unit then simply resumes from an older
//! replicated wave if its worker dies.  Because a resumed sub-run replays
//! the identical stream suffix from *any* wave boundary, verdicts stay
//! byte-identical no matter which replicated checkpoint a steal or
//! reassignment starts from — the chaos harness (`tests/chaos.rs`) sweeps
//! exactly this property.
//!
//! ## Failure handling
//!
//! * **Worker dies / connection drops** — its leased unit is released
//!   and re-leased to the next idle worker at the unit's last replicated
//!   sub-checkpoint.
//! * **Worker goes slow** — an idle worker **steals**: a unit without an
//!   accepted checkpoint for [`steal_after`](crate::ServiceConfig::steal_after)
//!   is revoked from its owner and re-leased.  Every unit frame quotes its
//!   lease token, so the old owner's in-flight frames bounce off the core
//!   (`Revoked`) instead of corrupting the thief's progress.
//! * **Cancellation** — a client `cancel` marks the job; the coordinator
//!   forwards `{"op":"cancel"}` to every owner of one of its units, each
//!   of which stops at the next wave boundary and reports back its
//!   stopping checkpoint (`unit_cancelled`).
//! * **Priorities** — leasing picks units of the highest-priority job
//!   (FIFO within a priority), from the same queue in-process workers
//!   drain.

use crate::core::{ServiceCore, UnitDisposition, UnitGrant};
use crate::framing;
use rvz_bench::binfmt::{self, checkpoint_transfer_from_binary, BinaryTransfer};
use rvz_bench::json::{parse, Json};
use rvz_bench::report::CheckpointTransfer;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One connected worker host.
struct WorkerConn {
    stream: TcpStream,
    inbuf: framing::InBuf,
    outbuf: Vec<u8>,
    /// The name the worker registered under (empty until `register`).
    name: String,
    registered: bool,
    /// Has the worker asked for work (`lease`) it has not been granted yet?
    wants_work: bool,
    /// When the connection last produced bytes, for the silent-partition
    /// timeout ([`crate::ServiceConfig::worker_timeout`]).
    last_heard: Instant,
    /// The unit this worker currently drives: `(job, target, lease)`.
    unit: Option<(String, u8, u64)>,
    /// When the unit last had a checkpoint *accepted* (grant time before
    /// that) — the steal clock
    /// ([`crate::ServiceConfig::steal_after`]).
    last_progress: Instant,
    /// Has the cancel for the unit's job already been forwarded?
    cancel_sent: bool,
    closed: bool,
}

impl WorkerConn {
    fn queue_line(&mut self, doc: &Json) {
        framing::queue_line(&mut self.outbuf, doc);
    }

    /// Stop tracking unit `(job, target)` if this worker drives it.
    fn forget_unit(&mut self, job: &str, target: u8) {
        if self.unit.as_ref().is_some_and(|(j, t, _)| j == job && *t == target) {
            self.unit = None;
            self.cancel_sent = false;
        }
    }
}

/// The coordinator reactor: worker listener + connections (see the module
/// docs).
pub struct Coordinator {
    core: Arc<ServiceCore>,
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<WorkerConn>,
}

impl Coordinator {
    /// Bind the worker listener (non-blocking) on `listen`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(core: Arc<ServiceCore>, listen: &str) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Coordinator { core, listener, addr, conns: Vec::new() })
    }

    /// The bound worker address (useful with an ephemeral `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// One non-blocking pass: accept workers, ingest their frames,
    /// forward cancels, lease (and steal) units for idle workers, flush.
    /// Returns whether any progress was made (callers sleep briefly when
    /// idle).
    pub fn poll_once(&mut self) -> bool {
        let mut progress = false;

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(WorkerConn {
                            stream,
                            inbuf: framing::InBuf::default(),
                            outbuf: Vec::new(),
                            name: String::new(),
                            registered: false,
                            wants_work: false,
                            last_heard: Instant::now(),
                            unit: None,
                            last_progress: Instant::now(),
                            cancel_sent: false,
                            closed: false,
                        });
                        progress = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        for conn in &mut self.conns {
            progress |= Self::service_conn(&self.core, conn);
        }

        // Silent-partition detection: a worker driving a unit sends at
        // least one frame per wave, so a long-silent unit-holding
        // connection is dead even if the socket never errors (pulled
        // cable, frozen host).  Dropping it is safe — the unit resumes
        // byte-identically from its last replicated sub-checkpoint on
        // another worker.  Idle (leaseless) workers heartbeat and are
        // never dropped for silence.
        let timeout = self.core.config().worker_timeout;
        for conn in &mut self.conns {
            if !conn.closed && conn.unit.is_some() && conn.last_heard.elapsed() > timeout {
                eprintln!(
                    "coordinator: worker `{}` silent for {:.1?} mid-job; dropping it",
                    conn.name,
                    conn.last_heard.elapsed()
                );
                conn.closed = true;
            }
        }

        // A closed connection orphans its lease: release the unit so the
        // next idle worker picks it up at its last replicated
        // sub-checkpoint.
        for conn in &mut self.conns {
            if conn.closed {
                if let Some((job, target, lease)) = conn.unit.take() {
                    eprintln!(
                        "coordinator: worker `{}` lost mid-job; requeueing {job} unit t{target}",
                        conn.name
                    );
                    self.core.release_unit(&job, target, lease, None);
                    progress = true;
                }
            }
        }
        self.conns.retain(|c| !c.closed);

        // Lease reconciliation: every lease the core holds must be owned
        // by a live connection.  The closed-conn pass above covers the
        // common desync (a dead worker); this sweep self-heals the rest —
        // a worker that abandoned its grant without a frame the
        // coordinator kept, or a peer speaking an older protocol.  An
        // unowned lease would otherwise wedge its job forever: the core
        // never re-leases a unit that is not `Queued`, and no log line
        // would ever say why.
        let live: Vec<(String, u8, u64)> =
            self.conns.iter().filter_map(|c| c.unit.clone()).collect();
        for (job, target) in self.core.reconcile_leases(&live) {
            eprintln!("coordinator: {job} unit t{target} leased but unowned; requeueing it");
            progress = true;
        }

        progress |= self.forward_cancels();
        progress |= self.dispatch();

        for conn in &mut self.conns {
            progress |= Self::flush(conn);
        }
        progress
    }

    /// Read and handle every complete frame (JSON control line or binary
    /// transfer) of one connection.
    fn service_conn(core: &Arc<ServiceCore>, conn: &mut WorkerConn) -> bool {
        let (mut progress, closed) = conn.inbuf.read_available(&mut conn.stream);
        conn.closed |= closed;
        if progress {
            conn.last_heard = Instant::now();
        }
        while !conn.closed {
            match conn.inbuf.next_frame() {
                Ok(None) => break,
                Ok(Some(framing::WireFrame::Json(line))) => {
                    Self::handle_frame(core, conn, &line);
                    progress = true;
                }
                Ok(Some(framing::WireFrame::Binary(bytes))) => {
                    Self::handle_binary_frame(core, conn, &bytes);
                    progress = true;
                }
                Err(e) => {
                    eprintln!(
                        "coordinator: corrupt worker stream ({e}); dropping `{}`",
                        conn.name
                    );
                    conn.closed = true;
                    progress = true;
                }
            }
        }
        progress
    }

    /// Handle one worker frame.
    fn handle_frame(core: &Arc<ServiceCore>, conn: &mut WorkerConn, line: &str) {
        let frame = match parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                // A malformed frame means the peer is not speaking the
                // protocol (or the stream is corrupt): drop it; its unit is
                // released like any other disconnect.
                eprintln!("coordinator: malformed worker frame ({e}); dropping `{}`", conn.name);
                conn.closed = true;
                return;
            }
        };
        match framing::op(&frame) {
            Some("register") => {
                conn.name = frame
                    .get("worker")
                    .and_then(Json::as_str)
                    .unwrap_or("anonymous")
                    .to_string();
                conn.registered = true;
                conn.queue_line(&Json::obj().field("op", "registered"));
            }
            Some("lease") => conn.wants_work = true,
            // Any frame already refreshed `last_heard`; heartbeats exist
            // only to do that while a worker waits for a grant.
            Some("heartbeat") => {}
            // Checkpoint transfers are binary frames only (see the module
            // docs); a JSON one would otherwise sit on its lease until the
            // steal clock ran out.
            Some(op @ ("wave" | "unit_done" | "unit_cancelled")) => {
                eprintln!(
                    "coordinator: `{op}` sent as a JSON line, not a binary transfer; \
                     dropping `{}`",
                    conn.name
                );
                conn.closed = true;
            }
            Some("unit_failed") => {
                let Some((job, target, lease)) = framing::unit_fields(&frame) else { return };
                let error = frame
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("worker could not run the unit");
                core.fail_unit(&job, target, lease, error);
                conn.forget_unit(&job, target);
            }
            _ => {}
        }
    }

    /// Handle one binary worker frame — a `wave` / `unit_done` /
    /// `unit_cancelled` checkpoint transfer whose routing fields ride in
    /// the frame's meta section.  Control frames stay JSON in both
    /// directions, so any other binary frame is a protocol violation.
    fn handle_binary_frame(core: &Arc<ServiceCore>, conn: &mut WorkerConn, bytes: &[u8]) {
        let BinaryTransfer { transfer, meta } = match checkpoint_transfer_from_binary(bytes) {
            Ok(decoded) => decoded,
            Err(e) => {
                eprintln!(
                    "coordinator: undecodable binary transfer ({e}); dropping `{}`",
                    conn.name
                );
                conn.closed = true;
                return;
            }
        };
        let (Some(target), Some(lease)) = (
            meta.get("target").and_then(Json::as_u64).and_then(|t| u8::try_from(t).ok()),
            meta.get("lease").and_then(Json::as_u64),
        ) else {
            conn.closed = true;
            return;
        };
        let events = meta
            .get("events")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        match framing::op(&meta) {
            Some("wave") => Self::apply_wave(core, conn, target, lease, transfer, events),
            Some("unit_done") => Self::apply_unit_done(core, conn, target, lease, transfer, events),
            Some("unit_cancelled") => Self::apply_unit_cancelled(core, conn, target, lease, transfer),
            op => {
                eprintln!(
                    "coordinator: unexpected binary op {op:?}; dropping `{}`",
                    conn.name
                );
                conn.closed = true;
            }
        }
    }

    /// Replicate one wave sub-checkpoint (the heart of the failover and
    /// stealing story): validate the digest, spool the snapshot, publish
    /// events, answer the (JSON) ack.
    fn apply_wave(
        core: &Arc<ServiceCore>,
        conn: &mut WorkerConn,
        target: u8,
        lease: u64,
        transfer: CheckpointTransfer,
        events: Vec<Json>,
    ) {
        let job = transfer.job.as_str();
        let wave = transfer.checkpoint.wave;
        let mut accepted = false;
        let mut revoked = false;
        if !transfer.validates() {
            // Never spool a snapshot that lost state in transit: resuming
            // from it could silently change verdicts.  The unit still holds
            // its previous replicated checkpoint, which resumes correctly.
            eprintln!(
                "coordinator: checkpoint digest mismatch for {job} unit t{target} wave {wave} \
                 (rejected)"
            );
        } else {
            match core.save_unit_checkpoint(job, target, lease, transfer.checkpoint) {
                UnitDisposition::Accepted => {
                    core.publish(job, events);
                    conn.last_progress = Instant::now();
                    accepted = true;
                }
                UnitDisposition::Revoked => revoked = true,
                UnitDisposition::Ignored => {}
            }
        }
        if revoked {
            conn.forget_unit(job, target);
        }
        conn.queue_line(
            &Json::obj()
                .field("op", "ack")
                .field("job", job)
                .field("target", target)
                .field("wave", wave)
                .field("accepted", accepted)
                .field("revoked", revoked),
        );
    }

    /// A worker finished its unit: store the final sub-checkpoint (the
    /// unit's result — the core reconstructs the job report from it once
    /// every unit is done).
    fn apply_unit_done(
        core: &Arc<ServiceCore>,
        conn: &mut WorkerConn,
        target: u8,
        lease: u64,
        transfer: CheckpointTransfer,
        events: Vec<Json>,
    ) {
        let job = transfer.job.as_str();
        if !transfer.validates() {
            // A final snapshot that lost state in transit cannot be
            // accepted, and there is nothing older to fall back to for a
            // *finished* unit — drop the connection; the release path
            // requeues the unit from its last replicated checkpoint and
            // another worker re-runs the tail.
            eprintln!(
                "coordinator: final checkpoint digest mismatch for {job} unit t{target}; \
                 dropping `{}`",
                conn.name
            );
            conn.closed = true;
            return;
        }
        core.complete_unit(job, target, lease, transfer.checkpoint, events);
        conn.forget_unit(job, target);
    }

    /// Cooperative cancellation: the worker's stopping point rides along
    /// as a normal checkpoint transfer; keep it only if it validates.
    fn apply_unit_cancelled(
        core: &Arc<ServiceCore>,
        conn: &mut WorkerConn,
        target: u8,
        lease: u64,
        transfer: CheckpointTransfer,
    ) {
        let valid = transfer.validates();
        core.release_unit(&transfer.job, target, lease, valid.then_some(transfer.checkpoint));
        conn.forget_unit(&transfer.job, target);
    }

    /// Forward pending cancellations to every worker driving one of the
    /// job's units.
    fn forward_cancels(&mut self) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            let Some((job, _, _)) = conn.unit.clone() else { continue };
            if !conn.cancel_sent && self.core.cancel_requested(&job) {
                conn.queue_line(&Json::obj().field("op", "cancel").field("job", job.as_str()));
                conn.cancel_sent = true;
                progress = true;
            }
        }
        progress
    }

    /// Lease units (highest-priority job first) to workers that asked for
    /// work; when the queue is empty, steal from the slowest eligible
    /// owner instead.
    fn dispatch(&mut self) -> bool {
        let mut progress = false;
        for i in 0..self.conns.len() {
            {
                let conn = &self.conns[i];
                if !conn.registered || !conn.wants_work || conn.unit.is_some() || conn.closed {
                    continue;
                }
            }
            let worker = self.conns[i].name.clone();
            let grant = match self.core.lease_unit(&worker, None) {
                Some(grant) => Some(grant),
                None => self.steal_for(i).and_then(|()| self.core.lease_unit(&worker, None)),
            };
            let Some(grant) = grant else { continue };
            eprintln!(
                "coordinator: leased {} unit t{} to worker `{worker}`{}",
                grant.job,
                grant.target,
                match &grant.checkpoint {
                    Some(cp) => format!(" (resuming from wave {})", cp.wave),
                    None => String::new(),
                }
            );
            let conn = &mut self.conns[i];
            conn.outbuf.extend_from_slice(&grant_frame(&grant));
            conn.unit = Some((grant.job, grant.target, grant.lease));
            conn.wants_work = false;
            conn.cancel_sent = false;
            // The silence and steal clocks start at the grant — idle
            // workers' stale timestamps must not count against the unit.
            conn.last_heard = Instant::now();
            conn.last_progress = Instant::now();
            progress = true;
        }
        progress
    }

    /// Steal for idle worker `thief`: revoke the longest-stalled unit
    /// (no accepted checkpoint for `steal_after`) and requeue it.  Returns
    /// `Some(())` when something was freed for re-leasing.
    fn steal_for(&mut self, thief: usize) -> Option<()> {
        let steal_after = self.core.config().steal_after;
        let victim = self
            .conns
            .iter()
            .enumerate()
            .filter(|(j, c)| {
                *j != thief
                    && !c.closed
                    && c.unit.is_some()
                    && c.last_progress.elapsed() > steal_after
            })
            .max_by_key(|(_, c)| c.last_progress.elapsed())
            .map(|(j, _)| j)?;
        let conn = &mut self.conns[victim];
        let (job, target, lease) = conn.unit.take().expect("filtered on unit");
        eprintln!(
            "coordinator: stealing {job} unit t{target} from stalled worker `{}` \
             (no progress for {:.1?})",
            conn.name,
            conn.last_progress.elapsed()
        );
        conn.cancel_sent = false;
        // Tell the old owner its lease is void (best effort — the lease
        // token fences its frames either way).
        conn.queue_line(
            &Json::obj().field("op", "revoke").field("job", job.as_str()).field("target", target),
        );
        self.core.release_unit(&job, target, lease, None);
        Some(())
    }

    /// Flush as much queued output as the socket accepts.
    fn flush(conn: &mut WorkerConn) -> bool {
        let (progress, closed) = framing::flush(&mut conn.stream, &mut conn.outbuf);
        conn.closed |= closed;
        progress
    }

    /// Tell every connected worker to shut down (best effort): the
    /// reactor's exit path once the core stops.
    pub fn shutdown(mut self) {
        for conn in &mut self.conns {
            conn.queue_line(&Json::obj().field("op", "shutdown"));
            // The socket is non-blocking; a backed-up buffer would make
            // write_all bail on WouldBlock and silently drop the shutdown
            // frame, leaving workers to burn their whole reconnect-retry
            // window.  Switch to blocking with a short timeout so the
            // frame actually drains (bounded: this is best-effort).
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = conn.stream.write_all(&conn.outbuf);
        }
    }
}

/// The wire form of a lease grant: routing fields as a meta section, the
/// resume checkpoint — the bulky part — as a typed section.
fn grant_frame(grant: &UnitGrant) -> Vec<u8> {
    let meta = Json::obj()
        .field("op", "grant")
        .field("job", grant.job.as_str())
        .field("target", grant.target)
        .field("lease", grant.lease)
        .field("spec", grant.spec.to_json());
    let mut frame =
        binfmt::FrameBuilder::new(binfmt::KIND_GRANT).json_section(binfmt::TAG_META, &meta);
    if let Some(cp) = &grant.checkpoint {
        frame = frame.checkpoint_section(binfmt::TAG_CHECKPOINT, cp);
    }
    frame.build()
}
