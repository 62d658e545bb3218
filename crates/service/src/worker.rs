//! Workers: the drivers of leased work units.
//!
//! Every job is split into work units, one per target group of its
//! matrix, and every unit is driven the same way: lease it, resolve it
//! into its single-group sub-run (`JobSpec::unit_matrix`, resumed by
//! `start_unit`), then step that run wave by wave, replicating a
//! checkpoint and publishing the wave's events after every wave, until
//! the unit completes — or hand it back with its stopping checkpoint
//! when the job is cancelled or the service stops.  Two kinds of worker
//! do this:
//!
//! * **In-process workers** (`run_local`) are threads of the service
//!   itself (`ServiceConfig::shards` of them).  They call the core
//!   directly: no encoding, no digest, no ack round trip.
//! * **Fleet workers** ([`Worker`], `revizor-worker`) are separate hosts
//!   that reach the core through the coordinator's wire protocol, below.
//!
//! ## Fleet workers
//!
//! A worker (`revizor-worker`) dials the coordinator's worker port,
//! registers, and then pulls **work units** one at a time: it sends
//! `lease` (heartbeating while it waits), receives a binary `grant` frame
//! naming one target group of a job plus a lease token and an optional
//! sub-run checkpoint, resolves the job's [`JobSpec`] into the unit's
//! single-group [`CampaignMatrix`], and steps the resulting
//! [`MatrixRun`](revizor::orchestrator::MatrixRun) wave by wave.  After
//! every wave it streams the sub-checkpoint (plus digest, lease token and
//! progress events) to the coordinator as a binary transfer frame and
//! blocks for the JSON `ack` — so the coordinator's spool replica is
//! never more than one wave behind, and a worker that dies mid-unit loses
//! at most the wave it was computing.  When the unit's budget is
//! exhausted it ships the final checkpoint (`unit_done`) — the
//! coordinator reconstructs the cell reports from it — and leases again.
//!
//! An `ack` with `"revoked": true` (or a standalone `revoke` frame) means
//! the unit was stolen: the worker abandons it immediately and leases new
//! work.  Cancellation stays cooperative: a `cancel` frame is honored at
//! the next wave boundary, answered with a final `unit_cancelled` frame
//! carrying the stopping checkpoint.
//!
//! ## Fault injection (test-only)
//!
//! [`Worker::with_fault_hook`] installs a hook that fires at every wave
//! boundary with `(job id, wave index)` and decides a [`FaultAction`]:
//! continue, delay (models a slow host / delayed checkpoint ack), drop the
//! coordinator connection (models a network partition — the worker
//! reconnects and re-registers), or die (models a worker kill).  The chaos
//! harness (`tests/chaos.rs`) drives seeded schedules of these actions and
//! asserts the coordinator's final verdicts stay byte-identical through
//! all of them.  Production binaries never install a hook.
//!
//! [`CampaignMatrix`]: revizor::orchestrator::CampaignMatrix

use crate::core::{EventCollector, ServiceCore, UnitDisposition, UnitGrant};
use crate::framing;
use crate::job::JobSpec;
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint, MatrixRun};
use rvz_bench::binfmt::{self, checkpoint_transfer_to_binary};
use rvz_bench::json::{parse, Json};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long an idle in-process worker sleeps before re-checking the
/// queue when no state change wakes it.
const LOCAL_IDLE: Duration = Duration::from_millis(100);

/// The body of one in-process worker thread: lease a unit, drive it,
/// repeat, until the core stops.  In-process workers drain the same
/// global unit queue as fleet workers, so a job's units run on several
/// of them at once and priorities hold across all of them.
pub(crate) fn run_local(core: &ServiceCore, name: &str) {
    while !core.stopped() {
        if let Some(grant) = core.lease_unit(name, Some(LOCAL_IDLE)) {
            drive_local(core, grant);
        }
    }
}

/// Drive one leased unit in process: step, replicate and publish every
/// wave, complete it — or, at a wave boundary where its job was
/// cancelled or the service stopped, hand it back with its stopping
/// checkpoint (the cancelled job's record of where it stopped; the
/// stopped server's resume point).
pub(crate) fn drive_local(core: &ServiceCore, grant: UnitGrant) {
    let UnitGrant { job, target, lease, spec, checkpoint } = grant;
    let sub = match spec.unit_matrix(target) {
        Ok(sub) => sub,
        // Validated at submit; only a hand-edited spool reaches here.
        Err(e) => return core.fail_unit(&job, target, lease, &e),
    };
    let mut run = start_unit(&sub, &job, target, checkpoint.as_ref());
    let mut collector = EventCollector { job: job.clone(), events: Vec::new() };
    loop {
        if core.stopped() || core.cancel_requested(&job) {
            core.release_unit(&job, target, lease, Some(run.checkpoint()));
            return;
        }
        if !run.step(&mut collector) {
            break;
        }
        if core.save_unit_checkpoint(&job, target, lease, run.checkpoint())
            == UnitDisposition::Revoked
        {
            return; // the job went terminal behind our back
        }
        core.publish(&job, std::mem::take(&mut collector.events));
    }
    // The final checkpoint is the unit's result: the core reconstructs
    // the cell reports from it once every unit of the job is done.
    core.complete_unit(&job, target, lease, run.checkpoint(), collector.events);
}

/// Start a unit's sub-run at its granted checkpoint.  A checkpoint the
/// sub-matrix rejects (only a hand-edited spool or a codec bug produces
/// one) restarts the unit from scratch, which yields the same verdicts:
/// the sub-run's seeds depend on the spec alone.
fn start_unit<'m>(
    sub: &'m CampaignMatrix,
    job: &str,
    target: u8,
    checkpoint: Option<&MatrixCheckpoint>,
) -> MatrixRun<'m> {
    match checkpoint.map(|cp| sub.resume(cp)) {
        Some(Ok(run)) => run,
        Some(Err(e)) => {
            eprintln!("worker: {job} unit t{target}: stale checkpoint ({e}); restarting");
            sub.start()
        }
        None => sub.start(),
    }
}

/// What the fault hook tells the worker loop to do at a wave boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: keep going.
    Continue,
    /// Sleep before proceeding (a slow host; since waves are ack-gated,
    /// this is also what a delayed checkpoint ack looks like end-to-end).
    Delay(Duration),
    /// Drop the coordinator connection mid-unit, then reconnect and
    /// re-register.  The coordinator releases the abandoned unit to the
    /// next idle worker at its last replicated checkpoint.
    DropConnection,
    /// Terminate the worker loop for good (a worker-host kill).
    Die,
}

/// The fault hook signature: `(job id, wave index about to run)`.
pub type FaultHook = Box<dyn FnMut(&str, usize) -> FaultAction + Send>;

/// Configuration of one worker host.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator worker-port address (`host:port`).
    pub coordinator: String,
    /// The name this worker registers under (shows up in job status).
    pub name: String,
    /// How long to keep retrying a failed connect (initial *and*
    /// reconnect) before giving up.  Lets workers start before the
    /// coordinator and survive coordinator restarts.
    pub retry_for: Duration,
}

impl WorkerConfig {
    /// A worker config with a process-unique default name.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.into(),
            name: format!("worker-{}", std::process::id()),
            retry_for: Duration::from_secs(10),
        }
    }
}

/// How a unit ended, steering the outer connection loop.
enum Flow {
    /// Unit finished / abandoned cleanly: lease again on this connection.
    Continue,
    /// The connection is unusable (or a fault dropped it): reconnect.
    Reconnect,
    /// Shut down the worker loop.
    Exit,
}

/// One message read off the coordinator connection.
enum Msg {
    /// A JSON control frame (acks, revokes, cancels, shutdown).
    Json(Json),
    /// A parsed binary frame (a grant — the only binary frame the
    /// coordinator sends).
    Binary(binfmt::Frame),
}

/// A connection to the coordinator (JSON control lines + binary frames).
struct FrameConn {
    stream: TcpStream,
    buf: framing::InBuf,
}

impl FrameConn {
    /// Connect, retrying for up to `retry_for`.
    fn connect(addr: &str, retry_for: Duration) -> io::Result<FrameConn> {
        let deadline = Instant::now() + retry_for;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(FrameConn { stream, buf: framing::InBuf::default() }),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Send one JSON frame.
    fn send(&mut self, doc: &Json) -> io::Result<()> {
        let mut line = doc.render();
        line.push('\n');
        self.stream.write_all(line.as_bytes())
    }

    /// Pop the next complete message already buffered, if any.
    fn pop(&mut self) -> io::Result<Option<Msg>> {
        let popped =
            self.buf.next_frame().map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        match popped {
            None => Ok(None),
            Some(framing::WireFrame::Json(line)) => parse(&line)
                .map(|doc| Some(Msg::Json(doc)))
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e)),
            Some(framing::WireFrame::Binary(bytes)) => binfmt::parse_frame(&bytes)
                .map(|frame| Some(Msg::Binary(frame)))
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e)),
        }
    }

    /// Read one message, blocking until a full frame arrives.
    fn read_frame(&mut self) -> io::Result<Msg> {
        loop {
            if let Some(msg) = self.read_frame_for(Duration::from_secs(60))? {
                return Ok(msg);
            }
        }
    }

    /// Read one message, waiting at most about `wait`; `Ok(None)` on
    /// timeout (used by the lease loop to interleave heartbeats while
    /// idle).
    fn read_frame_for(&mut self, wait: Duration) -> io::Result<Option<Msg>> {
        let deadline = Instant::now() + wait;
        self.stream.set_read_timeout(Some(wait))?;
        let result = loop {
            match self.pop() {
                Ok(None) if Instant::now() < deadline => {}
                popped => break popped,
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_read_timeout(None)?;
        result
    }

    /// Read one message if one is already available, without blocking
    /// (used between waves to notice cancels and revokes promptly).
    fn try_read_frame(&mut self) -> io::Result<Option<Msg>> {
        if let Some(msg) = self.pop()? {
            return Ok(Some(msg));
        }
        // Nothing complete buffered: drain whatever the socket has.
        self.stream.set_nonblocking(true)?;
        let (_, closed) = self.buf.read_available(&mut self.stream);
        self.stream.set_nonblocking(false)?;
        if closed {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.pop()
    }
}

/// A worker host: connects to a coordinator and drives leased work units
/// (see the module docs).
pub struct Worker {
    config: WorkerConfig,
    hook: Option<FaultHook>,
}

impl Worker {
    /// A worker for the given configuration.
    pub fn new(config: WorkerConfig) -> Worker {
        Worker { config, hook: None }
    }

    /// Install a fault-injection hook (test-only; see the module docs).
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Worker {
        self.hook = Some(hook);
        self
    }

    /// Run the worker loop: connect (with retries), register, and pull
    /// leased units until the coordinator shuts it down, the retry window
    /// closes with the coordinator unreachable, or a `Die` fault fires.
    ///
    /// # Errors
    /// Returns the final connect error once the retry window closes.
    pub fn run(mut self) -> io::Result<()> {
        'reconnect: loop {
            let mut conn = FrameConn::connect(&self.config.coordinator, self.config.retry_for)?;
            let register = Json::obj()
                .field("op", "register")
                .field("worker", self.config.name.as_str());
            if conn.send(&register).is_err() {
                continue;
            }
            loop {
                // Ask for work, then wait for the grant, heartbeating so
                // the coordinator knows this idle connection is alive.
                if conn.send(&Json::obj().field("op", "lease")).is_err() {
                    continue 'reconnect;
                }
                let grant = loop {
                    match conn.read_frame_for(Duration::from_millis(250)) {
                        // Besides `shutdown`, control frames here are
                        // `registered` acks and stragglers for units this
                        // worker no longer holds (stale acks, revokes,
                        // cancels), which need no action.
                        Ok(Some(Msg::Json(frame))) => {
                            if framing::op(&frame) == Some("shutdown") {
                                return Ok(());
                            }
                        }
                        Ok(Some(Msg::Binary(frame))) if frame.kind == binfmt::KIND_GRANT => {
                            break frame;
                        }
                        // Other binary kinds are never coordinator→worker.
                        Ok(Some(Msg::Binary(_))) => {}
                        Ok(None) => {
                            if conn.send(&Json::obj().field("op", "heartbeat")).is_err() {
                                continue 'reconnect;
                            }
                        }
                        Err(_) => continue 'reconnect,
                    }
                };
                match self.run_unit(&mut conn, &grant) {
                    Flow::Continue => {}
                    Flow::Reconnect => continue 'reconnect,
                    Flow::Exit => return Ok(()),
                }
            }
        }
    }

    /// Drive one granted unit: step its single-group sub-run, replicate,
    /// ack-gate, honor cancels, revokes and injected faults.  The grant
    /// frame's checkpoint section is decoded here, so a decode failure
    /// reports `unit_failed` like any other unrunnable unit.
    fn run_unit(&mut self, conn: &mut FrameConn, grant: &binfmt::Frame) -> Flow {
        // A grant whose meta does not decode is a protocol bug; resync on
        // a fresh connection.
        let Ok(meta) = grant.json_section(binfmt::TAG_META, "grant meta") else {
            return Flow::Reconnect;
        };
        let Some((job, target, lease)) = framing::unit_fields(&meta) else {
            return Flow::Continue;
        };
        let fail = |conn: &mut FrameConn, error: &str| {
            Self::report_bad_unit(conn, &job, target, lease, error)
        };
        let spec = match meta.get("spec") {
            None => return fail(conn, "grant carries no spec"),
            Some(s) => match JobSpec::from_json(s) {
                Ok(spec) => spec,
                Err(e) => return fail(conn, &e),
            },
        };
        let checkpoint = match grant.section(binfmt::TAG_CHECKPOINT) {
            None => None,
            Some(_) => match grant.checkpoint_section(binfmt::TAG_CHECKPOINT, "checkpoint") {
                Ok(cp) => Some(cp),
                Err(e) => return fail(conn, &e),
            },
        };
        let sub = match spec.unit_matrix(target) {
            Ok(sub) => sub,
            Err(e) => return fail(conn, &e),
        };
        let mut run = start_unit(&sub, &job, target, checkpoint.as_ref());

        let mut collector = EventCollector { job: job.clone(), events: Vec::new() };
        let mut cancelled = false;
        loop {
            match self.fault(&job, run.wave()) {
                FaultAction::Continue => {}
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::DropConnection => return Flow::Reconnect,
                FaultAction::Die => return Flow::Exit,
            }
            // Notice cancels and revokes that arrived since the last ack.
            loop {
                match conn.try_read_frame() {
                    Ok(None) => break,
                    Ok(Some(Msg::Json(f))) => {
                        if Self::is_revoke(&f, &job, target) {
                            return Flow::Continue; // stolen: abandon now
                        }
                        Self::note_cancel(&f, &job, &mut cancelled);
                    }
                    // Binary frames mid-unit target some other lease.
                    Ok(Some(Msg::Binary(_))) => {}
                    Err(_) => return Flow::Reconnect,
                }
            }
            if cancelled {
                let stop = Self::transfer_frame(
                    &job,
                    &run.checkpoint(),
                    "unit_cancelled",
                    target,
                    lease,
                    None,
                );
                return match conn.stream.write_all(&stop) {
                    Ok(()) => Flow::Continue,
                    Err(_) => Flow::Reconnect,
                };
            }
            let more = run.step(&mut collector);
            if !more {
                break;
            }
            // Replicate the wave and block for the coordinator's ack (the
            // spool replica stays at most one wave behind).
            let wave = run.wave();
            let transfer = Self::transfer_frame(
                &job,
                &run.checkpoint(),
                "wave",
                target,
                lease,
                Some(std::mem::take(&mut collector.events)),
            );
            if conn.stream.write_all(&transfer).is_err() {
                return Flow::Reconnect;
            }
            loop {
                let reply = match conn.read_frame() {
                    Ok(Msg::Json(reply)) => reply,
                    // Binary frames are grants; none can target this unit.
                    Ok(Msg::Binary(_)) => continue,
                    Err(_) => return Flow::Reconnect,
                };
                match framing::op(&reply) {
                    Some("ack")
                        if reply.get("job").and_then(Json::as_str) == Some(job.as_str())
                            && reply.get("target").and_then(Json::as_u64)
                                == Some(u64::from(target))
                            && reply.get("wave").and_then(Json::as_u64)
                                == Some(wave as u64) =>
                    {
                        if reply.get("revoked").and_then(Json::as_bool) == Some(true) {
                            return Flow::Continue; // stolen: abandon now
                        }
                        break;
                    }
                    Some("shutdown") => return Flow::Exit,
                    _ => {
                        if Self::is_revoke(&reply, &job, target) {
                            return Flow::Continue;
                        }
                        Self::note_cancel(&reply, &job, &mut cancelled);
                    }
                }
            }
        }
        // Budget exhausted: the final checkpoint IS the unit's result —
        // the coordinator resumes it with zero steps to reconstruct the
        // exact cell reports, so no report is computed (or shipped) here.
        let done = Self::transfer_frame(
            &job,
            &run.checkpoint(),
            "unit_done",
            target,
            lease,
            Some(std::mem::take(&mut collector.events)),
        );
        match conn.stream.write_all(&done) {
            Ok(()) => Flow::Continue,
            Err(_) => Flow::Reconnect,
        }
    }

    /// Encode one checkpoint transfer (`wave` / `unit_done` /
    /// `unit_cancelled`) as a binary frame, ready to write.
    fn transfer_frame(
        job: &str,
        cp: &MatrixCheckpoint,
        op: &str,
        target: u8,
        lease: u64,
        events: Option<Vec<Json>>,
    ) -> Vec<u8> {
        let mut meta = Json::obj().field("op", op).field("target", target).field("lease", lease);
        if let Some(events) = events {
            meta = meta.field("events", Json::Arr(events));
        }
        checkpoint_transfer_to_binary(job, cp, &meta)
    }

    /// Is this frame a revoke for the unit this worker is driving?
    fn is_revoke(frame: &Json, job: &str, target: u8) -> bool {
        framing::op(frame) == Some("revoke")
            && frame.get("job").and_then(Json::as_str) == Some(job)
            && frame.get("target").and_then(Json::as_u64) == Some(u64::from(target))
    }

    /// Record a cancel frame for the current job.
    fn note_cancel(frame: &Json, job: &str, cancelled: &mut bool) {
        if framing::op(frame) == Some("cancel")
            && frame.get("job").and_then(Json::as_str) == Some(job)
        {
            *cancelled = true;
        }
    }

    /// Consult the fault hook (production workers always continue).
    fn fault(&mut self, job: &str, wave: usize) -> FaultAction {
        match &mut self.hook {
            Some(hook) => hook(job, wave),
            None => FaultAction::Continue,
        }
    }

    /// A unit this worker cannot run (undecodable spec or checkpoint —
    /// only a hand-edited spool can produce one): report it so the job
    /// fails visibly instead of bouncing between workers forever.
    fn report_bad_unit(
        conn: &mut FrameConn,
        job: &str,
        target: u8,
        lease: u64,
        error: &str,
    ) -> Flow {
        let failed = Json::obj()
            .field("op", "unit_failed")
            .field("job", job)
            .field("target", target)
            .field("lease", lease)
            .field("error", error);
        match conn.send(&failed) {
            Ok(()) => Flow::Continue,
            Err(_) => Flow::Reconnect,
        }
    }
}
