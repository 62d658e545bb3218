//! The service core: job table, unit queue and event fan-out.
//!
//! The core is transport-agnostic — the TCP front-end ([`crate::server`]),
//! the fleet port ([`crate::coordinator`]) and the in-process
//! [`ServiceHandle`](crate::ServiceHandle) all drive this API.  Every job
//! is split at submit into its **work units**, one per target group of
//! its matrix, and a job's durable state is exactly those units: each
//! carries the sub-run checkpoint its last owner replicated.  Units drain
//! through **one global queue** (highest priority first, FIFO within a
//! priority — never inverted by placement), leased by whichever worker
//! is idle: an in-process worker thread ([`crate::worker`]) calling the
//! core directly, or a fleet worker host through the coordinator.  Both
//! kinds step a unit as an incremental
//! [`MatrixRun`](revizor::orchestrator::MatrixRun), replicate a
//! checkpoint to the core (and the spool) after every wave and publish
//! progress events to the job's event log.  Subscribers (watchers) replay
//! that log from any cursor, so late subscribers see the full history and
//! event delivery can never perturb verdicts.

use crate::job::JobSpec;
use crate::spool::{JobPhase, Spool, SpoolRecord, UnitPhase, UnitRecord};
use revizor::campaign::{CellEvent, ProgressObserver, RoundEvent};
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint, MatrixReport};
use rvz_bench::json::Json;
use rvz_bench::report::{matrix_cells_json, matrix_timing_json};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Configuration of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of in-process worker threads.  Each leases one work unit at
    /// a time from the **one** global unit queue — highest priority
    /// first, FIFO within a priority — exactly like a fleet worker host.
    /// Ignored in fleet mode ([`ServiceConfig::worker_listen`]), which
    /// runs no in-process workers.
    pub shards: usize,
    /// Spool directory for durable job state; `None` keeps everything in
    /// memory (jobs are lost when the process exits).
    pub spool: Option<PathBuf>,
    /// Keep at most this many terminal (done / cancelled) job records in
    /// the spool; `None` keeps all of them.  A long-lived server otherwise
    /// accretes one record per finished job forever (see
    /// [`crate::spool::Spool::with_retain`]).
    pub spool_retain: Option<usize>,
    /// TCP listen address for the JSON-lines front-end (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port); `None` runs in-process only.
    pub listen: Option<String>,
    /// Fleet mode: TCP listen address for **worker hosts**
    /// (`revizor-worker`).  When set, the service runs as a *coordinator*:
    /// no in-process workers are spawned, and units are leased to
    /// connected workers instead (see [`crate::coordinator`]).
    pub worker_listen: Option<String>,
    /// Fleet mode: how long a worker driving a work unit may go
    /// without sending any frame before the coordinator declares it
    /// silently partitioned — the connection is dropped and its units
    /// requeued from their last replicated sub-checkpoints.  Workers
    /// produce at least one frame per wave, so set this well above the
    /// longest expected wave; a spurious trip is *safe* (resume is
    /// byte-identical), it only wastes the stalled worker's wave.  Idle
    /// (leaseless) workers are exempt.
    pub worker_timeout: Duration,
    /// Fleet mode: how long a leased unit may go without an *accepted*
    /// checkpoint before an idle worker is allowed to steal it.  The
    /// original owner's lease is revoked and the unit resumes on the
    /// thief from the last replicated sub-checkpoint; the owner's
    /// now-stale frames are fenced by the lease token, so a slow host
    /// racing its own thief can never corrupt state (verdicts are
    /// byte-identical either way).
    pub steal_after: Duration,
    /// Backpressure watermark: [`ServiceCore::try_submit`] defers new jobs
    /// (with a retry-after hint) while the queued work-unit count is at or
    /// above this.  Leased units do not count — they are being worked.
    pub queue_watermark: usize,
    /// Indexed violation store directory (see [`rvz_store::Store`]): every
    /// finished job's violation cells are appended to it, deduplicated by
    /// minimized-gadget equivalence and queryable with `revizor-query`.
    /// `None` disables indexing.  Store writes happen *after* the result is
    /// computed and never touch it, so indexing can never perturb verdicts.
    pub store: Option<PathBuf>,
    /// Token-auth file for the client front-end: one `<token> <tenant>`
    /// pair per line (`#` comments and blank lines ignored).  When set,
    /// every client op except `ping` requires a valid token, submitted
    /// jobs are stamped with the token's tenant, and `list`/`status`
    /// (and every other job-addressed op) are scoped to that tenant.
    /// `None` runs the front-end open, exactly as before.
    pub token_file: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            spool: None,
            spool_retain: None,
            listen: None,
            worker_listen: None,
            worker_timeout: Duration::from_secs(120),
            steal_after: Duration::from_secs(30),
            queue_watermark: 1024,
            store: None,
            token_file: None,
        }
    }
}

/// One relocatable work unit: one target group of its job's matrix,
/// independently leasable, steppable and stealable.
struct UnitState {
    /// The Table 2 target id whose cell group this unit drives.
    target: u8,
    phase: UnitPhase,
    /// The worker currently holding the lease.
    worker: Option<String>,
    /// Current lease token.  Minted fresh on every lease; every unit frame
    /// must quote it, so a stolen/released lease fences the old owner's
    /// in-flight frames (`0` = never leased).
    lease: u64,
    /// Last replicated sub-run checkpoint (the final one once `Done`).
    checkpoint: Option<MatrixCheckpoint>,
}

impl UnitState {
    /// A unit loaded from the spool.  It comes back leaseless (its owner
    /// died with the server; the spool already demoted `Leased` to
    /// `Queued`) with the lease counter reset — tokens only fence frames
    /// within one server lifetime.
    fn restored(record: UnitRecord) -> UnitState {
        UnitState {
            target: record.target,
            phase: record.phase,
            worker: None,
            lease: 0,
            checkpoint: record.checkpoint,
        }
    }
}

/// A fresh job's work units: one queued unit per target group of the
/// job's resolved matrix, named by the groups of its
/// [`initial_checkpoint`](CampaignMatrix::initial_checkpoint) — the order
/// [`CampaignMatrix::group_matrices`] splits the matrix in and
/// [`CampaignMatrix::merge_checkpoints`] expects the units' checkpoints
/// back in.
fn fresh_units(matrix: &CampaignMatrix) -> Vec<UnitState> {
    matrix
        .initial_checkpoint()
        .groups
        .iter()
        .map(|group| UnitState {
            target: group.target_id,
            phase: UnitPhase::Queued,
            worker: None,
            lease: 0,
            checkpoint: None,
        })
        .collect()
}

/// One job's in-memory state.
struct JobEntry {
    spec: JobSpec,
    phase: JobPhase,
    /// Append-only event log; watchers replay it by cursor.
    events: Vec<Json>,
    /// The job's work units, one per target group, split out at submit.
    /// Their checkpoints are the job's whole durable progress.
    units: Vec<UnitState>,
    result: Option<Json>,
    /// A client asked for cancellation while a unit of the job was
    /// leased; its driver honors it at the next wave boundary.
    cancel_requested: bool,
    /// The worker that most recently leased part of the job (per-unit
    /// placement lives in `units`).
    worker: Option<String>,
    /// Bumped (under the core lock) every time a durable record of this
    /// job is built; persists are ordered by it so a stale record built
    /// just before a newer one can never overwrite it on disk.
    record_version: u64,
}

impl JobEntry {
    /// Units waiting for a lease.
    fn queued_units(&self) -> usize {
        self.units.iter().filter(|u| u.phase == UnitPhase::Queued).count()
    }

    /// Is any unit currently leased to a worker?
    fn leased(&self) -> bool {
        self.units.iter().any(|u| u.phase == UnitPhase::Leased)
    }

    /// The leased unit `(target, lease)` names, if that lease is current
    /// and the job is still live.
    fn leased_unit(&mut self, target: u8, lease: u64) -> Option<&mut UnitState> {
        if self.phase.terminal() {
            return None;
        }
        self.units
            .iter_mut()
            .find(|u| u.target == target && u.lease == lease && u.phase == UnitPhase::Leased)
    }
}

/// Everything behind the core's one lock.
struct CoreState {
    jobs: BTreeMap<String, JobEntry>,
    /// Submission order (the lease scan walks it; FIFO tie-break).
    order: Vec<String>,
    /// Units in [`UnitPhase::Queued`] across all non-terminal jobs —
    /// maintained where units are created, leased or released and where
    /// a job goes terminal, so the idle paths (the coordinator polls for
    /// work every 2ms, in-process workers wake on every state change)
    /// skip the O(all jobs ever) lease scan when nothing is queued, and
    /// backpressure reads the backlog without a scan.
    queued_units: usize,
}

/// Per-unit placement of a job, for `status` responses.
#[derive(Debug, Clone)]
pub struct UnitStatus {
    /// The Table 2 target id whose cell group this unit drives.
    pub target: u8,
    /// Unit lifecycle phase.
    pub phase: UnitPhase,
    /// The worker currently holding the lease, if any.
    pub worker: Option<String>,
    /// Last replicated sub-run wave (0 before the first checkpoint).
    pub wave: usize,
}

/// A summary of one job, for `status` / `list` responses.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job identifier.
    pub job: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Scheduling priority (higher drains first).
    pub priority: i64,
    /// The worker that most recently leased part of the job (see `units`
    /// for per-unit placement).
    pub worker: Option<String>,
    /// Number of matrix cells.
    pub cells: usize,
    /// Cells already finished (violation found; budget-exhausted cells
    /// close only when the whole job does).
    pub cells_finished: usize,
    /// Events published so far.
    pub events: usize,
    /// Per-unit placement, one entry per target group.
    pub units: Vec<UnitStatus>,
    /// Owning tenant (token-auth mode; see [`crate::job::JobSpec::tenant`]).
    /// `None` for tenantless jobs, which every client may see.
    pub tenant: Option<String>,
}

impl JobStatus {
    /// The wire form of the summary.  The tenant field is emitted only
    /// when set, keeping open-mode responses in their pre-auth shape.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .field("job", self.job.as_str())
            .field("state", self.phase.label());
        if let Some(tenant) = &self.tenant {
            doc = doc.field("tenant", tenant.as_str());
        }
        let mut doc = doc
            .field("priority", rvz_bench::report::i64_to_json(self.priority))
            .field("worker", self.worker.as_deref())
            .field("cells", self.cells)
            .field("cells_finished", self.cells_finished)
            .field("events", self.events);
        if !self.units.is_empty() {
            doc = doc.field(
                "units",
                Json::Arr(
                    self.units
                        .iter()
                        .map(|u| {
                            Json::obj()
                                .field("target", u.target)
                                .field("state", u.phase.label())
                                .field("worker", u.worker.as_deref())
                                .field("wave", u.wave)
                        })
                        .collect(),
                ),
            );
        }
        doc
    }
}

/// The backpressure hint attached to a deferred submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backpressure {
    /// Work units queued (not leased) across all live jobs at the time of
    /// the submission attempt.
    pub queued_units: usize,
    /// The configured watermark the count reached.
    pub watermark: usize,
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
}

/// Why [`ServiceCore::try_submit`] did not accept a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The spec does not resolve (unknown target/contract).
    Invalid(String),
    /// The unit queue is at the watermark: retry later.
    Backpressure(Backpressure),
}

/// A leased work unit, as handed to its worker: the unit's identity
/// (job + target + lease token), the job spec the worker resolves, and
/// the sub-run checkpoint to resume from.
pub(crate) struct UnitGrant {
    pub(crate) job: String,
    pub(crate) target: u8,
    pub(crate) lease: u64,
    pub(crate) spec: JobSpec,
    pub(crate) checkpoint: Option<MatrixCheckpoint>,
}

/// How the core disposed of a unit-scoped worker frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitDisposition {
    /// Stored/processed.
    Accepted,
    /// The quoted lease is no longer current (stolen, released, or the
    /// job went terminal): the sender must abandon the unit.
    Revoked,
    /// Valid lease but the frame is unacceptable (e.g. a wave replay);
    /// nothing was stored.
    Ignored,
}

/// A durable record built under the core lock, with its version, ready to
/// persist once the lock is released (`None` without a spool).
type PendingRecord = Option<(SpoolRecord, u64)>;

/// The transport-agnostic service core (see the module docs).
pub struct ServiceCore {
    config: ServiceConfig,
    spool: Option<Spool>,
    /// Indexed violation store ([`ServiceConfig::store`]); written after a
    /// job's result is computed, off the verdict path.
    store: Option<rvz_store::Store>,
    /// Parsed [`ServiceConfig::token_file`]: token → tenant.  `None` runs
    /// the client front-end open (no auth).
    auth: Option<BTreeMap<String, String>>,
    state: Mutex<CoreState>,
    /// Notified on every state change: submissions and released units
    /// (wake idle in-process workers), events and completions (wake
    /// watchers / waiters).
    changed: Condvar,
    stop: AtomicBool,
    counter: AtomicU64,
    /// Lease tokens, minted fresh per lease.  Process-global so a token
    /// can never repeat across jobs or steals — a stale frame quoting an
    /// old token is always detectably stale.
    lease_counter: AtomicU64,
    /// Global event sequence: every published event is stamped with a
    /// strictly increasing `seq`, so cross-job scheduling order (e.g.
    /// "the high-priority job started first") is observable from the logs.
    event_seq: AtomicU64,
    /// Per-job persist locks carrying the highest
    /// [`JobEntry::record_version`] written to the spool (see
    /// [`ServiceCore::persist`]).  Per job, not global: only same-job
    /// writes need ordering, and a single lock across file I/O would
    /// serialize every job's checkpoints behind each other.
    persisted: Mutex<BTreeMap<String, Arc<Mutex<u64>>>>,
}

impl ServiceCore {
    /// Create a core, loading (and re-queuing) any unfinished jobs from the
    /// spool.
    ///
    /// # Errors
    /// Propagates spool-directory creation failures.
    pub fn new(config: ServiceConfig) -> io::Result<Arc<ServiceCore>> {
        let spool = match &config.spool {
            Some(dir) => Some(Spool::open(dir)?.with_retain(config.spool_retain)),
            None => None,
        };
        let store = match &config.store {
            Some(dir) => Some(rvz_store::Store::open(dir)?),
            None => None,
        };
        let auth = match &config.token_file {
            Some(path) => Some(load_tokens(path)?),
            None => None,
        };
        let mut state = CoreState { jobs: BTreeMap::new(), order: Vec::new(), queued_units: 0 };
        let mut next_counter = 1u64;
        if let Some(spool) = &spool {
            let mut records = spool.load_all();
            // The directory scan is lexicographic, which is digest order,
            // not submission order (ids are `j<digest>-<counter hex>`, and
            // the unpadded hex counter itself misorders across widths).
            // Re-sort by the counter — it increases per submission — so
            // the restored `order` preserves the FIFO-within-priority
            // lease guarantee and the event `seq` re-stamp below really is
            // submission order.  Ids without a parseable counter sort
            // first, by name.
            records.sort_by_key(|r| (id_counter(&r.job), r.job.clone()));
            for record in records {
                // Job ids end in `-<counter hex>`; keep allocating above the
                // highest loaded one so a restarted server can never reuse
                // (and overwrite) an existing job's id.
                if let Some(n) = id_counter(&record.job) {
                    next_counter = next_counter.max(n + 1);
                }
                let events = restored_events(&record);
                // A record without units carries no progress the service
                // can resume: its job starts over as fresh units, which
                // yields the same verdicts.  A spec that no longer resolves
                // gets no units, so its live job is finalized below — with
                // the resolution error as its result.
                let units = match record.units {
                    Some(units) => units.into_iter().map(UnitState::restored).collect(),
                    None => record.spec.to_matrix().map(|m| fresh_units(&m)).unwrap_or_default(),
                };
                let entry = JobEntry {
                    spec: record.spec,
                    phase: record.phase,
                    events,
                    units,
                    result: record.result,
                    cancel_requested: record.cancel_requested,
                    worker: None,
                    record_version: 0,
                };
                if !entry.phase.terminal() {
                    state.queued_units += entry.queued_units();
                }
                state.order.push(record.job.clone());
                state.jobs.insert(record.job, entry);
            }
        }
        // Restored event logs are re-stamped from 0 in submission order.
        let mut seq = 0u64;
        for job in &state.order {
            if let Some(entry) = state.jobs.get_mut(job) {
                for event in &mut entry.events {
                    *event = std::mem::replace(event, Json::Null).field("seq", seq);
                    seq += 1;
                }
            }
        }
        let core = Arc::new(ServiceCore {
            config,
            spool,
            store,
            auth,
            state: Mutex::new(state),
            changed: Condvar::new(),
            stop: AtomicBool::new(false),
            counter: AtomicU64::new(next_counter),
            lease_counter: AtomicU64::new(1),
            event_seq: AtomicU64::new(seq),
            persisted: Mutex::new(BTreeMap::new()),
        });
        // A restored job whose cancel arrived just before the previous
        // server died comes back as Queued + cancel_requested; honor the
        // cancellation now instead of re-running (or stranding) the job.
        // A job restored with every unit already Done died between its
        // last unit finishing and the result persisting; nothing will ever
        // lease it again, so reconstruct and complete it now.
        let (pending_cancels, pending_done): (Vec<String>, Vec<String>) = {
            let state = core.lock();
            let live = || state.jobs.iter().filter(|(_, e)| !e.phase.terminal());
            (
                live().filter(|(_, e)| e.cancel_requested).map(|(job, _)| job.clone()).collect(),
                live()
                    .filter(|(_, e)| e.units.iter().all(|u| u.phase == UnitPhase::Done))
                    .map(|(job, _)| job.clone())
                    .collect(),
            )
        };
        for job in pending_cancels {
            core.finish_cancelled(&job);
        }
        for job in pending_done {
            core.finalize_units(&job);
        }
        Ok(core)
    }

    /// The core lock.
    fn lock(&self) -> MutexGuard<'_, CoreState> {
        self.state.lock().expect("core lock")
    }

    /// The instance configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Has [`ServiceCore::stop`] been requested?
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Ask workers (and the front-end) to stop.  In-process workers hand
    /// their units back at the next wave boundary, with a checkpoint, and
    /// exit; unfinished jobs stay resumable in the spool.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.lock();
        self.changed.notify_all();
    }

    /// Submit a job.  The spec is validated (targets/contracts must
    /// resolve) and persisted before the job id is returned.  Never
    /// backpressured — admin/in-process submissions bypass the watermark;
    /// clients racing fleet capacity go through
    /// [`ServiceCore::try_submit`].
    ///
    /// # Errors
    /// Returns a message for invalid specs.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        // Resolve eagerly so a bad spec fails at the submission boundary,
        // not inside a worker.
        let matrix = spec.to_matrix()?;
        Ok(self.accept_submission(spec, &matrix))
    }

    /// Submit a job, honoring the backpressure watermark: while the queued
    /// (not leased) work-unit count across live jobs is at or above
    /// [`ServiceConfig::queue_watermark`], the submission is deferred with
    /// a retry-after hint instead of queueing unbounded work.
    ///
    /// # Errors
    /// [`SubmitRejection::Invalid`] for bad specs,
    /// [`SubmitRejection::Backpressure`] for a full queue.
    pub fn try_submit(&self, spec: JobSpec) -> Result<String, SubmitRejection> {
        let matrix = spec.to_matrix().map_err(SubmitRejection::Invalid)?;
        let queued_units = self.lock().queued_units;
        let watermark = self.config.queue_watermark.max(1);
        if queued_units >= watermark {
            // The hint scales with the overshoot (capped at a minute):
            // deeper queues take longer to drain, and a fixed hint would
            // make every deferred client retry in lockstep.
            let overshoot = (queued_units - watermark + 1).min(240);
            return Err(SubmitRejection::Backpressure(Backpressure {
                queued_units,
                watermark,
                retry_after: Duration::from_millis(250 * overshoot as u64),
            }));
        }
        Ok(self.accept_submission(spec, &matrix))
    }

    /// Queue a spec resolved into `matrix`: mint the id, split it into
    /// units, persist, insert.
    fn accept_submission(&self, spec: JobSpec, matrix: &CampaignMatrix) -> String {
        let digest = fnv(spec.to_json().render().as_bytes());
        let job = loop {
            // The counter is process-unique and seeded above every id
            // loaded from the spool, so collisions are only possible with
            // hand-named spool files — skip over those too.
            let job = format!("j{digest:x}-{:x}", self.counter.fetch_add(1, Ordering::SeqCst));
            if !self.lock().jobs.contains_key(&job) {
                break job;
            }
        };
        let units = fresh_units(matrix);
        let vacuous = units.is_empty();
        let mut entry = JobEntry {
            spec,
            phase: JobPhase::Queued,
            events: Vec::new(),
            units,
            result: None,
            cancel_requested: false,
            worker: None,
            record_version: 0,
        };
        let record = self.record_of(&job, &mut entry);
        self.persist(record);
        {
            let mut state = self.lock();
            state.order.push(job.clone());
            state.queued_units += entry.units.len();
            state.jobs.insert(job.clone(), entry);
            self.changed.notify_all();
        }
        // A cell-less spec splits into zero units: nothing will ever
        // lease it, so it completes (vacuously) right away.
        if vacuous {
            self.finalize_units(&job);
        }
        job
    }

    /// A summary of one job, if known.
    pub fn status(&self, job: &str) -> Option<JobStatus> {
        self.lock().jobs.get(job).map(|e| summarize(job, e))
    }

    /// Summaries of all jobs, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.lock();
        state
            .order
            .iter()
            .filter_map(|job| state.jobs.get(job).map(|e| summarize(job, e)))
            .collect()
    }

    /// The result payload of a finished job.  `None` = unknown job,
    /// `Some(None)` = known but not finished.
    #[allow(clippy::option_option)]
    pub fn result(&self, job: &str) -> Option<Option<Json>> {
        self.lock().jobs.get(job).map(|e| e.result.clone())
    }

    /// Events `from..` of a job's log (empty when none are new).  `None`
    /// for unknown jobs.
    pub fn events_from(&self, job: &str, from: usize) -> Option<Vec<Json>> {
        self.lock().jobs.get(job).map(|e| e.events.get(from..).unwrap_or_default().to_vec())
    }

    /// Block until the job finishes (or the core stops); returns its result
    /// payload.
    ///
    /// # Errors
    /// Returns a message for unknown jobs or when the core stops first.
    pub fn wait(&self, job: &str) -> Result<Json, String> {
        let mut state = self.lock();
        loop {
            match state.jobs.get(job) {
                None => return Err(format!("unknown job `{job}`")),
                Some(e) => {
                    if let Some(result) = &e.result {
                        return Ok(result.clone());
                    }
                }
            }
            if self.stopped() {
                return Err("service stopped before the job finished".to_string());
            }
            let (next, _) = self
                .changed
                .wait_timeout(state, Duration::from_millis(200))
                .expect("core lock");
            state = next;
        }
    }

    /// Build the durable record of a job, stamped with the next record
    /// version (callers persist it *outside* the core lock — unit
    /// checkpoints carry whole violation reports, and file I/O under the
    /// lock would stall every client-facing call).  `None` without a
    /// spool, so memory-only services never copy checkpoints for it.
    fn record_of(&self, job: &str, entry: &mut JobEntry) -> PendingRecord {
        self.spool.as_ref()?;
        entry.record_version += 1;
        let record = SpoolRecord {
            job: job.to_string(),
            spec: entry.spec.clone(),
            phase: entry.phase,
            checkpoint: None,
            units: Some(
                entry
                    .units
                    .iter()
                    .map(|u| UnitRecord {
                        target: u.target,
                        phase: u.phase,
                        checkpoint: u.checkpoint.clone(),
                    })
                    .collect(),
            ),
            result: entry.result.clone(),
            cancel_requested: entry.cancel_requested,
        };
        Some((record, entry.record_version))
    }

    /// Write one record to the spool (core lock NOT held).  Writes are
    /// ordered by record version: two threads can build records for the
    /// same job back to back under the core lock and then race to the
    /// file, and without the ordering the stale one could win the rename
    /// and roll back durable state (e.g. a freshly persisted
    /// `cancel_requested` flag, which must survive a server kill).
    fn persist(&self, record: PendingRecord) {
        let (Some(spool), Some((record, version))) = (&self.spool, record) else { return };
        // The map lock is held only to fetch the job's own lock; the file
        // write happens under the *per-job* lock, so unrelated jobs (and
        // submit() on the reactor thread) never wait on each other's I/O.
        let job_lock = {
            let mut persisted = self.persisted.lock().expect("persist map lock");
            Arc::clone(persisted.entry(record.job.clone()).or_default())
        };
        let mut last = job_lock.lock().expect("persist job lock");
        if version <= *last {
            return; // a newer record already reached the disk
        }
        *last = version;
        if let Err(e) = spool.save(&record) {
            eprintln!("spool: failed to persist job {}: {e}", record.job);
        }
    }

    /// Lease the best queued work unit to `worker`: a queued unit of the
    /// highest-priority job that has one, FIFO within a priority — the
    /// **one global queue** every idle worker (in-process thread or fleet
    /// host) drains, so the priority guarantee is never inverted by
    /// placement.  Mints a fresh lease token; every frame the worker
    /// sends for the unit must quote it.  With `idle` set (in-process
    /// workers), a lease that finds nothing waits up to `idle` for the
    /// next state change before returning `None`; the scan and the wait
    /// share one lock acquisition, so a submission can never slip in
    /// between unseen.
    pub(crate) fn lease_unit(&self, worker: &str, idle: Option<Duration>) -> Option<UnitGrant> {
        let mut state = self.lock();
        let mut cancelled: Vec<String> = Vec::new();
        let mut best: Option<(&String, i64)> = None;
        // Nothing queued: skip the scan of the full job history.
        if state.queued_units > 0 {
            for job in &state.order {
                let Some(e) = state.jobs.get(job) else { continue };
                if e.phase.terminal() || !e.units.iter().any(|u| u.phase == UnitPhase::Queued) {
                    continue;
                }
                if e.cancel_requested {
                    // A cancelled job never leases out more units; once
                    // none is leased either, it is terminally cancelled
                    // right here.
                    if !e.leased() {
                        cancelled.push(job.clone());
                    }
                    continue;
                }
                if best.is_none_or(|(_, p)| e.spec.priority > p) {
                    best = Some((job, e.spec.priority));
                }
            }
        }
        let (grant, record) = match best {
            None => {
                if let Some(idle) = idle.filter(|_| cancelled.is_empty() && !self.stopped()) {
                    let _ = self.changed.wait_timeout(state, idle).expect("core lock");
                    return None;
                }
                (None, None)
            }
            Some((job, _)) => {
                let job = job.clone();
                let lease = self.lease_counter.fetch_add(1, Ordering::SeqCst);
                state.queued_units -= 1;
                let entry = state.jobs.get_mut(&job).expect("found above");
                let unit = entry
                    .units
                    .iter_mut()
                    .find(|u| u.phase == UnitPhase::Queued)
                    .expect("the scan saw a queued unit");
                unit.phase = UnitPhase::Leased;
                unit.worker = Some(worker.to_string());
                unit.lease = lease;
                let grant = UnitGrant {
                    job: job.clone(),
                    target: unit.target,
                    lease,
                    spec: entry.spec.clone(),
                    checkpoint: unit.checkpoint.clone(),
                };
                entry.phase = JobPhase::Running;
                entry.worker = Some(worker.to_string());
                (Some(grant), self.record_of(&job, entry))
            }
        };
        drop(state);
        for job in cancelled {
            self.finish_cancelled(&job);
        }
        self.persist(record);
        grant
    }

    /// Store a replicated sub-run checkpoint for a leased unit.  The
    /// quoted lease must be current ([`UnitDisposition::Revoked`]
    /// otherwise — the unit was stolen, released or its job went
    /// terminal); wave numbers must strictly increase per unit
    /// ([`UnitDisposition::Ignored`] for replays, nothing stored).
    pub(crate) fn save_unit_checkpoint(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: MatrixCheckpoint,
    ) -> UnitDisposition {
        let record = {
            let mut state = self.lock();
            let Some(entry) = state.jobs.get_mut(job) else {
                return UnitDisposition::Revoked;
            };
            let Some(unit) = entry.leased_unit(target, lease) else {
                return UnitDisposition::Revoked;
            };
            if unit.checkpoint.as_ref().is_some_and(|old| checkpoint.wave <= old.wave) {
                return UnitDisposition::Ignored;
            }
            unit.checkpoint = Some(checkpoint);
            self.record_of(job, entry)
        };
        self.persist(record);
        UnitDisposition::Accepted
    }

    /// Finish a leased unit: store its final sub-checkpoint, publish the
    /// worker's trailing events, and — when this was the job's last open
    /// unit — merge the units' checkpoints into the job result and
    /// publish it.  Any wave is accepted on a valid lease (a unit can
    /// finish without ever checkpointing mid-run).
    pub(crate) fn complete_unit(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: MatrixCheckpoint,
        events: Vec<Json>,
    ) -> UnitDisposition {
        let (record, all_done, none_leased) = {
            let mut state = self.lock();
            let Some(entry) = state.jobs.get_mut(job) else {
                return UnitDisposition::Revoked;
            };
            let Some(unit) = entry.leased_unit(target, lease) else {
                return UnitDisposition::Revoked;
            };
            unit.phase = UnitPhase::Done;
            unit.worker = None;
            unit.checkpoint = Some(checkpoint);
            let all_done = entry.units.iter().all(|u| u.phase == UnitPhase::Done);
            (self.record_of(job, entry), all_done, !entry.leased())
        };
        // Trailing events precede the reconstruction's closing events.
        self.publish(job, events);
        self.persist(record);
        if all_done {
            self.finalize_units(job);
        } else if none_leased {
            self.leave_running(job);
        }
        UnitDisposition::Accepted
    }

    /// Hand a leased unit back to the queue: its worker died, is being
    /// stolen from, or stopped the unit (a cancel or a server stop) — in
    /// which case `checkpoint` records where it stopped.  Without one the
    /// unit resumes from its last replicated sub-checkpoint.  The old
    /// owner's in-flight frames are fenced — they quote a lease that no
    /// longer matches a `Leased` unit.  When no other unit of the job is
    /// still leased, the job leaves `Running`.
    pub(crate) fn release_unit(
        &self,
        job: &str,
        target: u8,
        lease: u64,
        checkpoint: Option<MatrixCheckpoint>,
    ) {
        let (record, none_leased) = {
            let mut state = self.lock();
            let Some(entry) = state.jobs.get_mut(job) else { return };
            let Some(unit) = entry.leased_unit(target, lease) else { return };
            unit.phase = UnitPhase::Queued;
            unit.worker = None;
            if checkpoint.is_some() {
                unit.checkpoint = checkpoint;
            }
            let pending = (self.record_of(job, entry), !entry.leased());
            state.queued_units += 1;
            self.changed.notify_all();
            pending
        };
        self.persist(record);
        if none_leased {
            self.leave_running(job);
        }
    }

    /// Release every `Leased` unit whose `(job, target, lease)` is not in
    /// `live` — the set of leases actually held by a connected worker.
    /// The core never re-leases a unit that is not `Queued`, so a lease
    /// with no owning connection would wedge its job forever, silently;
    /// this sweep makes that state self-healing no matter how it arose
    /// (a worker that abandoned a grant without a frame the coordinator
    /// kept, a peer speaking an older protocol, a future desync bug).
    /// Returns the released `(job, target)` pairs for logging.
    pub(crate) fn reconcile_leases(&self, live: &[(String, u8, u64)]) -> Vec<(String, u8)> {
        let orphaned: Vec<(String, u8, u64)> = {
            let state = self.lock();
            state
                .jobs
                .iter()
                .filter(|(_, e)| !e.phase.terminal())
                .flat_map(|(job, e)| {
                    e.units.iter().filter(|u| u.phase == UnitPhase::Leased).filter_map(
                        move |u| {
                            let owned = live
                                .iter()
                                .any(|(j, t, l)| j == job && *t == u.target && *l == u.lease);
                            if owned {
                                None
                            } else {
                                Some((job.clone(), u.target, u.lease))
                            }
                        },
                    )
                })
                .collect()
        };
        let mut released = Vec::with_capacity(orphaned.len());
        for (job, target, lease) in orphaned {
            self.release_unit(&job, target, lease, None);
            released.push((job, target));
        }
        released
    }

    /// The job's last leased unit was handed back (or finished with
    /// others still queued): it leaves `Running` — terminally cancelled
    /// when a cancel is pending (its drivers are gone, and re-dispatching
    /// it would run waves the client already cancelled), back to
    /// `Queued` otherwise.
    fn leave_running(&self, job: &str) {
        let record = {
            let mut state = self.lock();
            let Some(entry) = state.jobs.get_mut(job) else { return };
            if entry.phase != JobPhase::Running || entry.leased() {
                return;
            }
            if entry.cancel_requested {
                drop(state);
                self.finish_cancelled(job);
                return;
            }
            entry.phase = JobPhase::Queued;
            entry.worker = None;
            self.record_of(job, entry)
        };
        self.persist(record);
    }

    /// A worker could not run its leased unit at all (the spec no longer
    /// resolves on that host, or the granted checkpoint was rejected):
    /// fail the whole job.  Lease-fenced like every other unit frame, so a
    /// stale owner cannot fail a job its thief is completing.
    pub(crate) fn fail_unit(&self, job: &str, target: u8, lease: u64, error: &str) {
        let valid = self
            .lock()
            .jobs
            .get_mut(job)
            .is_some_and(|e| e.leased_unit(target, lease).is_some());
        if valid {
            self.complete(job, Json::obj().field("job", job).field("error", error));
        }
    }

    /// All units of the job are `Done`: merge the per-unit final
    /// checkpoints into one full-matrix checkpoint, resume it and finish
    /// the merged run once — which reproduces the exact per-cell reports
    /// an in-process run yields and the closing cell events — then publish
    /// those events and complete the job.  A spec that no longer resolves
    /// or checkpoints that do not merge complete the job with an error
    /// result.  No-op unless every unit really is `Done` (so a straggler
    /// can never finish a job early).
    fn finalize_units(&self, job: &str) {
        let (spec, parts) = {
            let state = self.lock();
            let Some(entry) = state.jobs.get(job) else { return };
            if entry.phase.terminal() || entry.units.iter().any(|u| u.phase != UnitPhase::Done) {
                return;
            }
            let parts: Option<Vec<MatrixCheckpoint>> =
                entry.units.iter().map(|u| u.checkpoint.clone()).collect();
            (entry.spec.clone(), parts)
        };
        let mut collector = EventCollector { job: job.to_string(), events: Vec::new() };
        let outcome: Result<MatrixReport, String> = (|| {
            let parts = parts.ok_or("a unit finished without a final checkpoint")?;
            let matrix = spec.to_matrix()?;
            let merged = matrix.merge_checkpoints(&parts)?;
            let run = matrix
                .resume(&merged)
                .map_err(|e| format!("merged checkpoint rejected: {e}"))?;
            Ok(run.finish(&mut collector))
        })();
        match outcome {
            Ok(report) => {
                self.publish(job, std::mem::take(&mut collector.events));
                self.index_result(job, &report);
                self.complete(job, job_result_json(job, &spec, &report));
            }
            Err(e) => {
                // Only a hand-edited spool, a spec that stopped resolving
                // or a codec bug gets here.
                let error = format!("result reconstruction failed: {e}");
                self.complete(job, Json::obj().field("job", job).field("error", error.as_str()));
            }
        }
    }

    /// Ask for a job's cancellation.  A job with no leased unit cancels
    /// immediately; one whose units are being driven cancels
    /// cooperatively at their next wave boundary (the returned phase is
    /// still `Running` until then).  Terminal jobs are rejected.
    ///
    /// # Errors
    /// Returns a message for unknown or already-finished jobs.
    pub fn cancel(&self, job: &str) -> Result<JobPhase, String> {
        // `Some(record)` = leased units (cooperative cancel; persist the
        // flag), `None` = nothing running (cancel immediately).
        let cooperative: Option<PendingRecord> = {
            let mut state = self.lock();
            let entry = state.jobs.get_mut(job).ok_or_else(|| format!("unknown job `{job}`"))?;
            match entry.phase {
                JobPhase::Done => return Err(format!("job `{job}` already finished")),
                JobPhase::Cancelled => return Ok(JobPhase::Cancelled),
                JobPhase::Queued | JobPhase::Running => {
                    // Flag it under the SAME lock as the lease observation:
                    // a lease slipping in before the `finish_cancelled`
                    // below sees the flag and cancels instead of
                    // dispatching — without it, a queued job racing a
                    // lease would run to completion behind its own
                    // cancelled `done` event.
                    entry.cancel_requested = true;
                    // Persisted so the cancellation survives a server kill
                    // before the next wave boundary.
                    entry.leased().then(|| self.record_of(job, entry))
                }
            }
        };
        match cooperative {
            None => {
                self.finish_cancelled(job);
                Ok(JobPhase::Cancelled)
            }
            Some(record) => {
                self.persist(record);
                let _guard = self.lock();
                self.changed.notify_all();
                Ok(JobPhase::Running)
            }
        }
    }

    /// Has a cancellation been requested for this (running) job?
    pub fn cancel_requested(&self, job: &str) -> bool {
        self.lock().jobs.get(job).is_some_and(|e| e.cancel_requested && !e.phase.terminal())
    }

    /// Terminally cancel a job: store the `cancelled` result payload and
    /// publish the terminating `done` event.  Its units keep their last
    /// checkpoints as the record of where the job stopped.
    fn finish_cancelled(&self, job: &str) {
        let result = Json::obj().field("job", job).field("cancelled", true);
        let done = Json::obj()
            .field("event", "done")
            .field("job", job)
            .field("cancelled", true)
            .field("result", result.clone());
        self.end(job, JobPhase::Cancelled, result, done);
    }

    /// Finish a job: store the result and publish the `done` event.
    pub(crate) fn complete(&self, job: &str, result: Json) {
        let done = Json::obj()
            .field("event", "done")
            .field("job", job)
            .field("result", result.clone());
        self.end(job, JobPhase::Done, result, done);
    }

    /// Move a job to a terminal phase with its result payload and closing
    /// event.  A job that already ended keeps its first terminal state
    /// (e.g. a result racing a cancellation).
    fn end(&self, job: &str, phase: JobPhase, result: Json, done: Json) {
        let record = {
            let mut state = self.lock();
            let Some(entry) = state.jobs.get_mut(job) else { return };
            if entry.phase.terminal() {
                return;
            }
            entry.phase = phase;
            entry.cancel_requested = false;
            entry.worker = None;
            entry.result = Some(result);
            let done = self.stamp(done);
            entry.events.push(done);
            let record = self.record_of(job, entry);
            // A terminal job's queued units leave the backlog.
            state.queued_units -= state.jobs[job].queued_units();
            self.changed.notify_all();
            record
        };
        self.persist(record);
    }

    /// Stamp an event with the next global sequence number.
    fn stamp(&self, event: Json) -> Json {
        event.field("seq", self.event_seq.fetch_add(1, Ordering::SeqCst))
    }

    /// Append events to a job's log (each stamped with the global `seq`).
    /// Terminal jobs accept no further events: their `done` line stays the
    /// last one watchers ever see, even if a straggling driver (one that
    /// raced a cancellation) is still producing.
    pub(crate) fn publish(&self, job: &str, events: Vec<Json>) {
        if events.is_empty() {
            return;
        }
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(job) {
            if entry.phase.terminal() {
                return;
            }
            for event in events {
                let event = self.stamp(event);
                entry.events.push(event);
            }
        }
        self.changed.notify_all();
    }

    /// Append a finished job's violation cells to the indexed store (a
    /// no-op without [`ServiceConfig::store`]).  Indexing failures are
    /// logged, never propagated: the index is a derived view and must not
    /// affect job results.
    fn index_result(&self, job: &str, report: &MatrixReport) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.index_report(job, report) {
            eprintln!("store: failed to index job {job}: {e}");
        }
    }

    /// The parsed token table ([`ServiceConfig::token_file`]): token →
    /// tenant.  `None` means the client front-end runs open (no auth).
    pub fn auth(&self) -> Option<&BTreeMap<String, String>> {
        self.auth.as_ref()
    }
}

/// Parse a token file: one `<token> <tenant>` pair per line; blank lines
/// and `#` comments are ignored.
fn load_tokens(path: &std::path::Path) -> io::Result<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path)?;
    let mut tokens = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(token), Some(tenant), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}:{}: expected `<token> <tenant>`, got `{line}`",
                    path.display(),
                    i + 1
                ),
            ));
        };
        tokens.insert(token.to_string(), tenant.to_string());
    }
    Ok(tokens)
}

fn summarize(job: &str, e: &JobEntry) -> JobStatus {
    let cells = e.spec.cells.len();
    JobStatus {
        job: job.to_string(),
        phase: e.phase,
        priority: e.spec.priority,
        worker: e.worker.clone(),
        tenant: e.spec.tenant.clone(),
        cells,
        cells_finished: match e.phase {
            JobPhase::Done => cells,
            _ => e
                .events
                .iter()
                .filter(|ev| ev.get("event").and_then(Json::as_str) == Some("cell"))
                .count(),
        },
        events: e.events.len(),
        units: e
            .units
            .iter()
            .map(|u| UnitStatus {
                target: u.target,
                phase: u.phase,
                worker: u.worker.clone(),
                wave: u.checkpoint.as_ref().map_or(0, |cp| cp.wave),
            })
            .collect(),
    }
}

/// Reconstruct a restored job's event log from its spool record, so
/// watchers of a job that progressed (or finished) under a previous server
/// still see its history and — crucially — the terminating `done` event.
/// Cell events are rendered from the finished cells of the unit
/// checkpoints, in the order of each unit's sub-matrix (pre-kill finds
/// never re-fire after a resume); the elapsed time is lost with the old
/// process, so it reads 0.
fn restored_events(record: &SpoolRecord) -> Vec<Json> {
    let mut collector = EventCollector { job: record.job.clone(), events: Vec::new() };
    for unit in record.units.iter().flatten() {
        let (Some(checkpoint), Ok(sub)) = (&unit.checkpoint, record.spec.unit_matrix(unit.target))
        else {
            continue;
        };
        for (progress, cell) in checkpoint.cells.iter().zip(sub.cells()) {
            let Some(progress) = progress else { continue };
            collector.cell_finished(&CellEvent {
                target_id: cell.target.id,
                contract: cell.contract.clone(),
                found: progress.violation.is_some(),
                vulnerability: progress.violation.as_ref().map(|v| v.vulnerability),
                test_cases: progress.test_cases,
                elapsed: Duration::ZERO,
            });
        }
    }
    let mut events = collector.events;
    if let Some(result) = &record.result {
        let mut done = Json::obj().field("event", "done").field("job", record.job.as_str());
        if record.phase == JobPhase::Cancelled {
            done = done.field("cancelled", true);
        }
        events.push(done.field("result", result.clone()));
    }
    events
}

/// The result payload of a finished job: the job id and spec, the
/// deterministic per-cell section ([`matrix_cells_json`] — byte-identical
/// for any execution of the same spec, kill + resume included) and the
/// nondeterministic timing side channel.
pub fn job_result_json(job: &str, spec: &JobSpec, report: &MatrixReport) -> Json {
    Json::obj()
        .field("job", job)
        .field("spec", spec.to_json())
        .field("seed", report.seed)
        .field("measured_test_cases", report.test_cases)
        .field("generated_test_cases", report.generated)
        .field("statically_filtered", report.statically_filtered)
        .field("cells", matrix_cells_json(report))
        .field("timing", matrix_timing_json(report))
}

/// The deterministic section of a result payload: everything except the
/// per-run `job` id and `timing`.  Two results for the same spec compare
/// byte-equal on this rendering.
pub fn deterministic_result(result: &Json) -> Json {
    match result {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "job" && k != "timing")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Collects matrix progress events as wire-format JSON lines (shared by
/// the in-process and the fleet workers and the result reconstruction).
pub(crate) struct EventCollector {
    pub(crate) job: String,
    pub(crate) events: Vec<Json>,
}

impl ProgressObserver for EventCollector {
    fn round_completed(&mut self, event: &RoundEvent) {
        self.events.push(
            Json::obj()
                .field("event", "round")
                .field("job", self.job.as_str())
                .field("target", event.target_id)
                .field("round", event.round)
                .field("test_cases", event.test_cases)
                .field("escalations", event.escalations),
        );
    }

    fn cell_finished(&mut self, event: &CellEvent) {
        self.events.push(
            Json::obj()
                .field("event", "cell")
                .field("job", self.job.as_str())
                .field("target", event.target_id)
                .field("contract", event.contract.name())
                .field("found", event.found)
                .field("vulnerability", event.vulnerability.map(|v| v.to_string()))
                .field("test_cases", event.test_cases)
                .field("elapsed_ms", event.elapsed.as_secs_f64() * 1000.0),
        );
    }
}

/// FNV-1a, the spec digest in job ids.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The submission counter baked into a server-minted job id
/// (`j<digest>-<counter hex>`); `None` for hand-named spool files.
fn id_counter(job: &str) -> Option<u64> {
    job.rsplit('-').next().and_then(|suffix| u64::from_str_radix(suffix, 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_result_drops_job_and_timing() {
        let result = Json::obj()
            .field("job", "j1")
            .field("cells", Json::Arr(vec![]))
            .field("timing", Json::obj().field("duration_ms", 3.5));
        let det = deterministic_result(&result);
        assert!(det.get("job").is_none());
        assert!(det.get("timing").is_none());
        assert!(det.get("cells").is_some());
    }

    #[test]
    fn submit_rejects_invalid_specs() {
        let core = ServiceCore::new(ServiceConfig::default()).unwrap();
        let err = core.submit(JobSpec::new(1).add_cell(42, "CT-SEQ")).expect_err("rejects");
        assert!(err.contains("unknown target"), "{err}");
    }

    /// No worker threads run here (the core is constructed directly), so
    /// the queue can be leased by hand and its order observed.
    #[test]
    fn lease_drains_higher_priority_first_then_fifo() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let spec = |p: i64| JobSpec::new(1).with_priority(p).add_cell(1, "CT-SEQ");
        let low_first = core.submit(spec(0)).unwrap();
        let low_second = core.submit(spec(0)).unwrap();
        let high = core.submit(spec(5)).unwrap();
        let negative = core.submit(spec(-1)).unwrap();
        let drained: Vec<String> =
            std::iter::from_fn(|| core.lease_unit("w", None)).map(|grant| grant.job).collect();
        assert_eq!(drained, vec![high, low_first, low_second, negative]);
        assert!(core.lease_unit("w", None).is_none(), "queue fully drained");
    }

    /// Two finished jobs that hit the same gadget produce one deduplicated
    /// store entry with an occurrence count of 2 — the indexed-store
    /// contract end to end through the core's completion path.
    #[test]
    fn finished_jobs_index_their_violations_into_the_store() {
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-store-index", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            shards: 1,
            store: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        let spec = || JobSpec::new(7).with_budget(60).add_cell(5, "CT-SEQ");
        for _ in 0..2 {
            let job = core.submit(spec()).unwrap();
            let grant = core.lease_unit("local-0", None).unwrap();
            assert_eq!(grant.job, job);
            crate::worker::drive_local(&core, grant);
            assert_eq!(core.status(&job).unwrap().phase, JobPhase::Done);
        }
        let merged = rvz_store::Store::open(&dir).unwrap().merged().unwrap();
        assert_eq!(merged.len(), 1, "identical gadgets dedup into one entry");
        assert_eq!(merged[0].count, 2);
        assert_eq!(merged[0].jobs.len(), 2);
        assert_eq!(merged[0].entry.target, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_transitions_and_rejections() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let job = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        assert!(core.cancel("j-unknown").is_err());
        // Queued cancels immediately and terminally; cancel is idempotent.
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Cancelled);
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Cancelled);
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Cancelled);
        let result = core.result(&job).unwrap().expect("cancelled result payload");
        assert_eq!(result.get("cancelled").and_then(Json::as_bool), Some(true));
        // A cancelled job is never leased.
        assert!(core.lease_unit("w", None).is_none());
        // The event log terminates with a cancelled `done` event.
        let events = core.events_from(&job, 0).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(events[0].get("cancelled").and_then(Json::as_bool), Some(true));
        // A running job cancels cooperatively: the lease holder observes
        // the request at its next wave boundary and hands the unit back.
        let running = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        let grant = core.lease_unit("w", None).unwrap();
        assert_eq!(grant.job, running);
        assert_eq!(core.cancel(&running).unwrap(), JobPhase::Running);
        assert!(core.cancel_requested(&running));
        core.release_unit(&running, grant.target, grant.lease, None);
        assert!(!core.cancel_requested(&running), "terminal phase clears the request");
        assert_eq!(core.status(&running).unwrap().phase, JobPhase::Cancelled);
        // Completing after cancellation must not overwrite the terminal state.
        core.complete(&running, Json::obj().field("job", running.as_str()));
        assert_eq!(core.status(&running).unwrap().phase, JobPhase::Cancelled);
    }

    #[test]
    fn pending_cancel_survives_release_and_lease_never_redispatches_it() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        // A cancel that lands while the job runs, whose driver then dies
        // (worker host lost): the release must cancel terminally, not hand
        // the job back to the queue.
        let job = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        let grant = core.lease_unit("w1", None).expect("leased");
        assert_eq!(core.cancel(&job).unwrap(), JobPhase::Running);
        core.release_unit(&job, grant.target, grant.lease, None);
        assert_eq!(core.status(&job).unwrap().phase, JobPhase::Cancelled);
        assert!(core.result(&job).unwrap().is_some(), "terminal result published");

        // Defense in depth: even a Queued job carrying the flag (the
        // cancel raced a lease) is cancelled at lease time, never
        // dispatched — and does not shadow other queued work.
        let stuck = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        let next = core.submit(JobSpec::new(3).add_cell(1, "CT-SEQ")).unwrap();
        {
            let mut state = core.state.lock().unwrap();
            state.jobs.get_mut(&stuck).unwrap().cancel_requested = true;
        }
        let grant = core.lease_unit("w2", None).expect("other work still leasable");
        assert_eq!(grant.job, next);
        assert_eq!(core.status(&stuck).unwrap().phase, JobPhase::Cancelled);
    }

    #[test]
    fn restored_pending_cancel_is_cancelled_at_startup() {
        // A server killed between a cancel request and the next wave
        // boundary leaves Running + cancel_requested in the spool; the
        // next server must cancel the job, not resume it (nor strand it
        // queued forever when no worker connects).
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-restored-cancel", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        spool
            .save(&SpoolRecord {
                job: "j-test-9".to_string(),
                spec: JobSpec::new(1).add_cell(1, "CT-SEQ"),
                phase: JobPhase::Running,
                checkpoint: None,
                units: None,
                result: None,
                cancel_requested: true,
            })
            .unwrap();
        let config = ServiceConfig {
            shards: 1,
            spool: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        assert_eq!(core.status("j-test-9").unwrap().phase, JobPhase::Cancelled);
        assert!(core.lease_unit("w", None).is_none(), "never dispatched");
        // The cancelled phase is durable for the *next* restart too.
        let record = Spool::open(&dir).unwrap().load_all().remove(0);
        assert_eq!(record.phase, JobPhase::Cancelled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_jobs_keep_submission_order_not_directory_order() {
        // Job ids are `j<digest>-<counter hex>`: the spool's lexicographic
        // directory scan orders by digest (and misorders unpadded hex
        // counters across widths), so restore must re-sort by counter to
        // keep the FIFO-within-priority guarantee across restarts.
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-restore-order", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        // Submission order by counter: jzz-9 (9), jmm-a (10), jaa-10 (16)
        // — exactly inverse to the lexicographic file order.
        for job in ["jzz-9", "jmm-a", "jaa-10"] {
            spool
                .save(&SpoolRecord {
                    job: job.to_string(),
                    spec: JobSpec::new(1).add_cell(1, "CT-SEQ"),
                    phase: JobPhase::Queued,
                    checkpoint: None,
                    units: None,
                    result: None,
                    cancel_requested: false,
                })
                .unwrap();
        }
        let config = ServiceConfig {
            shards: 1,
            spool: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config).unwrap();
        let drained: Vec<String> =
            std::iter::from_fn(|| core.lease_unit("w", None)).map(|grant| grant.job).collect();
        assert_eq!(drained, vec!["jzz-9", "jmm-a", "jaa-10"]);
        // And fresh ids keep allocating above the highest restored counter.
        let fresh = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        assert!(u64::from_str_radix(fresh.rsplit('-').next().unwrap(), 16).unwrap() > 0x10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn published_events_carry_increasing_seq_stamps() {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let core = ServiceCore::new(config).unwrap();
        let a = core.submit(JobSpec::new(1).add_cell(1, "CT-SEQ")).unwrap();
        let b = core.submit(JobSpec::new(2).add_cell(1, "CT-SEQ")).unwrap();
        core.publish(&a, vec![Json::obj().field("event", "round")]);
        core.publish(&b, vec![Json::obj().field("event", "round")]);
        core.publish(&a, vec![Json::obj().field("event", "round")]);
        let seq_of = |job: &str, i: usize| {
            core.events_from(job, 0).unwrap()[i].get("seq").and_then(Json::as_u64).unwrap()
        };
        assert_eq!(seq_of(&a, 0), 0);
        assert_eq!(seq_of(&b, 0), 1);
        assert_eq!(seq_of(&a, 1), 2);
    }

    /// The sub-checkpoint of the group unit `target` belongs to, at wave 0.
    fn sub_checkpoint(spec: &JobSpec, target: u8) -> MatrixCheckpoint {
        let matrix = spec.to_matrix().expect("spec resolves");
        matrix
            .group_matrices()
            .into_iter()
            .find(|m| m.cells().iter().any(|c| c.target.id == target))
            .expect("target has a group")
            .initial_checkpoint()
    }

    #[test]
    fn unit_leases_fence_stale_owners() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let job = core
            .submit(JobSpec::new(7).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ"))
            .unwrap();

        // The job's two target groups lease independently, nothing more.
        let g1 = core.lease_unit("w1", None).expect("first unit leases");
        let g2 = core.lease_unit("w2", None).expect("second unit leases");
        assert_eq!((g1.job.as_str(), g2.job.as_str()), (job.as_str(), job.as_str()));
        assert_ne!(g1.target, g2.target);
        assert!(core.lease_unit("w3", None).is_none(), "a two-group job has exactly two units");

        // A steal re-leases the unit under a fresh token...
        core.release_unit(&job, g1.target, g1.lease, None);
        let g3 = core.lease_unit("w3", None).expect("a released unit re-leases");
        assert_eq!(g3.target, g1.target);
        assert_ne!(g3.lease, g1.lease, "every lease mints a fresh fencing token");

        // ...and every frame the deposed owner still sends is revoked.
        let cp = sub_checkpoint(&g3.spec, g3.target);
        assert_eq!(
            core.save_unit_checkpoint(&job, g1.target, g1.lease, cp.clone()),
            UnitDisposition::Revoked
        );
        assert_eq!(
            core.complete_unit(&job, g1.target, g1.lease, cp.clone(), vec![]),
            UnitDisposition::Revoked
        );

        // The current owner's first checkpoint lands; replaying the same
        // wave is ignored (monotonic progress only), not revoked.
        assert_eq!(
            core.save_unit_checkpoint(&job, g3.target, g3.lease, cp.clone()),
            UnitDisposition::Accepted
        );
        assert_eq!(
            core.save_unit_checkpoint(&job, g3.target, g3.lease, cp),
            UnitDisposition::Ignored
        );
    }

    #[test]
    fn orphaned_leases_are_reconciled_back_to_the_queue() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let job = core
            .submit(JobSpec::new(7).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ"))
            .unwrap();
        let g1 = core.lease_unit("w1", None).expect("first unit leases");
        let g2 = core.lease_unit("w2", None).expect("second unit leases");

        // w1's connection vanished without the core ever learning: its
        // lease is live in the core but owned by nobody.  The sweep
        // requeues exactly that unit — w2's owned lease is untouched.
        let live = vec![(job.clone(), g2.target, g2.lease)];
        assert_eq!(core.reconcile_leases(&live), vec![(job.clone(), g1.target)]);

        // The orphaned unit is re-leasable under a fresh fencing token.
        let again = core.lease_unit("w3", None).expect("orphaned unit re-leases");
        assert_eq!(again.target, g1.target);
        assert_ne!(again.lease, g1.lease);

        // With every lease owned, the sweep is a no-op.
        let live =
            vec![(job.clone(), g2.target, g2.lease), (job.clone(), again.target, again.lease)];
        assert!(core.reconcile_leases(&live).is_empty());
    }

    #[test]
    fn backpressure_defers_submits_at_the_watermark() {
        let core = ServiceCore::new(ServiceConfig {
            worker_listen: Some("127.0.0.1:0".to_string()),
            queue_watermark: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = |seed: u64| JobSpec::new(seed).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
        assert!(matches!(
            core.try_submit(JobSpec::new(1).add_cell(42, "CT-SEQ")),
            Err(SubmitRejection::Invalid(_))
        ));

        // First job (two units) fills the queue to the watermark; the next
        // submission defers with a retry hint instead of queueing.
        core.try_submit(spec(1)).expect("an empty queue accepts");
        match core.try_submit(spec(2)) {
            Err(SubmitRejection::Backpressure(bp)) => {
                assert_eq!((bp.queued_units, bp.watermark), (2, 2));
                assert!(bp.retry_after >= Duration::from_millis(250));
            }
            other => panic!("expected backpressure, got {other:?}"),
        }

        // Leasing a unit drains the backlog below the watermark: submits
        // reopen without any explicit reset.
        core.lease_unit("w1", None).expect("unit leases");
        core.try_submit(spec(3)).expect("draining below the watermark reopens submits");
    }

    /// The queued-unit counter against a full recount of the job table.
    fn assert_counter_matches_recount(core: &ServiceCore, step: &str) {
        let state = core.lock();
        let recount: usize = state
            .jobs
            .values()
            .filter(|e| !e.phase.terminal())
            .map(JobEntry::queued_units)
            .sum();
        assert_eq!(state.queued_units, recount, "after {step}");
    }

    #[test]
    fn queued_unit_counter_matches_a_recount() {
        let dir = std::env::temp_dir()
            .join(format!("rvz-core-test-{}-queued-count", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig { spool: Some(dir.clone()), ..ServiceConfig::default() };
        let two_groups = |seed: u64| {
            JobSpec::new(seed).with_budget(10).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ")
        };
        let core = ServiceCore::new(config()).unwrap();
        let a = core.submit(two_groups(1)).unwrap();
        let b = core.submit(two_groups(2)).unwrap();
        let c = core.submit(two_groups(3)).unwrap();
        core.submit(JobSpec::new(4)).unwrap(); // no cells: completes at submit
        assert_counter_matches_recount(&core, "submit");
        assert_eq!(core.lock().queued_units, 6);

        let a1 = core.lease_unit("w1", None).unwrap();
        let a2 = core.lease_unit("w2", None).unwrap();
        assert_counter_matches_recount(&core, "lease");
        // A steal: the unit is released and re-leased under a new token.
        core.release_unit(&a, a1.target, a1.lease, None);
        let a1 = core.lease_unit("w3", None).unwrap();
        assert_eq!(a1.job, a);
        assert_counter_matches_recount(&core, "steal");
        // A stop: released with its stopping checkpoint.
        let cp = sub_checkpoint(&a2.spec, a2.target);
        core.release_unit(&a, a2.target, a2.lease, Some(cp));
        assert_counter_matches_recount(&core, "release");
        // A cancel of a queued job: its queued units leave the backlog.
        assert_eq!(core.cancel(&c).unwrap(), JobPhase::Cancelled);
        assert_counter_matches_recount(&core, "queued cancel");
        // A cooperative cancel: the lease holder hands its unit back.
        let a2 = core.lease_unit("w2", None).unwrap();
        assert_eq!(a2.job, a, "FIFO: a's released unit goes first");
        let b1 = core.lease_unit("w4", None).unwrap();
        assert_eq!(b1.job, b);
        assert_eq!(core.cancel(&b).unwrap(), JobPhase::Running);
        core.release_unit(&b, b1.target, b1.lease, None);
        assert_eq!(core.status(&b).unwrap().phase, JobPhase::Cancelled);
        assert_counter_matches_recount(&core, "cooperative cancel");
        // A complete: both units of `a` finish, the job with them.
        crate::worker::drive_local(&core, a1);
        crate::worker::drive_local(&core, a2);
        assert_eq!(core.status(&a).unwrap().phase, JobPhase::Done);
        assert_counter_matches_recount(&core, "complete");
        // A restore: the leased unit comes back queued.
        let d = core.submit(two_groups(5)).unwrap();
        core.lease_unit("w1", None).unwrap();
        drop(core);
        let core = ServiceCore::new(config()).unwrap();
        assert_counter_matches_recount(&core, "restore");
        assert_eq!(core.lock().queued_units, 2, "both units of {d} are queued again");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
