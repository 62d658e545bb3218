//! # rvz-service
//!
//! Serving fuzzing campaigns as a service.  A *job* is a
//! [`CampaignMatrix`] spec — any (target, contract) cell set with its
//! budget and seed, so every existing harness (Table 3, contract
//! sensitivity, detection) is submittable.  At submit every job is split
//! into relocatable **work units**, one per target group of its matrix,
//! and units drain through one global queue (highest priority first,
//! FIFO within a priority).  Idle workers *lease* units and drive each
//! incrementally (one checkpointable wave at a time — [`MatrixRun`]),
//! replicating the unit's checkpoint after every wave; progress is
//! streamed to subscribed clients as JSON lines.
//!
//! ```text
//!  revizor-submit ──┐                       ┌─ worker 0 ─ MatrixRun(job A, t5) ─┐
//!  revizor-submit ──┼─► TCP reactor ─ core ─┼─ worker 1 ─ MatrixRun(job A, t1) ─┼─► spool/
//!  Client / watch ◄─┘   (JSON lines)   │    └─ …  (lease ─ wave ─ complete)     │   *.rvz
//!                                      └──────── event logs ◄───────────────────┘
//! ```
//!
//! The workers are either in-process threads ([`ServiceConfig::shards`]
//! of them, calling the core directly) or, in **fleet mode**
//! ([`ServiceConfig::worker_listen`]), an elastic fleet of worker hosts
//! (`revizor-worker`) that *register at runtime* over the fleet port, so
//! hosts can join or leave mid-job.  The [`coordinator`] replicates
//! every wave checkpoint (digest-validated) into the spool, *steals*
//! units back from slow or departed workers at the last replicated
//! sub-checkpoint (lease tokens fence the old owner's stale frames), and
//! forwards cancellations — see [`coordinator`] and [`worker`] for the
//! protocol, and `tests/chaos.rs` for the seeded fault-injection sweep
//! proving verdicts survive any kill/drop/delay/steal interleaving
//! byte-identically.  Whoever drove them, a job's finished units merge
//! into one job result.  Jobs carry submit-time priorities and can be
//! cancelled cooperatively.  When the queued-unit backlog reaches
//! [`ServiceConfig::queue_watermark`], `submit` defers with a
//! retry-after hint instead of queueing unbounded work
//! ([`Client::try_submit`]).
//!
//! Three guarantees make the service trustworthy as a *testing* service:
//!
//! * **Determinism** — a job's verdict section (`result.cells`) is a pure
//!   function of its spec: byte-identical to an in-process
//!   [`CampaignMatrix::run`] with the same seed, for any worker count,
//!   parallelism or client interleaving.
//! * **Durability** — job state (spec + one checkpoint per unit) persists
//!   to a spool directory; a killed server resumes every unfinished job
//!   on restart, and the resumed verdicts are byte-identical too (unit
//!   seeds derive from `(matrix seed, target id, index)` alone).
//! * **Isolation** — concurrent jobs share nothing but the process: each
//!   unit has its own `MatrixRun`, each job its own event log.
//!
//! The TCP front-end is a non-blocking poll reactor in async *shape* (the
//! vendored, offline workspace has no tokio); one reactor thread serves
//! both the client port and the fleet port — see [`server`] for the
//! protocol table and the runtime-swap story.  For in-process use, skip
//! TCP entirely: [`ServiceHandle::start`] with `listen: None` plus
//! [`ServiceHandle::submit`] / [`ServiceHandle::wait`].
//!
//! [`CampaignMatrix`]: revizor::orchestrator::CampaignMatrix
//! [`CampaignMatrix::run`]: revizor::orchestrator::CampaignMatrix::run
//! [`MatrixRun`]: revizor::orchestrator::MatrixRun

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod core;
mod framing;
pub mod job;
pub mod server;
pub mod spool;
pub mod worker;

pub use client::{Client, SubmitError, WatchError};
pub use coordinator::Coordinator;
pub use core::{
    deterministic_result, job_result_json, Backpressure, JobStatus, ServiceConfig, ServiceCore,
    SubmitRejection, UnitStatus,
};
pub use job::JobSpec;
pub use server::Server;
pub use spool::{JobPhase, Spool, SpoolRecord, UnitPhase, UnitRecord};
pub use worker::{FaultAction, FaultHook, Worker, WorkerConfig};

use rvz_bench::json::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running service instance: the core, its in-process workers and
/// (optionally) the reactor serving the client and fleet ports, owned
/// together.
///
/// ```no_run
/// use rvz_service::{JobSpec, ServiceConfig, ServiceHandle};
///
/// let handle = ServiceHandle::start(ServiceConfig::default()).unwrap();
/// let job = handle.submit(JobSpec::new(7).with_budget(60).add_cell(5, "CT-SEQ")).unwrap();
/// let result = handle.wait(&job).unwrap();
/// println!("{}", result.render_pretty());
/// handle.shutdown();
/// ```
pub struct ServiceHandle {
    core: Arc<ServiceCore>,
    workers: Vec<JoinHandle<()>>,
    reactor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    worker_addr: Option<SocketAddr>,
}

impl ServiceHandle {
    /// Start the service, resuming any unfinished spool jobs.
    ///
    /// With [`ServiceConfig::worker_listen`] unset this spawns
    /// [`ServiceConfig::shards`] in-process workers; set, the service
    /// runs in **fleet mode** instead — no in-process workers, units are
    /// leased to `revizor-worker` hosts connecting on that address (see
    /// [`coordinator`]).  One reactor thread serves the client port
    /// ([`ServiceConfig::listen`]) and the fleet port, whichever are set.
    ///
    /// # Errors
    /// Propagates spool and listener failures.
    pub fn start(config: ServiceConfig) -> io::Result<ServiceHandle> {
        let listen = config.listen.clone();
        let worker_listen = config.worker_listen.clone();
        let local_workers = if worker_listen.is_some() { 0 } else { config.shards.max(1) };
        let core = ServiceCore::new(config)?;
        let server = listen.map(|l| Server::bind(Arc::clone(&core), &l)).transpose()?;
        let coordinator =
            worker_listen.map(|l| Coordinator::bind(Arc::clone(&core), &l)).transpose()?;
        let local_addr = server.as_ref().map(Server::local_addr);
        let worker_addr = coordinator.as_ref().map(Coordinator::local_addr);
        let reactor = if server.is_some() || coordinator.is_some() {
            let core = Arc::clone(&core);
            let thread = std::thread::Builder::new()
                .name("rvz-service-reactor".to_string())
                .spawn(move || run_reactor(&core, server, coordinator))
                .map_err(io::Error::other)?;
            Some(thread)
        } else {
            None
        };
        let mut workers = Vec::with_capacity(local_workers);
        for i in 0..local_workers {
            let core = Arc::clone(&core);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rvz-service-worker-{i}"))
                    .spawn(move || worker::run_local(&core, &format!("local-{i}")))
                    .map_err(io::Error::other)?,
            );
        }
        Ok(ServiceHandle { core, workers, reactor, local_addr, worker_addr })
    }

    /// The transport-agnostic core (full API surface).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The TCP address, when a front-end is attached.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The worker-port address, when running in fleet mode.
    pub fn worker_addr(&self) -> Option<SocketAddr> {
        self.worker_addr
    }

    /// Submit a job in-process.
    ///
    /// # Errors
    /// Returns a message for invalid specs.
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        self.core.submit(spec)
    }

    /// Submit a job in-process, honouring the backpressure watermark.
    ///
    /// # Errors
    /// [`SubmitRejection::Invalid`] for bad specs,
    /// [`SubmitRejection::Backpressure`] (with a retry hint) when the
    /// queued-unit backlog is at [`ServiceConfig::queue_watermark`].
    pub fn try_submit(&self, spec: JobSpec) -> Result<String, SubmitRejection> {
        self.core.try_submit(spec)
    }

    /// Block until a job finishes and return its result payload.
    ///
    /// # Errors
    /// Returns a message for unknown jobs or when the service stops first.
    pub fn wait(&self, job: &str) -> Result<Json, String> {
        self.core.wait(job)
    }

    /// Request a job's cancellation: a job with no leased unit cancels
    /// immediately, a running one cooperatively at its units' next wave
    /// boundary.
    ///
    /// # Errors
    /// Returns a message for unknown or already-finished jobs.
    pub fn cancel(&self, job: &str) -> Result<JobPhase, String> {
        self.core.cancel(job)
    }

    /// Stop the service: in-process workers hand their units back at the
    /// next wave boundary, with a checkpoint, and exit; the reactor tells
    /// fleet workers to shut down.  That is exactly the state a killed
    /// server leaves behind, so unfinished jobs resume on the next
    /// [`ServiceHandle::start`] over the same spool.
    pub fn shutdown(self) {
        self.core.stop();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(reactor) = self.reactor {
            let _ = reactor.join();
        }
    }
}

/// The reactor thread: poll the client port and the fleet port in turn
/// until the core stops, sleeping briefly when neither made progress,
/// then tell the fleet's workers to shut down.
fn run_reactor(core: &ServiceCore, mut server: Option<Server>, mut coordinator: Option<Coordinator>) {
    while !core.stopped() {
        let mut progress = false;
        if let Some(server) = &mut server {
            progress |= server.poll_once();
        }
        if let Some(coordinator) = &mut coordinator {
            progress |= coordinator.poll_once();
        }
        if !progress {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    if let Some(coordinator) = coordinator {
        coordinator.shutdown();
    }
}
