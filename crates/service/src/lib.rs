//! # rvz-service
//!
//! Serving fuzzing campaigns as a service: the sharded front-end of the
//! ROADMAP's north star.  A *job* is a [`CampaignMatrix`] spec — any
//! (target, contract) cell set with its budget and seed, so every existing
//! harness (Table 3, contract sensitivity, detection) is submittable.  Jobs
//! are distributed over long-lived shard workers, driven incrementally
//! (one checkpointable wave at a time — [`MatrixRun`]), and their progress
//! is streamed to subscribed clients as JSON lines.
//!
//! ```text
//!  revizor-submit ──┐                       ┌─ shard 0 ─ MatrixRun(job A) ─┐
//!  revizor-submit ──┼─► TCP reactor ─ core ─┼─ shard 1 ─ MatrixRun(job B) ─┼─► spool/
//!  Client / watch ◄─┘   (JSON lines)   │    └─ …                           │   *.rvz
//!                                      └──────── event logs ◄──────────────┘
//! ```
//!
//! In **fleet mode** ([`ServiceConfig::worker_listen`]) the shard
//! threads are replaced by an elastic fleet of worker hosts
//! (`revizor-worker`): workers *register at runtime* over the fleet
//! port and *lease* relocatable work units — one unit per target group
//! of a job's matrix — so hosts can join or leave mid-job.  The
//! [`coordinator`] replicates every wave checkpoint (digest-validated)
//! into the spool, *steals* units back from slow or departed workers at
//! the last replicated sub-checkpoint (lease tokens fence the old
//! owner's stale frames), merges finished units into one job result,
//! and forwards cancellations — see [`coordinator`] and [`worker`] for
//! the protocol, and `tests/chaos.rs` for the seeded fault-injection
//! sweep proving verdicts survive any kill/drop/delay/steal
//! interleaving byte-identically.  Jobs carry submit-time priorities
//! (higher drains first) and can be cancelled cooperatively in either
//! mode.  When the queued-unit backlog reaches
//! [`ServiceConfig::queue_watermark`], `submit` defers with a
//! retry-after hint instead of queueing unbounded work
//! ([`Client::try_submit`]).
//!
//! Three guarantees make the service trustworthy as a *testing* service:
//!
//! * **Determinism** — a job's verdict section (`result.cells`) is a pure
//!   function of its spec: byte-identical to an in-process
//!   [`CampaignMatrix::run`] with the same seed, for any shard count,
//!   parallelism or client interleaving.
//! * **Durability** — job state (spec + wave checkpoint) persists to a
//!   spool directory; a killed server resumes every unfinished job on
//!   restart, and the resumed verdicts are byte-identical too (unit seeds
//!   derive from `(matrix seed, target id, index)` alone).
//! * **Isolation** — concurrent jobs share nothing but the process: each
//!   has its own `MatrixRun`, event log and (optional) measurement pool.
//!
//! The TCP front-end is a non-blocking poll reactor in async *shape* (the
//! vendored, offline workspace has no tokio); see [`server`] for the
//! protocol table and the runtime-swap story.  For in-process use, skip TCP
//! entirely: [`ServiceHandle::start`] with `listen: None` plus
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
pub use coordinator::{Coordinator, CoordinatorHandle};
pub use core::{
    deterministic_result, job_result_json, Backpressure, JobStatus, ServiceConfig, ServiceCore,
    SubmitRejection, UnitStatus,
};
pub use job::JobSpec;
pub use server::{Server, ServerHandle};
pub use spool::{JobPhase, Spool, SpoolRecord, UnitPhase, UnitRecord};
pub use worker::{FaultAction, FaultHook, Worker, WorkerConfig};

use rvz_bench::json::Json;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running service instance: shard workers plus (optionally) the TCP
/// front-end, owned together.
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
    server: Option<ServerHandle>,
    coordinator: Option<CoordinatorHandle>,
}

impl ServiceHandle {
    /// Start the service, resuming any unfinished spool jobs.
    ///
    /// With [`ServiceConfig::worker_listen`] unset this spawns the
    /// in-process shard workers; set, the service runs in **multi-host
    /// mode** instead — no local shards, jobs are dispatched to
    /// `revizor-worker` hosts connecting on that address (see
    /// [`coordinator`]).  The client-facing TCP reactor is attached in
    /// either mode when [`ServiceConfig::listen`] is set.
    ///
    /// # Errors
    /// Propagates spool and listener failures.
    pub fn start(config: ServiceConfig) -> io::Result<ServiceHandle> {
        let listen = config.listen.clone();
        let worker_listen = config.worker_listen.clone();
        // Coordinator mode runs no local shard threads: worker hosts are
        // the execution substrate.
        let shards = if worker_listen.is_some() { 0 } else { config.shards.max(1) };
        let core = ServiceCore::new(config)?;
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let core = Arc::clone(&core);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rvz-service-shard-{shard}"))
                    .spawn(move || core.run_worker(shard))
                    .map_err(io::Error::other)?,
            );
        }
        let coordinator = match &worker_listen {
            Some(listen) => Some(CoordinatorHandle::spawn(Arc::clone(&core), listen)?),
            None => None,
        };
        let server = match &listen {
            Some(listen) => Some(ServerHandle::spawn(Arc::clone(&core), listen)?),
            None => None,
        };
        Ok(ServiceHandle { core, workers, server, coordinator })
    }

    /// The transport-agnostic core (full API surface).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The TCP address, when a front-end is attached.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(ServerHandle::local_addr)
    }

    /// The worker-port address, when running in fleet mode.
    pub fn worker_addr(&self) -> Option<SocketAddr> {
        self.coordinator.as_ref().map(CoordinatorHandle::local_addr)
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

    /// Request a job's cancellation: queued jobs cancel immediately,
    /// running jobs cooperatively at their next wave boundary.
    ///
    /// # Errors
    /// Returns a message for unknown or already-finished jobs.
    pub fn cancel(&self, job: &str) -> Result<JobPhase, String> {
        self.core.cancel(job)
    }

    /// Stop the service: workers halt at their next wave boundary, persist
    /// a checkpoint for any in-flight job and exit — exactly the state a
    /// killed server leaves behind, so unfinished jobs resume on the next
    /// [`ServiceHandle::start`] over the same spool.
    pub fn shutdown(self) {
        self.core.stop();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(coordinator) = self.coordinator {
            coordinator.join();
        }
        if let Some(server) = self.server {
            server.join();
        }
    }
}
