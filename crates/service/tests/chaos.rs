//! Deterministic fault-injection harness for the elastic-fleet campaign
//! service.
//!
//! A [`FaultPlan`] is a seeded schedule of worker faults — kills,
//! connection drops and delays — keyed by `(worker, job, wave)` and
//! injected through the worker loop's test-only hook
//! ([`Worker::with_fault_hook`]).  Each plan runs a coordinator plus a
//! small worker fleet over loopback TCP and lets the scheduled faults
//! fire: workers die mid-unit, partitions drop replication connections,
//! slow hosts stall between waves, the coordinator steals leases from
//! stalled owners.  The harness then asserts the service's **one**
//! externally visible contract: the final `result.cells` section is
//! byte-identical to an in-process [`CampaignMatrix::run`] of the same
//! spec, for *every* plan in the sweep.  Directed tests below cover the
//! named races one by one: steal racing a kill, a stale owner double-
//! driving a stolen lease, and a worker departing between its lease and
//! its first checkpoint.
//!
//! Why this is sound to assert at all: unit seeds derive from
//! `(matrix seed, target id, index)` alone, and the coordinator replicates
//! a checkpoint after every wave, so any re-lease resumes the identical
//! stream suffix from *some* replicated wave boundary — which produces
//! identical verdicts no matter where the fault landed — and lease
//! tokens fence every frame a deposed owner might still send.
//!
//! [`CampaignMatrix::run`]: revizor::orchestrator::CampaignMatrix

use rvz_bench::report::matrix_cells_json;
use rvz_service::{
    FaultAction, JobSpec, ServiceConfig, ServiceHandle, Worker, WorkerConfig,
};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// splitmix64: the plan's deterministic randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A seeded schedule of faults keyed by `(worker index, job index, wave)`.
///
/// The schedule is a pure function of its seed, so every sweep failure is
/// reproducible by seed alone.  Disruptive actions (drop / die) fire **at
/// most once per key**: a reassigned job revisiting the same wave on the
/// same worker must not re-trip the same partition forever (faults model
/// events in time, not curses on wave numbers).
#[derive(Debug, Clone)]
struct FaultPlan {
    seed: u64,
    /// Wave horizon: waves beyond this never fault.
    horizon: usize,
}

impl FaultPlan {
    fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, horizon: 12 }
    }

    /// The action scheduled for `(worker, job, wave)`.
    fn action(&self, worker: usize, job: usize, wave: usize) -> FaultAction {
        if wave >= self.horizon {
            return FaultAction::Continue;
        }
        let roll = mix(
            self.seed ^ (worker as u64) << 40 ^ (job as u64) << 20 ^ wave as u64,
        ) % 100;
        match roll {
            // ~8%: the worker host dies (kill -9).
            0..=7 => FaultAction::Die,
            // ~10%: a network partition drops the coordinator connection.
            8..=17 => FaultAction::DropConnection,
            // ~12%: a slow host stalls between waves (ack-gated, so this
            // is what a delayed checkpoint ack looks like end to end).
            18..=29 => FaultAction::Delay(Duration::from_millis(1 + roll % 5)),
            _ => FaultAction::Continue,
        }
    }
}

/// Shared job-id → submission-index registry: fault keys use submission
/// indices (stable across runs), while the hook sees server-minted ids.
type JobIndex = Arc<Mutex<HashMap<String, usize>>>;

/// Spawn one worker host whose hook executes `plan` for `worker_idx`.
/// Returns the thread handle; the worker exits when the coordinator does.
fn spawn_faulty_worker(
    addr: String,
    worker_idx: usize,
    plan: FaultPlan,
    jobs: JobIndex,
) -> std::thread::JoinHandle<()> {
    let mut config = WorkerConfig::new(addr);
    config.name = format!("chaos-w{worker_idx}");
    config.retry_for = Duration::from_secs(3);
    let mut consumed: HashSet<(usize, usize)> = HashSet::new();
    let hook = Box::new(move |job: &str, wave: usize| -> FaultAction {
        // The submission index lands in the registry right after submit —
        // before the job can reach a worker — but spin briefly anyway.
        let deadline = Instant::now() + Duration::from_secs(1);
        let job_idx = loop {
            if let Some(idx) = jobs.lock().unwrap().get(job) {
                break *idx;
            }
            if Instant::now() >= deadline {
                return FaultAction::Continue;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        match plan.action(worker_idx, job_idx, wave) {
            FaultAction::Continue => FaultAction::Continue,
            delay @ FaultAction::Delay(_) => delay,
            disruptive => {
                // Once per key (see the FaultPlan docs).
                if consumed.insert((job_idx, wave)) {
                    disruptive
                } else {
                    FaultAction::Continue
                }
            }
        }
    });
    std::thread::spawn(move || {
        let _ = Worker::new(config).with_fault_hook(hook).run();
    })
}

/// The two jobs every plan serves, and their in-process baselines.  The
/// second job mixes a predictor-zoo cell (target 9: TAGE direction
/// predictor) into the sweep, so kill/steal/resume must reproduce
/// byte-identical verdicts for non-default predictor configurations too.
fn sweep_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(7)
            .with_budget(40)
            .add_cell(5, "CT-SEQ")
            .add_cell(5, "CT-BPAS")
            .add_cell(5, "CT-COND"),
        JobSpec::new(19)
            .with_budget(30)
            .add_cell(5, "CT-SEQ")
            .add_cell(1, "CT-SEQ")
            .add_cell(9, "CT-SEQ"),
    ]
}

/// Serve `specs` under `plan` and return each job's final `cells` section.
fn serve_under_plan(plan: &FaultPlan, specs: &[JobSpec]) -> Vec<String> {
    let dir = scratch_dir(&format!("plan-{}", plan.seed));
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    let jobs: JobIndex = Arc::new(Mutex::new(HashMap::new()));
    // Worker 0 is immortal (the plan never faults it), so the fleet always
    // retains capacity; workers 1 and 2 fault per plan.
    let immortal = {
        let mut config = WorkerConfig::new(addr.clone());
        config.name = "chaos-w0".to_string();
        config.retry_for = Duration::from_secs(3);
        std::thread::spawn(move || {
            let _ = Worker::new(config).run();
        })
    };
    let faulty: Vec<_> = (1..3)
        .map(|i| spawn_faulty_worker(addr.clone(), i, plan.clone(), Arc::clone(&jobs)))
        .collect();

    let mut ids = Vec::new();
    for (idx, spec) in specs.iter().enumerate() {
        let job = handle.submit(spec.clone()).expect("job accepted");
        jobs.lock().unwrap().insert(job.clone(), idx);
        ids.push(job);
    }
    let cells: Vec<String> = ids
        .iter()
        .map(|job| {
            let result = handle.wait(job).expect("job completes despite faults");
            result.get("cells").expect("result has cells").render()
        })
        .collect();
    handle.shutdown();
    let _ = immortal.join();
    for worker in faulty {
        let _ = worker.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    cells
}

/// The acceptance sweep: for every seeded fault plan, the coordinator's
/// final verdict sections are byte-identical to in-process matrix runs.
#[test]
fn seeded_fault_plans_never_change_a_single_verdict_byte() {
    let specs = sweep_specs();
    let baselines: Vec<String> = specs
        .iter()
        .map(|spec| matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render())
        .collect();

    // A small fixed seed set so CI stays fast; grow it for deeper local
    // sweeps (every failure reproduces from its seed alone).
    for plan_seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
        let plan = FaultPlan::new(plan_seed);
        let served = serve_under_plan(&plan, &specs);
        for (job_idx, (served, baseline)) in served.iter().zip(&baselines).enumerate() {
            assert_eq!(
                served, baseline,
                "plan seed {plan_seed}, job {job_idx}: a fault interleaving changed the verdicts"
            );
        }
    }
}

/// A silently partitioned worker (socket open, no frames — a pulled
/// cable or frozen host, which `DropConnection` cannot model because it
/// delivers an orderly close) trips the coordinator's inactivity timeout:
/// the job is requeued and finished by a healthy worker, byte-identically.
#[test]
fn silently_stalled_worker_times_out_and_the_job_moves_on() {
    let spec = JobSpec::new(7).with_budget(40).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
    let baseline = matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render();

    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        worker_timeout: Duration::from_millis(300),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    // The victim freezes for far longer than the timeout after its first
    // wave, without closing its connection.
    let frozen = {
        let mut config = WorkerConfig::new(addr.clone());
        config.name = "frozen".to_string();
        config.retry_for = Duration::from_secs(2);
        std::thread::spawn(move || {
            let hook = Box::new(move |_job: &str, wave: usize| {
                if wave == 1 {
                    FaultAction::Delay(Duration::from_secs(4))
                } else {
                    FaultAction::Continue
                }
            });
            let _ = Worker::new(config).with_fault_hook(hook).run();
        })
    };
    let job = handle.submit(spec).expect("job accepted");
    // Give the frozen worker time to take the job and stall...
    std::thread::sleep(Duration::from_millis(600));
    // ...then bring up a healthy worker; the coordinator must have (or
    // will) time the stalled one out and reassign.
    let healthy = {
        let mut config = WorkerConfig::new(addr);
        config.name = "healthy".to_string();
        config.retry_for = Duration::from_secs(2);
        std::thread::spawn(move || {
            let _ = Worker::new(config).run();
        })
    };
    let result = handle.wait(&job).expect("job completes despite the frozen worker");
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        baseline,
        "a timed-out worker must not change a single verdict byte"
    );
    handle.shutdown();
    let _ = (frozen.join(), healthy.join());
}

/// The directed acceptance case: a job starts on one worker host, that
/// host is killed mid-matrix, and the job is reassigned to a second host
/// which resumes it from the last replicated wave — not from scratch —
/// with byte-identical verdicts.
#[test]
fn killed_worker_mid_matrix_is_reassigned_and_resumes_from_replicated_wave() {
    let spec = JobSpec::new(7).with_budget(60).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
    let baseline = matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render();

    let dir = scratch_dir("directed-kill");
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    // The victim dies right before computing wave 3 (waves 1 and 2 were
    // replicated and acked by then — the ack gate guarantees it).
    let victim_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let victim = {
        let mut config = WorkerConfig::new(addr.clone());
        config.name = "victim".to_string();
        let seen = Arc::clone(&victim_waves);
        std::thread::spawn(move || {
            let hook = Box::new(move |_job: &str, wave: usize| {
                seen.lock().unwrap().push(wave);
                if wave >= 2 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            });
            let _ = Worker::new(config).with_fault_hook(hook).run();
        })
    };

    let job = handle.submit(spec).expect("job accepted");
    // The victim (the only worker) takes the job and dies mid-matrix.
    victim.join().expect("victim thread ends (Die)");
    assert_eq!(
        *victim_waves.lock().unwrap(),
        vec![0, 1, 2],
        "the victim must have computed exactly waves 1 and 2 before dying"
    );

    // A second host joins; the coordinator reassigns the interrupted job.
    let survivor_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let survivor = {
        let mut config = WorkerConfig::new(addr);
        config.name = "survivor".to_string();
        let seen = Arc::clone(&survivor_waves);
        std::thread::spawn(move || {
            let hook = Box::new(move |_job: &str, wave: usize| {
                seen.lock().unwrap().push(wave);
                FaultAction::Continue
            });
            let _ = Worker::new(config).with_fault_hook(hook).run();
        })
    };

    let result = handle.wait(&job).expect("reassigned job completes");
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        baseline,
        "kill + reassignment must not change a single verdict byte"
    );
    assert_eq!(
        survivor_waves.lock().unwrap().first(),
        Some(&2),
        "the survivor must resume from the last replicated wave, not from scratch"
    );
    handle.shutdown();
    let _ = survivor.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn one wave-recording worker; `hook_of(wave)` picks its fault.
fn spawn_recording_worker(
    addr: String,
    name: &str,
    waves: Arc<Mutex<Vec<usize>>>,
    hook_of: impl Fn(usize) -> FaultAction + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let mut config = WorkerConfig::new(addr);
    config.name = name.to_string();
    config.retry_for = Duration::from_secs(3);
    std::thread::spawn(move || {
        let hook = Box::new(move |_job: &str, wave: usize| {
            waves.lock().unwrap().push(wave);
            hook_of(wave)
        });
        let _ = Worker::new(config).with_fault_hook(hook).run();
    })
}

/// Block until `waves` records `wave`, panicking after five seconds.
fn await_wave(waves: &Arc<Mutex<Vec<usize>>>, wave: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !waves.lock().unwrap().contains(&wave) {
        assert!(Instant::now() < deadline, "worker never reached wave {wave}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A steal racing a kill: the unit's owner stalls far past the steal
/// threshold, a thief steals the lease at the last replicated wave, and
/// the deposed owner then dies outright mid-race.  The verdicts must not
/// notice any of it.
#[test]
fn steal_racing_a_kill_keeps_verdicts_byte_identical() {
    let spec = JobSpec::new(7).with_budget(40).add_cell(5, "CT-SEQ");
    let baseline = matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render();

    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        steal_after: Duration::from_millis(200),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    // The victim stalls for 900ms at wave 1 (far past the 200ms steal
    // threshold) and dies if it ever gets to compute another wave.
    let victim_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let victim =
        spawn_recording_worker(addr.clone(), "victim", Arc::clone(&victim_waves), |wave| {
            match wave {
                1 => FaultAction::Delay(Duration::from_millis(900)),
                2.. => FaultAction::Die,
                _ => FaultAction::Continue,
            }
        });
    let job = handle.submit(spec).expect("job accepted");
    // Only once the victim owns the unit and is stalling may the thief
    // join — otherwise it would simply lease the unit first.
    await_wave(&victim_waves, 1);
    let thief_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let thief = spawn_recording_worker(addr, "thief", Arc::clone(&thief_waves), |_| {
        FaultAction::Continue
    });

    let result = handle.wait(&job).expect("job completes despite the mid-steal kill");
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        baseline,
        "a steal racing a kill must not change a single verdict byte"
    );
    let first = *thief_waves.lock().unwrap().first().expect("the thief ran the unit");
    assert!(first >= 1, "the thief must resume from a replicated wave, not from scratch");
    handle.shutdown();
    let _ = (victim.join(), thief.join());
}

/// A double-lease attempt: the deposed owner *survives* its stall and
/// keeps driving the stolen unit with its stale lease.  Every frame it
/// sends is fenced by the lease token (the coordinator answers `revoked`),
/// the thief's run alone decides the verdicts, and the job finishes once.
#[test]
fn stale_owner_double_driving_a_stolen_lease_is_fenced() {
    let spec = JobSpec::new(13).with_budget(40).add_cell(5, "CT-SEQ");
    let baseline = matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render();

    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        steal_after: Duration::from_millis(200),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    // The deposed owner never dies: after its stall it races the thief,
    // attempting to keep computing and shipping waves under its old lease.
    let owner_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let owner = spawn_recording_worker(addr.clone(), "owner", Arc::clone(&owner_waves), |wave| {
        if wave == 1 {
            FaultAction::Delay(Duration::from_millis(900))
        } else {
            FaultAction::Continue
        }
    });
    let job = handle.submit(spec).expect("job accepted");
    await_wave(&owner_waves, 1);
    let thief_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let thief = spawn_recording_worker(addr, "thief", Arc::clone(&thief_waves), |_| {
        FaultAction::Continue
    });

    let result = handle.wait(&job).expect("job completes exactly once");
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        baseline,
        "a fenced double-lease must not change a single verdict byte"
    );
    let first = *thief_waves.lock().unwrap().first().expect("the thief ran the unit");
    assert!(first >= 1, "the thief must resume from a replicated wave, not from scratch");
    handle.shutdown();
    let _ = (owner.join(), thief.join());
}

/// A worker that departs between taking a lease and shipping its first
/// checkpoint: nothing was replicated, so the unit simply requeues with
/// no progress and the next worker runs it from scratch.
#[test]
fn departure_between_lease_and_first_checkpoint_requeues_from_scratch() {
    let spec = JobSpec::new(11).with_budget(30).add_cell(5, "CT-SEQ");
    let baseline = matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render();

    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("worker port bound").to_string();

    // The victim dies before computing wave 0 — it leased the unit but
    // never shipped a single checkpoint.
    let victim_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let victim =
        spawn_recording_worker(addr.clone(), "victim", Arc::clone(&victim_waves), |_| {
            FaultAction::Die
        });
    let job = handle.submit(spec).expect("job accepted");
    victim.join().expect("victim thread ends (Die)");
    assert_eq!(*victim_waves.lock().unwrap(), vec![0], "the victim died holding a fresh lease");

    let survivor_waves: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let survivor = spawn_recording_worker(addr, "survivor", Arc::clone(&survivor_waves), |_| {
        FaultAction::Continue
    });
    let result = handle.wait(&job).expect("requeued job completes");
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        baseline,
        "a checkpoint-less departure must not change a single verdict byte"
    );
    assert_eq!(
        survivor_waves.lock().unwrap().first(),
        Some(&0),
        "with nothing replicated, the survivor must start from scratch"
    );
    handle.shutdown();
    let _ = survivor.join();
}
