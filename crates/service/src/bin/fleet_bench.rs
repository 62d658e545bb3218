//! fleet-bench: the machine-readable perf trajectory of the elastic
//! fleet, written to `BENCH_fleet.json` so future changes can track
//! throughput without parsing README prose.
//!
//! Usage: `fleet-bench [--out=PATH] [--wave-delay-ms=MS]` (see `--help`).
//!
//! Two sections:
//!
//! * `matrix_throughput` — the in-process orchestrator baseline (a
//!   12-cell Table 3 slice, one timed pass each):
//!   sequential per-cell campaigns versus one shared matrix.
//! * `fleet_speedup` — before/after wall-clock for a steal-enabled
//!   two-unit job: once served by a single worker, once with a second
//!   worker registering *mid-job* after replication progress is visible.
//!   Workers stall a fixed delay per wave to model measurement-bound
//!   hosts (this container is single-core, so real compute would
//!   serialize and hide the fleet win; the delay-dominated model makes
//!   the placement effect honest).  Both runs must stay byte-identical
//!   to the in-process run — a speedup that changes verdicts is a bug,
//!   not a result.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::json::Json;
use rvz_bench::report::matrix_cells_json;
use rvz_bench::cli::{self, Flag};
use rvz_model::Contract;
use rvz_service::{FaultAction, FaultHook, JobSpec, ServiceConfig, ServiceHandle, Worker, WorkerConfig};
use std::time::{Duration, Instant};

const FLAGS: &[Flag] = &[
    Flag::value::<String>("out", "PATH", "output file (default BENCH_fleet.json)"),
    Flag::value::<u64>("wave-delay-ms", "MS", "per-wave stall of the slow hosts (default 40)"),
];

/// The 12-cell slice, timed once per shape: 3 targets x 4 contracts,
/// budget 24, seed 11.
fn matrix_throughput() -> Json {
    const SEED: u64 = 11;
    const BUDGET: usize = 24;
    let targets = || vec![Target::target1(), Target::target4(), Target::target5()];

    let sequential_start = Instant::now();
    for target in targets() {
        for contract in Contract::table3_contracts() {
            let _ = CampaignMatrix::new(SEED)
                .with_budget(BUDGET)
                .add_cell(target.clone(), contract)
                .run();
        }
    }
    let sequential = sequential_start.elapsed();

    let mut shared = CampaignMatrix::new(SEED).with_budget(BUDGET);
    for target in targets() {
        shared = shared.add_cells(target, Contract::table3_contracts());
    }
    let shared_start = Instant::now();
    let report = shared.run();
    let shared_elapsed = shared_start.elapsed();

    let cells = 3 * Contract::table3_contracts().len();
    Json::obj()
        .field("cells", cells as u64)
        .field("budget", BUDGET as u64)
        .field("seed", SEED)
        .field("test_cases", report.test_cases as u64)
        .field("sequential_per_cell_ms", ms(sequential))
        .field("shared_matrix_ms", ms(shared_elapsed))
        .field("shared_cells_per_sec", cells as f64 / shared_elapsed.as_secs_f64())
        .field("speedup", sequential.as_secs_f64() / shared_elapsed.as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The two-unit job both fleet runs serve: targets 1 and 4 comply with
/// CT-SEQ, so each group consumes its full budget — two equally sized
/// relocatable units.
fn fleet_spec() -> JobSpec {
    JobSpec::new(7).with_budget(40).add_cell(1, "CT-SEQ").add_cell(4, "CT-SEQ")
}

fn spawn_slow_worker(addr: String, name: &str, wave_delay: Duration) -> std::thread::JoinHandle<()> {
    let mut config = WorkerConfig::new(addr);
    config.name = name.to_string();
    config.retry_for = Duration::from_secs(10);
    std::thread::spawn(move || {
        let hook: FaultHook = Box::new(move |_job, _wave| FaultAction::Delay(wave_delay));
        let _ = Worker::new(config).with_fault_hook(hook).run();
    })
}

/// Serve the job over the fleet; with `join_mid_job`, a second worker
/// registers after the first replicated wave is visible.  Returns the
/// job's wall-clock and whether its verdicts matched the in-process
/// baseline byte for byte.
fn timed_fleet_run(join_mid_job: bool, wave_delay: Duration, baseline: &str) -> (Duration, bool) {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.worker_addr().expect("fleet port bound").to_string();

    let first = spawn_slow_worker(addr.clone(), "fleet-w1", wave_delay);
    let started = Instant::now();
    let job = handle.submit(fleet_spec()).expect("job accepted");
    let mut second = None;
    if join_mid_job {
        // Wait for replication progress (the first wave's events) before
        // the second worker registers: it joins a job already running.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.core().status(&job).map(|s| s.events).unwrap_or(0) < 1 {
            assert!(Instant::now() < deadline, "no replication progress within 30s");
            std::thread::sleep(Duration::from_millis(2));
        }
        second = Some(spawn_slow_worker(addr, "fleet-w2", wave_delay));
    }
    let result = handle.wait(&job).expect("job completes");
    let elapsed = started.elapsed();
    let identical = result.get("cells").map(Json::render).as_deref() == Some(baseline);
    handle.shutdown();
    let _ = first.join();
    if let Some(second) = second {
        let _ = second.join();
    }
    (elapsed, identical)
}

fn fleet_speedup(wave_delay: Duration) -> Json {
    let baseline =
        matrix_cells_json(&fleet_spec().to_matrix().expect("spec resolves").run()).render();
    let (solo, solo_identical) = timed_fleet_run(false, wave_delay, &baseline);
    let (joined, joined_identical) = timed_fleet_run(true, wave_delay, &baseline);
    Json::obj()
        .field("units", 2u64)
        .field("wave_delay_ms", ms(wave_delay))
        .field("solo_worker_ms", ms(solo))
        .field("second_worker_joins_mid_job_ms", ms(joined))
        .field("speedup", solo.as_secs_f64() / joined.as_secs_f64())
        .field("verdicts_identical", solo_identical && joined_identical)
}

fn main() {
    let args = cli::parse(FLAGS);
    let out = args.get("out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let wave_delay = Duration::from_millis(args.get("wave-delay-ms").unwrap_or(40));

    eprintln!("fleet-bench: timing the in-process matrix slice...");
    let throughput = matrix_throughput();
    eprintln!("fleet-bench: timing the fleet runs (solo, then join-mid-job)...");
    let speedup = fleet_speedup(wave_delay);
    let doc = Json::obj()
        .field("bench", "fleet")
        .field("matrix_throughput", throughput)
        .field("fleet_speedup", speedup);
    std::fs::write(&out, format!("{}\n", doc.render_pretty())).expect("bench file written");
    eprintln!("fleet-bench: wrote {out}");
    println!("{}", doc.render_pretty());
}
