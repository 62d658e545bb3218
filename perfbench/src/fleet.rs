//! The fleet: one `revizor-serve` coordinator and two `revizor-worker`
//! processes on loopback, driven by one `Client` connection, one job at a
//! time.  The traced run of `table3_inproc` serves its matrices through it
//! for the service layers' metrics.

use crate::checks::Checks;
use crate::spec::{Workload, THREADS};
use crate::stats::{mean, percentile, ratio, secs};
use crate::Metrics;
use rvz_bench::json::Json;
use rvz_service::{Client, JobSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a set-up may take before the run fails.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Paths of the service binaries and of the run's scratch directory.
pub struct Bins {
    pub serve: PathBuf,
    pub worker: PathBuf,
    pub scratch: PathBuf,
}

/// Build the service binaries from the checkout (a no-op when they are
/// fresh) into the cargo target directory.
pub fn build_bins() -> Result<Bins, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "rvz-service"])
        .args(["--bin", "revizor-serve", "--bin", "revizor-worker"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the service binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let release = target.join("release");
    let bins = Bins {
        serve: release.join("revizor-serve"),
        worker: release.join("revizor-worker"),
        scratch: target.join("perfbench"),
    };
    for bin in [&bins.serve, &bins.worker] {
        if !bin.is_file() {
            return Err(format!("{} was not built", bin.display()));
        }
    }
    Ok(bins)
}

/// Processes running either service binary: survivors of an earlier run.
fn strays(bins: &Bins) -> Vec<u32> {
    let wanted: Vec<PathBuf> = [&bins.serve, &bins.worker]
        .iter()
        .filter_map(|p| p.canonicalize().ok())
        .collect();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return vec![];
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|exe| wanted.contains(&exe))
        })
        .collect()
}

/// Fail the check when a fleet process of an earlier run survives, and
/// kill it so it stops competing for the cores.
pub fn check_no_strays(bins: &Bins, checks: &mut Checks) {
    let found = strays(bins);
    checks.check(found.is_empty(), || {
        format!("fleet processes of an earlier run survive: {found:?}")
    });
    for pid in found {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// A running fleet.  Dropping it kills and reaps every process and
/// removes the spool.
pub struct Fleet {
    serve: Child,
    workers: Vec<Child>,
    drain: Option<JoinHandle<()>>,
    dir: PathBuf,
    pub client_addr: String,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self
            .workers
            .iter_mut()
            .chain(std::iter::once(&mut self.serve))
        {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The text after `marker` up to the first of `ends`.
fn between<'a>(line: &'a str, marker: &str, ends: &[char]) -> Option<&'a str> {
    let rest = &line[line.find(marker)? + marker.len()..];
    Some(rest.split(ends).next()?.trim())
}

impl Fleet {
    /// Start the coordinator on ephemeral ports, read them back from its
    /// log, start the workers, and return once both have registered.
    pub fn start(bins: &Bins) -> Result<Fleet, String> {
        let dir = bins.scratch.join(format!("fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let spool = dir.join("spool");
        let mut serve = Command::new(&bins.serve)
            .args(["--addr=127.0.0.1:0", "--fleet-addr=127.0.0.1:0"])
            .arg(format!("--spool={}", spool.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start revizor-serve: {e}"))?;
        let stderr = serve.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining the coordinator's log so it never blocks on a full
        // pipe; the thread ends when the process dies.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("listening on") {
                    let _ = tx.send(line);
                }
            }
        });
        let mut fleet = Fleet {
            serve,
            workers: vec![],
            drain: Some(drain),
            dir,
            client_addr: String::new(),
        };
        let line = rx
            .recv_timeout(SETUP_TIMEOUT)
            .map_err(|_| "revizor-serve never reported its addresses".to_string())?;
        let (Some(client), Some(workers)) = (
            between(&line, "listening on ", &[' ']),
            between(&line, "register on ", &[',', ')']),
        ) else {
            return Err(format!("unexpected revizor-serve banner: {line}"));
        };
        fleet.client_addr = client.to_string();
        let fleet_addr = workers.to_string();
        for i in 1..=THREADS {
            let log = std::fs::File::create(fleet.dir.join(format!("worker-{i}.log")))
                .map_err(|e| format!("worker log: {e}"))?;
            let child = Command::new(&bins.worker)
                .arg(format!("--coordinator={fleet_addr}"))
                .arg(format!("--name=w{i}"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("cannot start revizor-worker: {e}"))?;
            fleet.workers.push(child);
        }
        fleet.await_registration()?;
        Ok(fleet)
    }

    /// Both workers are registered once each was seen leasing a unit of
    /// a small two-unit warm-up job.
    fn await_registration(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + SETUP_TIMEOUT;
        let mut client = loop {
            match Client::connect(self.client_addr.as_str()) {
                Ok(client) => break client,
                Err(e) if Instant::now() > deadline => return Err(format!("cannot connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let expected: BTreeSet<String> = (1..=THREADS).map(|i| format!("w{i}")).collect();
        for attempt in 0u64.. {
            let spec = JobSpec::new(attempt)
                .with_budget(100)
                .add_cell(1, "CT-SEQ")
                .add_cell(4, "CT-SEQ");
            let job = client.submit(&spec)?;
            let mut seen = BTreeSet::new();
            loop {
                for child in &mut self.workers {
                    if let Ok(Some(exit)) = child.try_wait() {
                        return Err(format!("a worker exited during set-up ({exit})"));
                    }
                }
                let status = client.status(&job)?;
                seen.extend(unit_workers(&status).into_values());
                if status.get("state").and_then(Json::as_str) == Some("done") {
                    break;
                }
                if Instant::now() > deadline {
                    return Err("workers did not register in time".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if seen == expected {
                return Ok(());
            }
        }
        unreachable!("the attempt loop only exits by returning")
    }
}

/// `status.units[]` as target → worker name, for the units currently
/// leased (a finished unit no longer names its worker).
fn unit_workers(status: &Json) -> BTreeMap<u64, String> {
    status
        .get("units")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|u| {
            Some((
                u.get("target")?.as_u64()?,
                u.get("worker")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// One job as the client saw it; times in seconds from submission.
pub struct JobRun {
    pub seed: u64,
    pub submit_s: f64,
    pub first_event_s: f64,
    pub campaign_s: f64,
    pub result_s: f64,
    /// Gaps between successive `round` events of one unit.
    pub wave_gaps: Vec<f64>,
    /// First-to-last event span of each unit, summed per worker.
    pub busy_by_worker: BTreeMap<String, f64>,
    /// `result.cells`, rendered.
    pub cells: String,
}

/// How often unit placement is sampled while a job runs.
const PLACEMENT_POLL: Duration = Duration::from_millis(10);

/// Submit one job and watch it to its result (closed loop), while a second
/// connection samples `status.units[].worker` (a finished unit no longer
/// names its worker).
pub fn run_job(client: &mut Client, fleet: &Fleet, spec: &JobSpec) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let job = client.submit(spec)?;
    let submit_s = secs(t0.elapsed());
    let mut events: Vec<(f64, String, Option<u64>, bool)> = Vec::new();
    let done = AtomicBool::new(false);
    let (watched, campaign_s, workers) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| -> Result<BTreeMap<u64, String>, String> {
            let mut poll =
                Client::connect(fleet.client_addr.as_str()).map_err(|e| e.to_string())?;
            let mut placement = BTreeMap::new();
            while !done.load(Ordering::SeqCst) {
                placement.extend(unit_workers(&poll.status(&job)?));
                std::thread::sleep(PLACEMENT_POLL);
            }
            Ok(placement)
        });
        let watched = client.watch(&job, |ev| {
            events.push((
                secs(t0.elapsed()),
                ev.get("event")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                ev.get("target").and_then(Json::as_u64),
                ev.get("found").and_then(Json::as_bool) == Some(true),
            ));
        });
        let received = secs(t0.elapsed());
        done.store(true, Ordering::SeqCst);
        let workers = poller.join().expect("placement poller panicked");
        (watched, received, workers)
    });

    // Untimed from here on.
    let result = watched.map_err(|e| e.to_string())?;
    let workers = workers?;
    let cells = result.get("cells").map(Json::render).unwrap_or_default();
    let done_s = events
        .iter()
        .find(|e| e.1 == "done")
        .map_or(campaign_s, |e| e.0);
    // A unit's activity shows in its `round` events and its violating
    // cells' `cell` events; budget-exhausted cells only close when the
    // whole job does, so their events say nothing about the unit.
    let mut per_unit: BTreeMap<u64, Vec<(f64, bool)>> = BTreeMap::new();
    for (t, kind, target, found) in &events {
        if let (Some(target), true) = (target, kind == "round" || *found) {
            per_unit
                .entry(*target)
                .or_default()
                .push((*t, kind == "round"));
        }
    }
    let mut wave_gaps = Vec::new();
    let mut busy_by_worker: BTreeMap<String, f64> = BTreeMap::new();
    for (target, unit_events) in &per_unit {
        let rounds: Vec<f64> = unit_events.iter().filter(|e| e.1).map(|e| e.0).collect();
        wave_gaps.extend(rounds.windows(2).map(|w| w[1] - w[0]));
        let span = unit_events.last().map_or(0.0, |l| l.0) - unit_events[0].0;
        let worker = workers
            .get(target)
            .cloned()
            .unwrap_or_else(|| "unplaced".to_string());
        *busy_by_worker.entry(worker).or_default() += span;
    }
    Ok(JobRun {
        seed: spec.seed,
        submit_s,
        first_event_s: events.first().map_or(campaign_s, |e| e.0),
        campaign_s,
        result_s: campaign_s - done_s,
        wave_gaps,
        busy_by_worker,
        cells,
    })
}

/// Serve the matrices of `seeds` as jobs, one at a time, over a fresh
/// fleet, which is stopped (every process killed and reaped) on return.
pub fn run_jobs(
    workload: Workload,
    bins: &Bins,
    seeds: &[u64],
    checks: &mut Checks,
) -> Result<Vec<JobRun>, String> {
    check_no_strays(bins, checks);
    let fleet = Fleet::start(bins)?;
    let mut client = Client::connect(fleet.client_addr.as_str()).map_err(|e| e.to_string())?;
    seeds
        .iter()
        .map(|&seed| run_job(&mut client, &fleet, &workload.job(seed)))
        .collect()
}

/// The client-side per-layer metrics of a set of jobs.
pub fn client_layer_metrics(runs: &[JobRun]) -> Metrics {
    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.wave_gaps.iter().copied())
        .collect();
    let busy: f64 = runs.iter().flat_map(|r| r.busy_by_worker.values()).sum();
    let capacity: f64 = runs.iter().map(|r| r.campaign_s * THREADS as f64).sum();
    for run in runs {
        let placement: Vec<String> = run
            .busy_by_worker
            .iter()
            .map(|(w, s)| format!("{w} {s:.3} s"))
            .collect();
        println!(
            "job seed {:>20}  busy per worker: {}",
            run.seed,
            placement.join(", ")
        );
    }
    vec![
        (
            "client.submit_s",
            mean(&runs.iter().map(|r| r.submit_s).collect::<Vec<_>>()),
        ),
        (
            "client.first_event_s",
            mean(&runs.iter().map(|r| r.first_event_s).collect::<Vec<_>>()),
        ),
        (
            "service.wave_gap_s_p50",
            percentile(&gaps, 0.5).map_or(0.0, |p| p.value),
        ),
        (
            "service.wave_gap_s_p90",
            percentile(&gaps, 0.9).map_or(0.0, |p| p.value),
        ),
        (
            "service.result_s",
            mean(&runs.iter().map(|r| r.result_s).collect::<Vec<_>>()),
        ),
        ("service.worker_busy_ratio", ratio(busy, capacity)),
    ]
}
