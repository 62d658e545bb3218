//! Integration tests for the campaign service: determinism of served
//! verdicts against in-process runs, kill + resume through the spool,
//! client isolation, multi-host dispatch, job priorities, cancellation
//! and the server-gone watch error.

use revizor::orchestrator::CampaignMatrix;
use rvz_bench::json::Json;
use rvz_bench::report::matrix_cells_json;
use rvz_service::{
    deterministic_result, Client, JobPhase, JobSpec, ServiceConfig, ServiceHandle, Spool,
    SubmitError, SubmitRejection, UnitPhase, WatchError, Worker, WorkerConfig,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-service-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small Table-3 slice: Target 5 against three contracts (V1 violates
/// CT-SEQ and CT-BPAS within this budget; CT-COND runs to exhaustion).
fn slice_spec(seed: u64) -> JobSpec {
    JobSpec::new(seed)
        .with_budget(40)
        .add_cell(5, "CT-SEQ")
        .add_cell(5, "CT-BPAS")
        .add_cell(5, "CT-COND")
}

#[test]
fn served_job_is_byte_identical_to_an_in_process_matrix_run() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 2,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");

    let spec = slice_spec(7);
    let mut client = Client::connect(addr).expect("client connects");
    let job = client.submit(&spec).expect("job accepted");

    let mut rounds = 0usize;
    let mut cells = 0usize;
    let result = client
        .watch(&job, |event| match event.get("event").and_then(Json::as_str) {
            Some("round") => rounds += 1,
            Some("cell") => cells += 1,
            _ => {}
        })
        .expect("job completes");
    assert!(rounds >= 2, "budget 40 / round 10 must stream several round events");
    assert_eq!(cells, 3, "every cell reports exactly one cell event");

    // Acceptance check: the served result's deterministic section is
    // byte-identical to an in-process CampaignMatrix::run of the same seed
    // — same cells, verdicts, unit seeds, test-case counts, down to the
    // full violation reports.
    let baseline = spec.to_matrix().expect("spec resolves").run();
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        matrix_cells_json(&baseline).render(),
    );
    assert_eq!(
        result.get("measured_test_cases").and_then(Json::as_u64),
        Some(baseline.test_cases as u64)
    );

    // Submitting the identical spec again yields the identical
    // deterministic payload (fresh job id and timing differ).
    let job2 = client.submit(&spec).expect("second submission accepted");
    assert_ne!(job, job2);
    let result2 = client.watch(&job2, |_| {}).expect("second job completes");
    assert_eq!(
        deterministic_result(&result).render(),
        deterministic_result(&result2).render()
    );

    // A two-group job's units run on both in-process workers at once
    // (targets 1 and 4 comply with CT-SEQ, so neither stops early), and
    // its verdicts stay byte-identical.
    let spec = JobSpec::new(7).with_budget(200).add_cell(1, "CT-SEQ").add_cell(4, "CT-SEQ");
    let job3 = client.submit(&spec).expect("two-group job accepted");
    let both_leased = loop {
        let status = handle.core().status(&job3).expect("job known");
        let owners: HashSet<String> = status
            .units
            .iter()
            .filter(|u| u.phase == UnitPhase::Leased)
            .filter_map(|u| u.worker.clone())
            .collect();
        if owners.len() == 2 {
            break true;
        }
        if status.phase.terminal() {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(both_leased, "both units must be leased to different local workers at once");
    let result3 = client.watch(&job3, |_| {}).expect("two-group job completes");
    assert_eq!(
        result3.get("cells").expect("result has cells").render(),
        matrix_cells_json(&spec.to_matrix().expect("spec resolves").run()).render(),
    );

    handle.shutdown();
}

#[test]
fn killed_server_resumes_from_the_spool_byte_identically() {
    let dir = scratch_dir("resume");
    // Target 1 never violates CT-SEQ, so its group consumes the whole
    // budget (many waves) — plenty of room to kill the server mid-job.
    // Target 5 contributes a violation so the resumed result also carries a
    // full ViolationReport.
    let spec = JobSpec::new(7)
        .with_budget(200)
        .add_cell(1, "CT-SEQ")
        .add_cell(5, "CT-SEQ")
        .add_cell(5, "CT-BPAS");
    let config = |listen: Option<String>| ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen,
        worker_listen: None,
        ..ServiceConfig::default()
    };

    // First server: submit, let it make progress, then kill it mid-job.
    let first = ServiceHandle::start(config(None)).expect("first server starts");
    let job = first.submit(spec.clone()).expect("job accepted");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let rounds = first
            .core()
            .events_from(&job, 0)
            .expect("job known")
            .iter()
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("round"))
            .count();
        if rounds >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "job made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    first.shutdown(); // stops at the next wave boundary, like a kill

    // The spool must hold the interrupted job with a mid-stream checkpoint.
    let records = Spool::open(&dir).expect("spool opens").load_all();
    assert_eq!(records.len(), 1);
    let record = &records[0];
    assert_eq!(record.job, job);
    assert!(record.result.is_none(), "the job must not have finished before the kill");
    let units = record.units.as_ref().expect("unit checkpoints persisted");
    let groups: Vec<_> =
        units.iter().filter_map(|u| u.checkpoint.as_ref()).flat_map(|cp| &cp.groups).collect();
    let progressed: usize = groups.iter().map(|g| g.next_index).sum();
    assert!(progressed > 0, "checkpoint must carry real progress");
    assert!(groups.iter().any(|g| g.next_index < 200), "the kill must land mid-stream");

    // Second server over the same spool: the job resumes automatically and
    // completes with byte-identical verdicts.
    let second = ServiceHandle::start(config(None)).expect("second server starts");
    let result = second.wait(&job).expect("resumed job completes");
    second.shutdown();

    let baseline = spec.to_matrix().expect("spec resolves").run();
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        matrix_cells_json(&baseline).render(),
        "kill + resume must not change a single byte of the verdict section"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_do_not_perturb_each_others_verdicts() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 2,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");

    // Two clients, two different jobs, submitted before either result is
    // read so the campaigns overlap in the service.
    let spec_a = slice_spec(7);
    let spec_b = JobSpec::new(19).with_budget(40).add_cell(5, "CT-SEQ").add_cell(1, "CT-SEQ");
    let mut client_a = Client::connect(addr).expect("client A connects");
    let mut client_b = Client::connect(addr).expect("client B connects");
    let job_a = client_a.submit(&spec_a).expect("job A accepted");
    let job_b = client_b.submit(&spec_b).expect("job B accepted");

    let watcher = {
        let spec = spec_b.clone();
        std::thread::spawn(move || {
            let result = client_b.watch(&job_b, |_| {}).expect("job B completes");
            (spec, result)
        })
    };
    let result_a = client_a.watch(&job_a, |_| {}).expect("job A completes");
    let (spec_b, result_b) = watcher.join().expect("watcher thread");

    for (spec, result) in [(&spec_a, &result_a), (&spec_b, &result_b)] {
        let baseline = spec.to_matrix().expect("spec resolves").run();
        assert_eq!(
            result.get("cells").expect("result has cells").render(),
            matrix_cells_json(&baseline).render(),
            "a concurrent neighbor job must not perturb verdicts"
        );
    }

    handle.shutdown();
}

#[test]
fn restart_preserves_results_and_never_reuses_job_ids() {
    let dir = scratch_dir("restart-ids");
    let config = || ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen: None,
        worker_listen: None,
        ..ServiceConfig::default()
    };
    let spec = JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ");

    let first = ServiceHandle::start(config()).expect("first server starts");
    let job1 = first.submit(spec.clone()).expect("job accepted");
    let result1 = first.wait(&job1).expect("job completes");
    first.shutdown();

    let second = ServiceHandle::start(config()).expect("second server starts");
    // The restored done job still answers with its result, and its event
    // log terminates a watch (the `done` event is reconstructed).
    assert_eq!(
        second.core().result(&job1).expect("job known").map(|r| deterministic_result(&r).render()),
        Some(deterministic_result(&result1).render())
    );
    let events = second.core().events_from(&job1, 0).expect("job known");
    assert!(
        events.iter().any(|e| e.get("event").and_then(Json::as_str) == Some("done")),
        "restored job must carry a terminating done event"
    );
    // Resubmitting the identical spec must mint a fresh id (the old
    // counter collided here before) — and must not clobber job1's result.
    let job2 = second.submit(spec).expect("resubmission accepted");
    assert_ne!(job1, job2, "job ids must never be reused across restarts");
    let result2 = second.wait(&job2).expect("resubmitted job completes");
    assert_eq!(
        deterministic_result(&result1).render(),
        deterministic_result(&result2).render()
    );
    assert!(second.core().result(&job1).expect("job1 still known").is_some());
    second.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll `check` until it returns true or `secs` elapse (assert on timeout).
fn await_or_die(secs: u64, what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn multi_host_jobs_run_on_worker_hosts_byte_identically() {
    let dir = scratch_dir("multi-host");
    // Coordinator mode: no local shards; jobs go to worker hosts.
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 2, // ignored in coordinator mode
        spool: Some(dir.clone()),
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = handle.worker_addr().expect("worker port bound").to_string();

    // Two worker hosts (threads here; separate processes in production —
    // the CI smoke covers that shape).
    let spawn_worker = |name: &str| {
        let mut config = WorkerConfig::new(worker_addr.clone());
        config.name = name.to_string();
        config.retry_for = Duration::from_secs(5);
        std::thread::spawn(move || Worker::new(config).run())
    };
    let w1 = spawn_worker("w1");
    let w2 = spawn_worker("w2");

    let spec_a = slice_spec(7);
    let spec_b = JobSpec::new(19).with_budget(40).add_cell(5, "CT-SEQ").add_cell(1, "CT-SEQ");
    let job_a = handle.submit(spec_a.clone()).expect("job A accepted");
    let job_b = handle.submit(spec_b.clone()).expect("job B accepted");
    let result_a = handle.wait(&job_a).expect("job A completes");
    let result_b = handle.wait(&job_b).expect("job B completes");

    for (spec, result) in [(&spec_a, &result_a), (&spec_b, &result_b)] {
        let baseline = spec.to_matrix().expect("spec resolves").run();
        assert_eq!(
            result.get("cells").expect("result has cells").render(),
            matrix_cells_json(&baseline).render(),
            "worker-host verdicts must be byte-identical to in-process runs"
        );
    }
    // Watchers see the full event history, worker-driven or not.
    let events = handle.core().events_from(&job_a, 0).expect("job A known");
    let rounds = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("round"))
        .count();
    assert!(rounds >= 2, "worker-driven jobs must stream round events (got {rounds})");
    assert_eq!(
        events.last().and_then(|e| e.get("event")).and_then(Json::as_str),
        Some("done")
    );

    handle.shutdown();
    let _ = (w1.join(), w2.join());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_surfaces_server_gone_and_the_job_resumes_on_restart() {
    let dir = scratch_dir("server-gone");
    // Target 1 never violates CT-SEQ: the job runs its whole budget, so
    // the server can be stopped mid-watch deterministically.
    let spec = JobSpec::new(7).with_budget(200).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
    let config = || ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    };

    let first = ServiceHandle::start(config()).expect("first server starts");
    let addr = first.local_addr().expect("TCP front-end attached");
    let mut client = Client::connect(addr).expect("client connects");
    let job = client.submit(&spec).expect("job accepted");

    // Watch on a second connection; kill the server once the watch is
    // live (its first event arrived, so the server has read the watch
    // request) and the job's rounds flow.
    let (live_tx, live_rx) = std::sync::mpsc::channel();
    let watcher = {
        let job = job.clone();
        let mut watch_client = Client::connect(addr).expect("watcher connects");
        std::thread::spawn(move || {
            watch_client.watch(&job, |_| {
                let _ = live_tx.send(());
            })
        })
    };
    live_rx.recv_timeout(Duration::from_secs(60)).expect("the watch goes live");
    {
        let core = first.core();
        let job = job.clone();
        await_or_die(60, "first round events", move || {
            core.events_from(&job, 0).expect("job known").iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some("round")
            })
        });
    }
    first.shutdown();

    // The distinct error: not a job failure, the job is spooled.
    let outcome = watcher.join().expect("watcher thread");
    assert_eq!(outcome, Err(WatchError::ServerGone { job: job.clone() }));
    let message = WatchError::ServerGone { job: job.clone() }.to_string();
    assert!(message.contains("spooled"), "the error must say the job survives: {message}");

    // Restart over the same spool: the SAME job id resumes and completes
    // with byte-identical verdicts.
    let second = ServiceHandle::start(config()).expect("second server starts");
    let addr = second.local_addr().expect("TCP front-end attached");
    let mut client = Client::connect(addr).expect("client reconnects");
    let result = client.watch(&job, |_| {}).expect("resumed job completes");
    let baseline = spec.to_matrix().expect("spec resolves").run();
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        matrix_cells_json(&baseline).render(),
        "the job resumed after the server died mid-watch must not change verdicts"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn higher_priority_jobs_start_first_on_a_saturated_worker() {
    // One shard: the filler job saturates it; everything submitted while
    // it runs drains strictly by (priority, submission order) —
    // observable through the global `seq` stamps on the event logs.
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");

    // A budget the filler cannot finish (target 1 complies with CT-SEQ,
    // so nothing stops it early): it stays on the worker until cancelled,
    // however fast the pipeline runs.
    let filler = handle
        .submit(JobSpec::new(3).with_budget(1_000_000).add_cell(1, "CT-SEQ"))
        .expect("filler accepted");
    // Saturation point: only submit the contenders once the single shard
    // worker is committed to the filler.
    {
        let core = handle.core();
        let job = filler.clone();
        await_or_die(60, "filler claimed", move || {
            core.status(&job).unwrap().phase == JobPhase::Running
        });
    }
    let low = handle
        .submit(JobSpec::new(4).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("low accepted");
    let high = handle
        .submit(JobSpec::new(5).with_budget(4).with_priority(10).add_cell(1, "CT-SEQ"))
        .expect("high accepted");
    assert_eq!(handle.core().status(&high).unwrap().priority, 10);
    // Both contenders are queued behind the running filler; release the
    // worker at the filler's next wave boundary.
    assert_eq!(handle.cancel(&filler), Ok(JobPhase::Running));

    for job in [&filler, &low, &high] {
        handle.wait(job).expect("job completes");
    }
    assert_eq!(handle.core().status(&filler).unwrap().phase, JobPhase::Cancelled);
    let first_seq = |job: &str| {
        handle.core().events_from(job, 0).expect("job known")[0]
            .get("seq")
            .and_then(Json::as_u64)
            .expect("events are seq-stamped")
    };
    assert!(
        first_seq(&filler) < first_seq(&high) && first_seq(&high) < first_seq(&low),
        "expected filler < high < low, got {} / {} / {}",
        first_seq(&filler),
        first_seq(&high),
        first_seq(&low)
    );
    handle.shutdown();
}

#[test]
fn priority_is_never_inverted_by_placement_across_shard_workers() {
    // Two shard workers, each saturated by a filler.  The short filler is
    // cancelled once both contenders are queued; the worker it frees must
    // take the high-priority contender from the ONE global queue (and then
    // the low one, serially — the long filler is still running), so job-id
    // hashing can never pin the high-priority job behind a busy thread.
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 2,
        spool: None,
        listen: None,
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");

    // Budgets neither filler can finish (target 1 complies with CT-SEQ,
    // so nothing stops them early): both workers stay busy until a filler
    // is cancelled, however fast the pipeline runs.
    let short_filler = handle
        .submit(JobSpec::new(3).with_budget(1_000_000).add_cell(1, "CT-SEQ"))
        .expect("short filler accepted");
    let long_filler = handle
        .submit(JobSpec::new(4).with_budget(1_000_000).add_cell(1, "CT-SEQ"))
        .expect("long filler accepted");
    {
        let core = handle.core();
        let (a, b) = (short_filler.clone(), long_filler.clone());
        await_or_die(60, "both shard workers saturated", move || {
            core.status(&a).unwrap().phase == JobPhase::Running
                && core.status(&b).unwrap().phase == JobPhase::Running
        });
    }
    let low = handle
        .submit(JobSpec::new(5).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("low accepted");
    let high = handle
        .submit(JobSpec::new(6).with_budget(4).with_priority(7).add_cell(1, "CT-SEQ"))
        .expect("high accepted");
    assert_eq!(handle.cancel(&short_filler), Ok(JobPhase::Running));
    for job in [&short_filler, &low, &high] {
        handle.wait(job).expect("job completes");
    }
    // Both contenders ran on the worker the short filler freed (the long
    // filler still occupied the other), so their event order IS the claim
    // order: high first despite being submitted last.
    let first_seq = |job: &str| {
        handle.core().events_from(job, 0).expect("job known")[0]
            .get("seq")
            .and_then(Json::as_u64)
            .expect("events are seq-stamped")
    };
    assert!(
        first_seq(&high) < first_seq(&low),
        "the freed worker must take the high-priority job first: high {} vs low {}",
        first_seq(&high),
        first_seq(&low)
    );
    assert_eq!(
        handle.core().status(&long_filler).unwrap().phase,
        JobPhase::Running,
        "the long filler must still be running, proving the contenders shared one worker"
    );
    assert_eq!(handle.cancel(&long_filler), Ok(JobPhase::Running));
    handle.wait(&long_filler).expect("long filler stops");
    handle.shutdown();
}

#[test]
fn cancelled_job_stops_emitting_and_its_spool_record_survives_restart() {
    let dir = scratch_dir("cancel");
    let config = |listen: Option<String>| ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen,
        worker_listen: None,
        ..ServiceConfig::default()
    };
    let handle = ServiceHandle::start(config(Some("127.0.0.1:0".to_string())))
        .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");

    // A long-running job (target 1 exhausts its budget of 2000): long
    // enough that it is still running when the cancel below arrives.
    let running = handle
        .submit(JobSpec::new(7).with_budget(2000).add_cell(1, "CT-SEQ"))
        .expect("job accepted");
    // A queued job behind it cancels immediately.
    let queued = handle
        .submit(JobSpec::new(8).with_budget(200).add_cell(1, "CT-SEQ"))
        .expect("queued job accepted");
    let mut client = Client::connect(addr).expect("client connects");
    assert_eq!(client.cancel(&queued).expect("cancel accepted"), "cancelled");
    assert_eq!(handle.core().status(&queued).unwrap().phase, JobPhase::Cancelled);

    // Cancel the running job once it has streamed some rounds; it stops
    // cooperatively at the next wave boundary.
    {
        let core = handle.core();
        let job = running.clone();
        await_or_die(60, "round events before cancelling", move || {
            core.events_from(&job, 0).expect("job known").iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some("round")
            })
        });
    }
    assert_eq!(client.cancel(&running).expect("cancel accepted"), "cancelling");
    {
        let core = handle.core();
        let job = running.clone();
        await_or_die(60, "cooperative cancellation", move || {
            core.status(&job).unwrap().phase == JobPhase::Cancelled
        });
    }

    // Invariant: after the terminal event, the log never grows again.
    let events = handle.core().events_from(&running, 0).expect("job known");
    let done = events.last().expect("terminal event");
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(true));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        handle.core().events_from(&running, 0).expect("job known").len(),
        events.len(),
        "a cancelled job must not emit further events"
    );
    // A watch of the cancelled job terminates cleanly with the cancelled
    // result payload.
    let payload = client.watch(&running, |_| {}).expect("watch terminates");
    assert_eq!(payload.get("cancelled").and_then(Json::as_bool), Some(true));
    handle.shutdown();

    // The spool records the cancelled state (including where it stopped)…
    let records = Spool::open(&dir).expect("spool opens").load_all();
    let record = records.iter().find(|r| r.job == running).expect("record kept");
    assert_eq!(record.phase, JobPhase::Cancelled);
    let units = record.units.as_ref().expect("unit records kept");
    let checkpoint = units[0].checkpoint.as_ref().expect("stopping checkpoint kept");
    assert!(checkpoint.groups[0].next_index > 0, "stopped mid-stream, not at 0");
    assert!(checkpoint.groups[0].next_index < 2000, "stopped before the budget");

    // …and a restarted server keeps both jobs terminally cancelled: no
    // resume, no further events.
    let restarted = ServiceHandle::start(config(None)).expect("restart");
    for job in [&running, &queued] {
        assert_eq!(restarted.core().status(job).unwrap().phase, JobPhase::Cancelled);
    }
    let before = restarted.core().events_from(&running, 0).expect("known").len();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        restarted.core().events_from(&running, 0).expect("known").len(),
        before,
        "a restarted server must not resume a cancelled job"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");
    let mut client = Client::connect(addr).expect("client connects");

    // Unknown op, unknown job, invalid spec: each comes back as an error
    // response on a connection that stays usable.
    assert!(client.request(&Json::obj().field("op", "frobnicate")).is_err());
    assert!(client.status("j-nope").is_err());
    let err = client
        .submit(&JobSpec::new(1).add_cell(42, "CT-SEQ"))
        .expect_err("invalid spec rejected");
    assert!(err.contains("unknown target"), "{err}");
    let pong = client.request(&Json::obj().field("op", "ping")).expect("still usable");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

#[test]
fn oversized_specs_are_rejected_with_their_bound() {
    // Each size reaches threads or per-wave buffers, so a spec one past
    // any bound is invalid, and the message names the field and bound.
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    type Field = fn(&mut JobSpec) -> &mut usize;
    let fields: [(&str, usize, Field); 5] = [
        ("basic_blocks", JobSpec::MAX_BASIC_BLOCKS, |s| &mut s.basic_blocks),
        ("instructions", JobSpec::MAX_INSTRUCTIONS, |s| &mut s.instructions),
        ("inputs_per_test_case", JobSpec::MAX_INPUTS_PER_TEST_CASE, |s| {
            &mut s.inputs_per_test_case
        }),
        ("parallelism", CampaignMatrix::MAX_PARALLELISM, |s| &mut s.parallelism),
        ("round_size", JobSpec::MAX_ROUND_SIZE, |s| &mut s.round_size),
    ];
    for (name, bound, field) in fields {
        let mut spec = slice_spec(1);
        *field(&mut spec) = bound;
        assert!(spec.to_matrix().is_ok(), "{name} = {bound} is within bounds");
        *field(&mut spec) = bound + 1;
        match handle.try_submit(spec) {
            Err(SubmitRejection::Invalid(message)) => {
                assert!(message.contains(name), "{message}");
                assert!(message.contains(&bound.to_string()), "{message}");
            }
            other => panic!("{name} = {} accepted: {other:?}", bound + 1),
        }
    }
    handle.shutdown();
}

#[test]
fn oversized_submit_over_tcp_is_refused_and_the_server_keeps_serving() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");
    let mut client = Client::connect(addr).expect("client connects");
    let mut spec = slice_spec(1);
    spec.parallelism = 1_000_000;
    let request = Json::obj().field("op", "submit").field("spec", spec.to_json());
    let err = client.request(&request).expect_err("oversized spec refused");
    assert!(err.contains("parallelism"), "{err}");
    let pong = client.request(&Json::obj().field("op", "ping")).expect("still serving");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn backpressured_submits_retry_and_status_reports_unit_placement() {
    // Fleet mode with a one-unit watermark and no workers: the first job
    // parks two units in the queue, so the next submission must defer.
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: Some("127.0.0.1:0".to_string()),
        queue_watermark: 1,
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let addr = handle.local_addr().expect("TCP front-end attached");
    let fleet = handle.worker_addr().expect("fleet port bound").to_string();

    let spec = JobSpec::new(7).with_budget(40).add_cell(1, "CT-SEQ").add_cell(5, "CT-SEQ");
    let mut client = Client::connect(addr).expect("client connects");
    let job = client.try_submit(&spec).expect("an empty queue accepts");
    match client.try_submit(&spec) {
        Err(SubmitError::Backpressure { retry_after }) => {
            assert!(retry_after >= Duration::from_millis(250), "hint is a usable wait");
        }
        other => panic!("expected a backpressure rejection, got {other:?}"),
    }

    // A worker registering at runtime drains both units...
    let worker = {
        let mut config = WorkerConfig::new(fleet);
        config.name = "drain".to_string();
        config.retry_for = Duration::from_secs(3);
        std::thread::spawn(move || {
            let _ = Worker::new(config).run();
        })
    };
    let result = handle.wait(&job).expect("job completes once a worker joins");
    let baseline = spec.to_matrix().expect("spec resolves").run();
    assert_eq!(
        result.get("cells").expect("result has cells").render(),
        matrix_cells_json(&baseline).render(),
    );

    // ...status reports where each relocatable unit ended up...
    let status = client.status(&job).expect("status");
    let units = status.get("units").and_then(Json::as_array).expect("status lists units");
    let mut targets: Vec<u64> =
        units.iter().filter_map(|u| u.get("target").and_then(Json::as_u64)).collect();
    targets.sort_unstable();
    assert_eq!(targets, vec![1, 5], "one relocatable unit per target group");
    assert!(
        units.iter().all(|u| u.get("state").and_then(Json::as_str) == Some("done")),
        "both units ran to completion"
    );

    // ...and the drained queue reopens submissions without any reset.
    client.try_submit(&spec).expect("a drained queue accepts again");
    handle.shutdown();
    let _ = worker.join();
}
