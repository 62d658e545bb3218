//! Serve fuzzing campaigns in-process: submit a small Table-3 slice as a
//! job, stream its progress, and verify the served verdicts are
//! byte-identical to running the matrix directly — then show job
//! priorities, cancellation, and multi-host dispatch to a worker host.
//!
//! ```text
//! cargo run --release --example campaign_service
//! ```
//!
//! The same jobs can be served over TCP: start `revizor-serve` and submit
//! with `revizor-submit` (see the README's "Campaign service" section);
//! for real multi-host serving start `revizor-serve --fleet-addr=HOST:PORT`
//! plus one `revizor-worker` per machine.

use revizor_suite::bench::report::matrix_cells_json;
use revizor_suite::prelude::*;

fn main() {
    // An in-process service: two workers, no TCP, no spool.
    let handle = ServiceHandle::start(ServiceConfig::default()).expect("service starts");

    // Target 5 (Skylake, AR+MEM+CB) against the four Table 3 contracts.
    let spec = JobSpec::new(7)
        .with_budget(60)
        .add_cell(5, "CT-SEQ")
        .add_cell(5, "CT-BPAS")
        .add_cell(5, "CT-COND")
        .add_cell(5, "CT-COND-BPAS");
    let job = handle.submit(spec.clone()).expect("job accepted");
    println!("submitted {job} ({} cells)", spec.cells.len());

    let result = handle.wait(&job).expect("job completes");
    for cell in result.get("cells").and_then(|c| c.as_array()).unwrap_or_default() {
        println!(
            "  target {} x {:<14} found: {} ({} test cases)",
            cell.get("target").and_then(|v| v.as_u64()).unwrap_or(0),
            cell.get("contract").and_then(|v| v.as_str()).unwrap_or("?"),
            cell.get("found").and_then(|v| v.as_bool()).unwrap_or(false),
            cell.get("test_cases").and_then(|v| v.as_u64()).unwrap_or(0),
        );
    }

    // The service contract: served verdicts are byte-identical to an
    // in-process matrix run of the same spec.
    let baseline = spec.to_matrix().expect("spec resolves").run();
    assert_eq!(
        result.get("cells").expect("cells present").render(),
        matrix_cells_json(&baseline).render()
    );
    println!("served verdicts match the in-process CampaignMatrix::run byte-for-byte");

    // Priorities and cancellation: a high-priority job jumps the queue;
    // a queued job can be cancelled before it ever runs.
    // The backlog job is long (target 1 always runs its whole budget), so
    // the cancel below reliably lands while it is queued or mid-run.
    let backlog = handle
        .submit(JobSpec::new(11).with_budget(2000).add_cell(1, "CT-SEQ"))
        .expect("backlog job accepted");
    let urgent = handle
        .submit(JobSpec::new(12).with_budget(20).with_priority(10).add_cell(1, "CT-SEQ"))
        .expect("urgent job accepted");
    // Queued → cancelled immediately; already claimed → cooperatively at
    // the next wave boundary.  Either way the wait returns the cancelled
    // payload and no verdicts are ever published for it.
    let phase = handle.cancel(&backlog).expect("cancel accepted");
    let cancelled = handle.wait(&backlog).expect("cancellation terminal");
    assert_eq!(cancelled.get("cancelled").and_then(|c| c.as_bool()), Some(true));
    handle.wait(&urgent).expect("urgent job completes");
    println!(
        "urgent (priority 10) {urgent} completed; {backlog} cancelled ({})",
        if phase == JobPhase::Cancelled { "while queued" } else { "cooperatively" }
    );
    handle.shutdown();

    // Multi-host mode: the same job served through a coordinator and a
    // worker host (a thread here; `revizor-worker` processes in
    // production) is byte-identical too.
    let coordinator = ServiceHandle::start(ServiceConfig {
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = coordinator.worker_addr().expect("worker port bound").to_string();
    let worker = std::thread::spawn(move || {
        let _ = Worker::new(WorkerConfig::new(worker_addr)).run();
    });
    let job = coordinator.submit(spec).expect("job accepted");
    let remote = coordinator.wait(&job).expect("worker-served job completes");
    assert_eq!(
        remote.get("cells").expect("cells present").render(),
        matrix_cells_json(&baseline).render()
    );
    println!("worker-host verdicts match byte-for-byte as well");
    coordinator.shutdown();
    let _ = worker.join();
}
