//! Protocol round-trip properties: arbitrary client frames (submit with
//! priorities, status/result/watch/cancel) survive `rvz_bench::json`
//! encode → decode unchanged, worker-protocol checkpoint transfers survive
//! the binary transfer codec unchanged, and truncated, garbage, overlong
//! or retired-encoding frames yield clean errors or a dropped peer —
//! never panics, never a stalled reactor.

use revizor::orchestrator::{CellProgress, GroupProgress, MatrixCheckpoint};
use revizor::diversity::PatternCoverage;
use revizor::EffectivenessStats;
use rvz_bench::binfmt::{
    checkpoint_transfer_from_binary, checkpoint_transfer_to_binary, frame_len, parse_frame,
    KIND_GRANT, TAG_META,
};
use rvz_bench::json::{parse, Json};
use rvz_service::{Client, JobSpec, ServiceConfig, ServiceHandle, Spool, UnitPhase};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// An arbitrary job id-ish string (including empty and non-ASCII).
fn job_string(bits: u64) -> String {
    const POOL: [&str; 6] = ["", "j1-2", "jdead-beef", "…uni≠code…", "j\u{10348}x", "-"];
    POOL[(bits % POOL.len() as u64) as usize].to_string()
}

/// Build an arbitrary-but-valid-shape JobSpec from raw bits.
fn spec_from(seed: u64, priority: i64, knobs: u64, cells: &[(u8, u64)]) -> JobSpec {
    let mut spec = JobSpec::new(seed).with_priority(priority);
    spec.budget = (knobs & 0xFFFF) as usize;
    spec.round_size = ((knobs >> 16) & 0xFF) as usize;
    spec.parallelism = ((knobs >> 24) & 0x7) as usize;
    spec.inputs_per_test_case = ((knobs >> 27) & 0x3F) as usize;
    spec.basic_blocks = ((knobs >> 37) & 0xF) as usize;
    spec.instructions = ((knobs >> 41) & 0x3F) as usize;
    spec.branch_then_load_bias = knobs & (1 << 47) != 0;
    spec.escalation = knobs & (1 << 48) != 0;
    const CONTRACTS: [&str; 5] = ["CT-SEQ", "CT-BPAS", "CT-COND", "ARCH-SEQ", "NOT-A-CONTRACT"];
    for (target, pick) in cells {
        // Codec round-trips do not require resolvable targets/contracts —
        // resolution happens later, at `to_matrix`.
        spec = spec.add_cell(*target, CONTRACTS[(pick % 5) as usize]);
    }
    spec
}

/// A synthetic checkpoint exercising the transfer codec's full shape
/// (violation-carrying cells are covered by the real-run round-trip tests
/// in `rvz_bench::report`).
fn checkpoint_from(scalars: [u64; 4], groups: &[(u8, u64)], cells: &[u64]) -> MatrixCheckpoint {
    MatrixCheckpoint {
        wave: (scalars[0] % 1000) as usize,
        seed: scalars[1],
        budget: (scalars[2] & 0xFFFF) as usize,
        round_size: (scalars[2] >> 16 & 0xFF) as usize,
        escalation: scalars[2] & (1 << 63) != 0,
        config_digest: scalars[3],
        cells: cells
            .iter()
            .map(|&c| {
                (c & 1 == 1).then(|| CellProgress {
                    violation: None,
                    test_cases: (c >> 1 & 0xFFFF) as usize,
                    filtered: (c >> 40 & 0xFF) as usize,
                    total_inputs: (c >> 17 & 0xFFFF) as usize,
                    effectiveness: EffectivenessStats {
                        total_inputs: (c >> 17 & 0xFFFF) as usize,
                        effective_inputs: (c >> 21 & 0xFFF) as usize,
                        classes: (c >> 48 & 0xFF) as usize,
                        singleton_classes: (c >> 52 & 0xFF) as usize,
                    },
                    detection_time: Duration::from_nanos(c >> 33),
                })
            })
            .collect(),
        groups: groups
            .iter()
            .map(|&(target_id, g)| GroupProgress {
                target_id,
                next_index: (g & 0xFFFF) as usize,
                test_cases: (g >> 16 & 0xFFFF) as usize,
                filtered: (g >> 24 & 0xFF) as usize,
                total_inputs: (g >> 32 & 0xFFFF) as usize,
                effectiveness: vec![EffectivenessStats {
                    total_inputs: (g >> 32 & 0xFFFF) as usize,
                    effective_inputs: (g >> 36 & 0xFFF) as usize,
                    classes: (g >> 8 & 0xFF) as usize,
                    singleton_classes: (g >> 12 & 0xFF) as usize,
                }],
                round: (g >> 48 & 0xFF) as usize,
                work: Duration::from_nanos(g.rotate_left(13)),
                escalations: (g >> 56 & 0xF) as usize,
                coverage_level: 1 + (g >> 60 & 0x3) as usize,
                round_improved: g & (1 << 63) != 0,
                coverage: PatternCoverage::new(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Submit specs — priorities (any i64), all knobs, arbitrary cell
    /// lists — survive render → parse → decode exactly, in both the UTF-8
    /// and the ASCII-escaped renderings.
    #[test]
    fn job_specs_round_trip(
        seed in any::<u64>(),
        priority in any::<i64>(),
        knobs in any::<u64>(),
        cells in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let cells: Vec<(u8, u64)> = cells.iter().map(|&c| ((c >> 8) as u8, c)).collect();
        let spec = spec_from(seed, priority, knobs, &cells);
        let doc = spec.to_json();
        prop_assert_eq!(&JobSpec::from_json(&parse(&doc.render()).unwrap()).unwrap(), &spec);
        prop_assert_eq!(&JobSpec::from_json(&parse(&doc.render_ascii()).unwrap()).unwrap(), &spec);
        // Wrapped in a full submit frame, like the wire carries it.
        let frame = Json::obj().field("op", "submit").field("spec", doc.clone());
        let parsed = parse(&frame.render()).unwrap();
        prop_assert_eq!(parsed.get("op").and_then(Json::as_str), Some("submit"));
        prop_assert_eq!(&JobSpec::from_json(parsed.get("spec").unwrap()).unwrap(), &spec);
    }

    /// The query/cancel frames round-trip for arbitrary job ids (unicode
    /// included) through both renderings.
    #[test]
    fn query_frames_round_trip(bits in any::<u64>(), pick in 0usize..4) {
        let op = ["status", "result", "watch", "cancel"][pick];
        let frame = Json::obj().field("op", op).field("job", job_string(bits));
        prop_assert_eq!(&parse(&frame.render()).unwrap(), &frame);
        prop_assert_eq!(&parse(&frame.render_ascii()).unwrap(), &frame);
    }

    /// Checkpoint-transfer payloads round-trip exactly through the binary
    /// transfer codec (the only one the fleet wire speaks) and their
    /// digests validate end to end — for arbitrary scalar loads, group
    /// sets, cell maps and job ids.
    #[test]
    fn checkpoint_transfers_round_trip_and_validate(
        s0 in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
        groups in proptest::collection::vec(any::<u64>(), 0..4),
        cells in proptest::collection::vec(any::<u64>(), 0..8),
        job_bits in any::<u64>(),
    ) {
        let groups: Vec<(u8, u64)> = groups.iter().map(|&g| ((g >> 5) as u8, g)).collect();
        let mut cp = checkpoint_from([s0, s1, s2, s3], &groups, &cells);
        // The transfer header must agree with the payload's wave.
        let job = job_string(job_bits);
        let meta = Json::obj().field("op", "wave").field("lease", job_bits);
        let frame = checkpoint_transfer_to_binary(&job, &cp, &meta);
        let transfer = checkpoint_transfer_from_binary(&frame).unwrap().transfer;
        prop_assert_eq!(&transfer.job, &job);
        prop_assert_eq!(&transfer.checkpoint, &cp);
        prop_assert!(transfer.validates(), "decode must preserve the digest");
        // Sensitivity: a mutated payload no longer validates against the
        // original digest.
        cp.wave += 1;
        prop_assert!(cp.digest() != transfer.digest);
    }

    /// Every strict prefix of a rendered frame is a clean parse error —
    /// not a panic, not an accepted document.
    #[test]
    fn truncated_frames_error_cleanly(
        seed in any::<u64>(), knobs in any::<u64>(), cut in any::<u64>(),
    ) {
        let spec = spec_from(seed, -7, knobs, &[(5, 0), (1, 3)]);
        let frame = Json::obj().field("op", "submit").field("spec", spec.to_json()).render();
        let cut = (cut % frame.len() as u64) as usize;
        // Cut at a char boundary (frames are ASCII here, but stay safe).
        let mut cut = cut;
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        let err = parse(&frame[..cut]).expect_err("strict prefixes of an object are invalid");
        prop_assert!(!err.is_empty());
    }

    /// Arbitrary garbage never panics the parser; failures are described.
    #[test]
    fn garbage_never_panics_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let garbage = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = parse(&garbage) {
            prop_assert!(!e.is_empty(), "errors must carry a message");
        }
    }
}

/// Live-reactor resilience: garbage, truncation-then-newline and unknown
/// ops come back as error responses on a connection that keeps working —
/// and the server keeps serving other clients (no reactor stall).
#[test]
fn garbage_frames_do_not_stall_the_reactor() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");

    let stream = TcpStream::connect(addr).expect("raw client connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let write = |line: &str| {
        (&stream).write_all(line.as_bytes()).expect("write");
        (&stream).write_all(b"\n").expect("write newline");
    };
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server responds");
        parse(line.trim_end()).expect("responses are valid JSON")
    };

    // Garbage bytes, a truncated frame, valid JSON of the wrong shape, an
    // unknown op: each yields {"ok": false} with a message.
    for bad in [
        "\u{7}notjson\u{3}",
        r#"{"op":"submit","spec":{"seed":3"#,
        r#"[1, 2, 3]"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"cancel"}"#,
    ] {
        write(bad);
        let response = read_response();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "bad frame must yield an error response: {bad}"
        );
        assert!(response.get("error").and_then(Json::as_str).is_some_and(|e| !e.is_empty()));
    }
    // The abused connection still works…
    write(r#"{"op":"ping"}"#);
    assert_eq!(read_response().get("pong").and_then(Json::as_bool), Some(true));
    // …and so does a fresh client doing real work through the reactor.
    let mut client = Client::connect(addr).expect("client connects");
    let job = client
        .submit(&JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("submit still works");
    client.watch(&job, |_| {}).expect("job completes");
    handle.shutdown();
}

/// A submit whose spec carries a field the spec does not have, such as a
/// misspelled one, is refused with the field's name instead of running the
/// job with defaults the client never asked for.
#[test]
fn submits_with_unknown_spec_fields_are_refused_by_name() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = handle.local_addr().expect("TCP front-end attached");
    let stream = TcpStream::connect(addr).expect("raw client connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for key in ["budegt", "reps", "repetitions"] {
        let frame = format!(
            r#"{{"op":"submit","spec":{{"seed":3,"{key}":2,"cells":[{{"target":1,"contract":"CT-SEQ"}}]}}}}"#
        );
        (&stream).write_all(format!("{frame}\n").as_bytes()).expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("server responds");
        let response = parse(line.trim_end()).expect("responses are valid JSON");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{key}");
        let error = response.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains(&format!("`{key}`")), "{error}");
    }
    handle.shutdown();
}

/// The coordinator's worker port drops peers that do not speak the
/// protocol instead of stalling on them.
#[test]
fn garbage_on_the_worker_port_drops_the_peer_not_the_coordinator() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = handle.worker_addr().expect("worker port bound");

    // A peer speaking garbage gets disconnected.
    let garbage_peer = TcpStream::connect(worker_addr).expect("peer connects");
    (&garbage_peer).write_all(b"\x01\x02 not a frame\n").expect("write");
    garbage_peer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = [0u8; 16];
    let n = std::io::Read::read(&mut (&garbage_peer), &mut buf).expect("read EOF");
    assert_eq!(n, 0, "the coordinator must close a non-protocol peer");

    // A real worker on the same port still serves jobs afterwards.
    let mut config = rvz_service::WorkerConfig::new(worker_addr.to_string());
    config.name = "post-garbage".to_string();
    let worker = std::thread::spawn(move || {
        let _ = rvz_service::Worker::new(config).run();
    });
    let job = handle
        .submit(JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("job accepted");
    handle.wait(&job).expect("job completes after the garbage peer");
    handle.shutdown();
    let _ = worker.join();
}

/// Wait for the peer to close `stream`: EOF or a reset, never data and
/// never a timeout.
fn assert_closed_by_peer(mut stream: &TcpStream, what: &str) {
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            // Control lines queued before the violation may still arrive.
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                    "{what}: the peer must be dropped, not left waiting"
                );
                return;
            }
        }
    }
}

/// A newline-free stream longer than the line cap closes that connection
/// on both ports, and both ports keep serving everyone else.
#[test]
fn overlong_lines_close_the_connection_on_both_ports() {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let client_addr = handle.local_addr().expect("client port bound");
    let worker_addr = handle.worker_addr().expect("worker port bound");
    let flood = vec![b'x'; 2 << 20];
    for (port, addr) in [("client port", client_addr), ("worker port", worker_addr)] {
        let peer = TcpStream::connect(addr).expect("peer connects");
        // The write fails part-way once the server drops the connection.
        let _ = (&peer).write_all(&flood);
        assert_closed_by_peer(&peer, port);
    }

    // A well-behaved client and worker are still served.
    let mut client = Client::connect(client_addr).expect("client connects");
    let pong = client.request(&Json::obj().field("op", "ping")).expect("ping answered");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    let mut config = rvz_service::WorkerConfig::new(worker_addr.to_string());
    config.name = "post-flood".to_string();
    let worker = std::thread::spawn(move || {
        let _ = rvz_service::Worker::new(config).run();
    });
    let job = client
        .submit(&JobSpec::new(3).with_budget(4).add_cell(1, "CT-SEQ"))
        .expect("submit still works");
    client.watch(&job, |_| {}).expect("job completes after the floods");
    handle.shutdown();
    let _ = worker.join();
}

/// Register and lease by hand on the worker port; returns the connection
/// and the `(job, target, lease)` of the binary grant frame it received.
fn lease_by_hand(addr: SocketAddr, name: &str) -> (TcpStream, String, u64, u64) {
    let stream = TcpStream::connect(addr).expect("peer connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let register = Json::obj().field("op", "register").field("worker", name);
    let lease = Json::obj().field("op", "lease");
    (&stream)
        .write_all(format!("{}\n{}\n", register.render(), lease.render()).as_bytes())
        .expect("write");
    let mut buf = Vec::new();
    loop {
        // Skip the JSON control lines (the `registered` ack) ahead of the
        // grant.
        while buf.first() == Some(&b'{') {
            let Some(end) = buf.iter().position(|&b| b == b'\n') else { break };
            buf.drain(..=end);
        }
        if let Ok(Some(total)) = frame_len(&buf) {
            if buf.len() >= total {
                let frame = parse_frame(&buf[..total]).expect("grant frame parses");
                assert_eq!(frame.kind, KIND_GRANT, "grants are binary frames");
                let meta = frame.json_section(TAG_META, "meta").expect("grant meta");
                let job = meta.get("job").and_then(Json::as_str).expect("job").to_string();
                let target = meta.get("target").and_then(Json::as_u64).expect("target");
                let lease = meta.get("lease").and_then(Json::as_u64).expect("lease");
                return (stream, job, target, lease);
            }
        }
        let mut chunk = [0u8; 4096];
        let n = (&stream).read(&mut chunk).expect("grant arrives");
        assert!(n > 0, "the coordinator closed before granting");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A checkpoint transfer sent as a JSON line — the retired encoding —
/// is a protocol violation: the coordinator drops the peer and requeues
/// its unit at once, and nothing from the frame is spooled.
#[test]
fn json_checkpoint_transfers_are_rejected_and_never_spooled() {
    let dir = std::env::temp_dir()
        .join(format!("rvz-protocol-test-{}-json-transfer", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: Some(dir.clone()),
        listen: None,
        worker_listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("coordinator starts");
    let worker_addr = handle.worker_addr().expect("worker port bound");
    let spec = JobSpec::new(3).with_budget(40).add_cell(1, "CT-SEQ");
    let initial = spec.to_matrix().expect("spec resolves").initial_checkpoint();
    let job = handle.submit(spec).expect("job accepted");

    for op in ["wave", "unit_done"] {
        let (peer, granted, target, lease) = lease_by_hand(worker_addr, "json-peer");
        assert_eq!(granted, job);
        let frame = Json::obj()
            .field("op", op)
            .field("job", job.as_str())
            .field("target", target)
            .field("lease", lease)
            .field("wave", 1u64)
            .field("digest", 0u64)
            .field("checkpoint", Json::obj())
            .field("events", Json::Arr(vec![Json::obj().field("event", "round")]));
        (&peer).write_all(format!("{}\n", frame.render()).as_bytes()).expect("write");
        assert_closed_by_peer(&peer, op);
        // The unit is back in the queue at once, with nothing replicated.
        let status = handle.core().status(&job).expect("job known");
        assert_eq!(status.events, 0, "{op}: no events published");
        assert!(
            status.units.iter().all(|u| u.phase == UnitPhase::Queued && u.wave == 0),
            "{op}: the unit is requeued without progress: {:?}",
            status.units
        );
    }
    handle.shutdown();
    let records = Spool::open(&dir).expect("spool opens").load_all();
    let record = records.iter().find(|r| r.job == job).expect("job spooled");
    assert!(
        record.checkpoint.as_ref().is_none_or(|cp| *cp == initial),
        "the job's spooled view is still its starting point"
    );
    assert!(
        record.units.iter().flatten().all(|u| u.checkpoint.is_none()),
        "no unit checkpoint was spooled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
