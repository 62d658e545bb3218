//! Front-end auth: servers started with a token file reject
//! unauthenticated submits, stamp jobs with the submitting tenant, and
//! scope `list`/`status`/`result`/`cancel` to the caller's own jobs —
//! cross-tenant access is indistinguishable from an unknown job.

use rvz_bench::json::Json;
use rvz_service::{Client, JobSpec, ServiceConfig, ServiceHandle};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-auth-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a token-file server with two tenants and hand back the handle.
fn authed_service(tag: &str) -> ServiceHandle {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let token_file = dir.join("tokens.txt");
    std::fs::write(
        &token_file,
        "# test fleet tokens\n\ntok-a acme\ntok-b beta\n",
    )
    .expect("token file");
    ServiceHandle::start(ServiceConfig {
        shards: 1,
        spool: None,
        listen: Some("127.0.0.1:0".to_string()),
        worker_listen: None,
        token_file: Some(token_file),
        ..ServiceConfig::default()
    })
    .expect("service starts")
}

fn tiny_spec(seed: u64) -> JobSpec {
    JobSpec::new(seed).with_budget(4).add_cell(1, "CT-SEQ")
}

#[test]
fn unauthenticated_and_unknown_tokens_are_rejected() {
    let handle = authed_service("reject");
    let addr = handle.local_addr().expect("front-end bound");

    // No token: the submit is refused with a message pointing at the fix.
    let mut anon = Client::connect(addr).expect("connects");
    let err = anon.submit(&tiny_spec(3)).expect_err("tokenless submit rejected");
    assert!(err.contains("unauthorized"), "unexpected error: {err}");
    assert!(err.contains("token"), "error should name the missing field: {err}");

    // A token the file does not know is just as dead.
    let mut wrong = Client::connect(addr).expect("connects").with_token("tok-nope");
    let err = wrong.submit(&tiny_spec(3)).expect_err("unknown token rejected");
    assert!(err.contains("unauthorized"), "unexpected error: {err}");

    // Liveness probes stay open: ping needs no token even here.
    let pong = anon.request(&Json::obj().field("op", "ping")).expect("ping is exempt");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

#[test]
fn tenants_only_see_their_own_jobs() {
    let handle = authed_service("scope");
    let addr = handle.local_addr().expect("front-end bound");
    let mut acme = Client::connect(addr).expect("connects").with_token("tok-a");
    let mut beta = Client::connect(addr).expect("connects").with_token("tok-b");

    let job = acme.submit(&tiny_spec(3)).expect("authenticated submit works");

    // The owner sees the job (stamped with its tenant) in status and list.
    let status = acme.status(&job).expect("owner reads status");
    assert_eq!(status.get("tenant").and_then(Json::as_str), Some("acme"));
    let listed = acme.request(&Json::obj().field("op", "list").field("token", "tok-a"))
        .expect("owner lists");
    let jobs = listed.get("jobs").and_then(Json::as_array).expect("jobs array");
    assert!(
        jobs.iter().any(|j| j.get("job").and_then(Json::as_str) == Some(job.as_str())),
        "owner's list must include its job"
    );

    // The other tenant gets "unknown job" — no existence leak — and an
    // empty list; cancelling someone else's job is equally impossible.
    for err in [
        beta.status(&job).expect_err("cross-tenant status denied"),
        beta.cancel(&job).expect_err("cross-tenant cancel denied"),
    ] {
        assert!(err.contains("unknown job"), "must not leak existence: {err}");
    }
    let listed = beta.request(&Json::obj().field("op", "list").field("token", "tok-b"))
        .expect("stranger lists");
    let jobs = listed.get("jobs").and_then(Json::as_array).expect("jobs array");
    assert!(
        !jobs.iter().any(|j| j.get("job").and_then(Json::as_str) == Some(job.as_str())),
        "another tenant's list must not show the job"
    );

    // The owner still drives the job to completion normally.
    acme.watch(&job, |_| {}).expect("owner watches to completion");
    assert!(acme.result(&job).expect("owner reads result").is_some());
    let err = beta.result(&job).expect_err("cross-tenant result denied");
    assert!(err.contains("unknown job"), "must not leak existence: {err}");

    handle.shutdown();
}
