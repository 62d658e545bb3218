//! The command lines of the `rvz-service` binaries: one grammar, refusals
//! with exit 2 before any connect, bind or spawn, `--help` from the flag
//! table, and a startup line that says whether the server authenticates.

#[path = "../../bench/tests/support/mod.rs"]
mod support;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;
use support::{refused, refuses_misspellings};

const SERVE: &str = env!("CARGO_BIN_EXE_revizor-serve");
const SUBMIT: &str = env!("CARGO_BIN_EXE_revizor-submit");
const WORKER: &str = env!("CARGO_BIN_EXE_revizor-worker");

#[test]
fn every_binary_refuses_a_misspelled_flag_and_lists_its_flags() {
    refuses_misspellings(&[
        (
            SERVE,
            &[
                "--addr=HOST:PORT",
                "--spool=DIR",
                "--spool-retain=N",
                "--store=DIR",
                "--token-file=FILE",
                "--shards=N",
                "--fleet-addr=HOST:PORT",
                "--worker-timeout=SECS",
                "--steal-after=SECS",
                "--watermark=N",
            ],
        ),
        (
            SUBMIT,
            &[
                "--addr=HOST:PORT",
                "--token=TOKEN",
                "--status=JOB",
                "--result=JOB",
                "--cancel=JOB",
                "--table3",
                "--target=N",
                "--targets=N,M",
                "--contracts=A,B",
                "--seed=N",
                "--budget=N",
                "--round-size=N",
                "--parallelism=N",
                "--priority=N",
                "--inputs=N",
                "--escalation",
                "--wait",
            ],
        ),
        (WORKER, &["--coordinator=HOST:PORT", "--name=NAME", "--retry-secs=SECS"]),
        (env!("CARGO_BIN_EXE_fleet-bench"), &["--out=PATH", "--wave-delay-ms=MS"]),
    ]);
}

#[test]
fn refusals_come_before_any_connect_or_bind() {
    // Nothing listens on port 1: a failed connect would exit 1, so exit 2
    // proves the value was checked first.
    refused(SUBMIT, &["--addr=127.0.0.1:1", "--budget=3x", "--table3"], "`--budget`");
    refused(SUBMIT, &["--addr=127.0.0.1:17999", "--reps=2", "--table3"], "unknown flag `--reps`");
    refused(SUBMIT, &["--addr=127.0.0.1:1", "--targets=1,x"], "`--targets`");
    refused(SUBMIT, &["--addr=127.0.0.1:1"], "nothing to submit");
    refused(SERVE, &["--token-file", "tokens.txt"], "`--token-file`");
    refused(SERVE, &["--spool", "DIR"], "`--spool`");
    refused(SERVE, &["--coordinator"], "unknown flag `--coordinator`");
    refused(WORKER, &[], "--coordinator=HOST:PORT");
}

/// The first stderr line of `revizor-serve` started with `args`.
fn banner(args: &[&str]) -> String {
    let mut child = Command::new(SERVE)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("revizor-serve starts");
    let stderr = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stderr).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(Duration::from_secs(10));
    let _ = child.kill();
    let _ = child.wait();
    line.expect("revizor-serve printed its banner within 10 s")
}

#[test]
fn the_banner_says_whether_the_server_authenticates() {
    let open = banner(&["--addr=127.0.0.1:0", "--shards=1"]);
    assert!(open.contains("(1 in-process worker, spool: none, auth: open)"), "{open}");

    let tokens = std::env::temp_dir().join(format!("rvz-cli-tokens-{}", std::process::id()));
    std::fs::write(&tokens, "tok tenant\n").expect("token file written");
    let token_file = format!("--token-file={}", tokens.display());
    let authenticated = banner(&["--addr=127.0.0.1:0", "--shards=1", &token_file]);
    let _ = std::fs::remove_file(&tokens);
    assert!(authenticated.contains(&format!("auth: {})", tokens.display())), "{authenticated}");

    // The fleet banner keeps the two addresses where `perfbench` reads
    // them: after "listening on " up to a space, after "register on " up
    // to a comma.
    let fleet = banner(&["--addr=127.0.0.1:0", "--fleet-addr=127.0.0.1:0"]);
    let after = |marker: &str, end: char| {
        let rest = &fleet[fleet.find(marker).expect(marker) + marker.len()..];
        rest.split(end).next().unwrap_or_default().parse::<SocketAddr>()
    };
    assert!(after("listening on ", ' ').is_ok(), "{fleet}");
    assert!(after("register on ", ',').is_ok(), "{fleet}");
    assert!(fleet.contains("auth: open)"), "{fleet}");
}
