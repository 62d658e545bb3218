//! Submit fuzzing jobs to a running `revizor-serve` (and watch/query them).
//!
//! ```text
//! # Submit a two-cell job and stream progress until the result:
//! revizor-submit --addr=127.0.0.1:15790 --target=5 --contracts=CT-SEQ,CT-BPAS \
//!                --seed=7 --budget=60 --wait
//!
//! # Submit the full Table 3 matrix without waiting (prints the job id):
//! revizor-submit --addr=127.0.0.1:15790 --table3 --seed=30 --budget=300
//!
//! # Query (or cancel) an earlier job:
//! revizor-submit --addr=127.0.0.1:15790 --status=JOBID
//! revizor-submit --addr=127.0.0.1:15790 --result=JOBID
//! revizor-submit --addr=127.0.0.1:15790 --cancel=JOBID
//! ```
//!
//! Flags: `--target=N` (repeatable via `--targets=5,6`), `--contracts=A,B`
//! (default `CT-SEQ`), `--seed`, `--budget`, `--round-size`,
//! `--parallelism`, `--priority` (higher starts first on a saturated
//! service), `--inputs` (inputs per test case), `--escalation`,
//! `--table3`, `--token=TOK` (client token, required by servers running
//! with `--token-file`).  With `--wait` the job's events stream to stderr
//! and the result JSON is printed to stdout.  Every job measures with the
//! campaign's one schedule (`ExecutorConfig::campaign`), so there is no
//! repetition flag.
//!
//! An argument that is none of these flags is refused before connecting:
//! the exit code is 2 and the message names it, so a misspelled or retired
//! flag never runs a job with a default the caller did not ask for.
//!
//! If the server dies mid-`--wait`, the exit code is 3 and the job id is
//! printed: the job is spooled server-side and resumes on the next server
//! start — re-query it with `--result=JOBID`.

use rvz_bench::json::Json;
use rvz_bench::{flag_from_args, flag_value_from_args};
use rvz_service::{Client, JobSpec, WatchError};

/// The flags that take a `=value`.
const VALUE_FLAGS: [&str; 14] = [
    "--addr",
    "--token",
    "--status",
    "--result",
    "--cancel",
    "--seed",
    "--target",
    "--targets",
    "--contracts",
    "--budget",
    "--round-size",
    "--parallelism",
    "--priority",
    "--inputs",
];
/// The flags that stand alone.
const SWITCHES: [&str; 3] = ["--table3", "--escalation", "--wait"];

fn fail(message: &str) -> ! {
    eprintln!("revizor-submit: {message}");
    std::process::exit(1)
}

/// The first argument that is not one of the flags above, if any, up to
/// its `=`.
fn unknown_flag() -> Option<String> {
    std::env::args().skip(1).find_map(|arg| {
        let (name, known) = match arg.split_once('=') {
            Some((name, _)) => (name, VALUE_FLAGS.contains(&name)),
            None => (arg.as_str(), SWITCHES.contains(&arg.as_str())),
        };
        (!known).then(|| name.to_string())
    })
}

fn main() {
    if let Some(flag) = unknown_flag() {
        eprintln!("revizor-submit: unknown flag `{flag}`");
        std::process::exit(2);
    }
    let addr =
        flag_value_from_args::<String>("--addr").unwrap_or_else(|| "127.0.0.1:15790".to_string());
    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => fail(&format!("cannot connect to {addr}: {e}")),
    };
    if let Some(token) = flag_value_from_args::<String>("--token") {
        client = client.with_token(&token);
    }

    // Query modes.
    if let Some(job) = flag_value_from_args::<String>("--status") {
        match client.status(&job) {
            Ok(status) => println!("{}", status.render_pretty()),
            Err(e) => fail(&e),
        }
        return;
    }
    if let Some(job) = flag_value_from_args::<String>("--result") {
        match client.result(&job) {
            Ok(Some(result)) => println!("{}", result.render_pretty()),
            Ok(None) => println!("{}", Json::obj().field("done", false).render()),
            Err(e) => fail(&e),
        }
        return;
    }
    if let Some(job) = flag_value_from_args::<String>("--cancel") {
        match client.cancel(&job) {
            Ok(state) => {
                eprintln!("revizor-submit: job {job}: {state}");
                println!("{}", Json::obj().field("job", job.as_str()).field("state", state).render());
            }
            Err(e) => fail(&e),
        }
        return;
    }

    // Submission mode.
    let seed = flag_value_from_args::<u64>("--seed").unwrap_or(7);
    let mut spec = if flag_from_args("--table3") {
        JobSpec::table3(seed)
    } else {
        let mut targets: Vec<u8> = Vec::new();
        if let Some(t) = flag_value_from_args::<u8>("--target") {
            targets.push(t);
        }
        if let Some(list) = flag_value_from_args::<String>("--targets") {
            for part in list.split(',') {
                match part.trim().parse::<u8>() {
                    Ok(t) => targets.push(t),
                    Err(_) => fail(&format!("bad target `{part}` in --targets")),
                }
            }
        }
        if targets.is_empty() {
            fail("nothing to submit: pass --target=N / --targets=…, or --table3");
        }
        let contracts = flag_value_from_args::<String>("--contracts")
            .unwrap_or_else(|| "CT-SEQ".to_string());
        let mut spec = JobSpec::new(seed);
        for target in &targets {
            for contract in contracts.split(',') {
                spec = spec.add_cell(*target, contract.trim());
            }
        }
        spec
    };
    if let Some(budget) = flag_value_from_args::<usize>("--budget") {
        spec.budget = budget;
    }
    if let Some(round_size) = flag_value_from_args::<usize>("--round-size") {
        spec.round_size = round_size;
    }
    if let Some(parallelism) = flag_value_from_args::<usize>("--parallelism") {
        spec.parallelism = parallelism;
    }
    if let Some(priority) = flag_value_from_args::<i64>("--priority") {
        spec.priority = priority;
    }
    if let Some(inputs) = flag_value_from_args::<usize>("--inputs") {
        spec.inputs_per_test_case = inputs;
    }
    if flag_from_args("--escalation") {
        spec.escalation = true;
    }

    let job = match client.submit(&spec) {
        Ok(job) => job,
        Err(e) => fail(&e),
    };
    eprintln!("revizor-submit: job {job} submitted ({} cells)", spec.cells.len());

    if !flag_from_args("--wait") {
        println!("{job}");
        return;
    }
    let result = client.watch(&job, |event| {
        if event.get("event").and_then(Json::as_str) != Some("done") {
            eprintln!("{}", event.render());
        }
    });
    match result {
        Ok(result) => println!("{}", result.render_pretty()),
        Err(WatchError::ServerGone { job }) => {
            // Distinct exit path: the job is NOT lost — it sits in the
            // server's spool and resumes when a server restarts over it.
            eprintln!("revizor-submit: {}", WatchError::ServerGone { job: job.clone() });
            println!("{}", Json::obj().field("job", job).field("server_gone", true).render());
            std::process::exit(3);
        }
        Err(WatchError::Other(e)) => fail(&e),
    }
}
