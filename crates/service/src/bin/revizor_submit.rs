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
//! `--help` lists the flags.  `--target=N` and `--targets=N,M` add each
//! target's cells, one per contract of `--contracts` (default `CT-SEQ`).
//! With `--wait` the job's events stream to stderr and the result JSON is
//! printed to stdout.  Every job measures with the campaign's one schedule
//! (`ExecutorConfig::campaign`), so there is no repetition flag.
//!
//! If the server dies mid-`--wait`, the exit code is 3 and the job id is
//! printed: the job is spooled server-side and resumes on the next server
//! start — re-query it with `--result=JOBID`.

use rvz_bench::cli::{self, Args, Flag, List};
use rvz_bench::json::Json;
use rvz_service::{Client, JobSpec, WatchError};

const FLAGS: &[Flag] = &[
    Flag::value::<String>("addr", "HOST:PORT", "server address (default 127.0.0.1:15790)"),
    Flag::value::<String>("token", "TOKEN", "client token, for servers run with --token-file"),
    Flag::value::<String>("status", "JOB", "print a job's status"),
    Flag::value::<String>("result", "JOB", "print a job's result, or {\"done\":false}"),
    Flag::value::<String>("cancel", "JOB", "cancel a job"),
    Flag::switch("table3", "submit the full Table 3 matrix"),
    Flag::value::<u8>("target", "N", "submit the cells of target N"),
    Flag::value::<List<u8>>("targets", "N,M", "submit the cells of several targets"),
    Flag::value::<List<String>>("contracts", "A,B", "each target's contracts (default CT-SEQ)"),
    Flag::value::<u64>("seed", "N", "matrix seed (default 7)"),
    Flag::value::<usize>("budget", "N", "test cases per cell group"),
    Flag::value::<usize>("round-size", "N", "test cases per scheduling round"),
    Flag::value::<usize>("parallelism", "N", "threads of each work unit's matrix run"),
    Flag::value::<i64>("priority", "N", "higher starts first on a saturated service"),
    Flag::value::<usize>("inputs", "N", "inputs per test case"),
    Flag::switch("escalation", "escalate the generator at round boundaries"),
    Flag::switch("wait", "stream the job's events to stderr, then print its result"),
];

fn fail(message: &str) -> ! {
    eprintln!("revizor-submit: {message}");
    std::process::exit(1)
}

/// The job the flags describe; `None` without `--table3` or a target.
fn job_spec(args: &Args) -> Option<JobSpec> {
    let seed = args.get("seed").unwrap_or(7);
    let mut spec = if args.has("table3") {
        JobSpec::table3(seed)
    } else {
        let mut targets: Vec<u8> = args.get("target").into_iter().collect();
        targets.extend(args.get::<List<u8>>("targets").map_or(vec![], |List(t)| t));
        if targets.is_empty() {
            return None;
        }
        let List(contracts) = args.get("contracts").unwrap_or(List(vec!["CT-SEQ".to_string()]));
        let mut spec = JobSpec::new(seed);
        for target in targets {
            for contract in &contracts {
                spec = spec.add_cell(target, contract);
            }
        }
        spec
    };
    spec.budget = args.get("budget").unwrap_or(spec.budget);
    spec.round_size = args.get("round-size").unwrap_or(spec.round_size);
    spec.parallelism = args.get("parallelism").unwrap_or(spec.parallelism);
    spec.priority = args.get("priority").unwrap_or(spec.priority);
    spec.inputs_per_test_case = args.get("inputs").unwrap_or(spec.inputs_per_test_case);
    spec.escalation |= args.has("escalation");
    Some(spec)
}

fn main() {
    let args = cli::parse(FLAGS);
    let spec = job_spec(&args);
    if spec.is_none() && !["status", "result", "cancel"].iter().any(|query| args.has(query)) {
        cli::refuse("nothing to submit: pass --target=N, --targets=N,M or --table3");
    }
    let addr = args.get("addr").unwrap_or_else(|| "127.0.0.1:15790".to_string());
    let mut client =
        Client::connect(&addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    if let Some(token) = args.get::<String>("token") {
        client = client.with_token(&token);
    }

    // Query modes.
    if let Some(job) = args.get::<String>("status") {
        println!("{}", client.status(&job).unwrap_or_else(|e| fail(&e)).render_pretty());
        return;
    }
    if let Some(job) = args.get::<String>("result") {
        match client.result(&job).unwrap_or_else(|e| fail(&e)) {
            Some(result) => println!("{}", result.render_pretty()),
            None => println!("{}", Json::obj().field("done", false).render()),
        }
        return;
    }
    if let Some(job) = args.get::<String>("cancel") {
        let state = client.cancel(&job).unwrap_or_else(|e| fail(&e));
        eprintln!("revizor-submit: job {job}: {state}");
        println!("{}", Json::obj().field("job", job.as_str()).field("state", state).render());
        return;
    }

    // Submission mode.
    let spec = spec.expect("no query, so the flags describe a job");
    let job = client.submit(&spec).unwrap_or_else(|e| fail(&e));
    eprintln!("revizor-submit: job {job} submitted ({} cells)", spec.cells.len());

    if !args.has("wait") {
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
