//! Query the indexed violation store without re-parsing result payloads.
//!
//! ```text
//! revizor-query --store=DIR [--class=V1] [--target=N] [--contract=NAME]
//!               [--vuln=CLASS] [--mnemonic=M] [--since-job=JOB] [--json]
//! ```
//!
//! The store is written by `revizor-serve --store=DIR` as jobs finish (one
//! entry per violation cell); identical minimized gadgets — same static
//! signature, same program shape after register canonicalization — are
//! merged into one row with an occurrence count and the list of observing
//! jobs.
//!
//! * `--class` — gadget class label (`V1`, `V1.1`, `V2`, `V4`, `V5-ret`, …).
//! * `--target` — Table 2 target id of the violating cell.
//! * `--contract` — contract name of the violating cell (e.g. `CT-SEQ`).
//! * `--vuln` — vulnerability class label (e.g. `Spectre-V1`).
//! * `--mnemonic` — only gadgets whose program contains the mnemonic
//!   (lowercase; terminators contribute `jmp` / `jcc`).
//! * `--since-job` — only gadgets first observed *after* the named job's
//!   last entry ("show me new gadget classes since job X").
//! * `--json` — machine-readable output instead of the table.
//!
//! Examples: all V4 hits on target 3 is `--class=V4 --target=3`; anything
//! new since yesterday's sweep is `--since-job=sweep-42`.

use rvz_bench::cli::{self, Flag};
use rvz_bench::json::Json;
use rvz_store::{MergedEntry, Store};

const FLAGS: &[Flag] = &[
    Flag::value::<String>("store", "DIR", "the store directory (revizor-serve --store; required)"),
    Flag::value::<String>("class", "LABEL", "filter by gadget class (V1, V4, V5-ret, ...)"),
    Flag::value::<u8>("target", "N", "filter by Table 2 target id"),
    Flag::value::<String>("contract", "NAME", "filter by contract name (e.g. CT-SEQ)"),
    Flag::value::<String>("vuln", "CLASS", "filter by vulnerability class label"),
    Flag::value::<String>("mnemonic", "M", "filter by program mnemonic (lowercase; jmp/jcc)"),
    Flag::value::<String>("since-job", "JOB", "only gadgets first observed after JOB's last entry"),
    Flag::switch("json", "machine-readable output"),
];

fn merged_json(m: &MergedEntry) -> Json {
    Json::obj()
        .field("class", m.entry.class.as_str())
        .field("signature", m.entry.signature.as_str())
        .field("target", m.entry.target)
        .field("contract", m.entry.contract.as_str())
        .field("vulnerability", m.entry.vulnerability.as_str())
        .field(
            "mnemonics",
            Json::Arr(m.entry.mnemonics.iter().map(|s| Json::Str(s.clone())).collect()),
        )
        .field("fingerprint", m.entry.fingerprint)
        .field("count", m.count)
        .field("jobs", Json::Arr(m.jobs.iter().map(|s| Json::Str(s.clone())).collect()))
}

fn main() {
    let args = cli::parse(FLAGS);
    let (class, target) = (args.get::<String>("class"), args.get::<u8>("target"));
    let (contract, vuln) = (args.get::<String>("contract"), args.get::<String>("vuln"));
    let mnemonic = args.get::<String>("mnemonic");
    let matches = |m: &&MergedEntry| {
        let e = &m.entry;
        class.as_ref().is_none_or(|class| e.class == *class)
            && target.is_none_or(|target| e.target == target)
            && contract.as_ref().is_none_or(|contract| e.contract == *contract)
            && vuln.as_ref().is_none_or(|vuln| e.vulnerability == *vuln)
            && mnemonic.as_ref().is_none_or(|mnemonic| e.mnemonics.contains(mnemonic))
    };
    let Some(dir) = args.get::<String>("store") else {
        cli::refuse("pass --store=DIR (the directory revizor-serve --store writes)");
    };
    let store = match Store::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("revizor-query: cannot open store `{dir}`: {e}");
            std::process::exit(1);
        }
    };
    let merged = match args.get::<String>("since-job") {
        Some(job) => store.new_since(&job),
        None => store.merged(),
    };
    let merged = match merged {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("revizor-query: {e}");
            std::process::exit(1);
        }
    };
    let rows: Vec<&MergedEntry> = merged.iter().filter(matches).collect();

    if args.has("json") {
        let doc = Json::obj()
            .field("gadgets", Json::Arr(rows.iter().map(|m| merged_json(m)).collect()))
            .field("distinct", rows.len() as u64)
            .field("observations", rows.iter().map(|m| m.count).sum::<u64>());
        println!("{}", doc.render());
        return;
    }
    println!(
        "CLASS    SIGNATURE                    TARGET  CONTRACT   COUNT  \
         JOBS                     MNEMONICS"
    );
    for m in &rows {
        println!(
            "{:<8} {:<28} {:>6}  {:<10} {:>5}  {:<24} {}",
            m.entry.class,
            m.entry.signature,
            m.entry.target,
            m.entry.contract,
            m.count,
            m.jobs.join(","),
            m.entry.mnemonics.join(" "),
        );
    }
    println!(
        "{} distinct gadget(s), {} observation(s)",
        rows.len(),
        rows.iter().map(|m| m.count).sum::<u64>()
    );
}
