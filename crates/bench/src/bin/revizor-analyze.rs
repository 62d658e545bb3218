//! Decode a [`ViolationReport`] JSON document and print its static taint
//! analysis: speculation sources, tainted-address transmitters, the
//! speculation window and the gadget classification.
//!
//! Usage: `revizor-analyze --report=PATH` analyzes a report: either a bare
//! `ViolationReport` or a job result / `table3 --json` document whose cells
//! embed `violation` objects.  `revizor-analyze --export-demo=PATH` writes a
//! small deterministic V1 counterexample report (for smoke tests and as an
//! input example).

use revizor::fuzzer::ViolationReport;
use revizor::orchestrator::CampaignMatrix;
use revizor::staticanalysis::{self, TaintReport};
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::json::{self, Json};
use rvz_bench::report::{violation_report_from_json, violation_report_to_json};
use rvz_model::Contract;
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    Flag::value::<String>("report", "PATH", "analyze the violation reports in this JSON document"),
    Flag::value::<String>("export-demo", "PATH", "write a demo V1 counterexample report here"),
];

fn main() -> ExitCode {
    let args = cli::parse(FLAGS);
    let outcome = match (args.get::<String>("report"), args.get::<String>("export-demo")) {
        (Some(path), None) => analyze_file(&path),
        (None, Some(path)) => export_demo(&path),
        _ => cli::refuse("pass exactly one of --report=PATH and --export-demo=PATH"),
    };
    if let Err(e) = outcome {
        eprintln!("revizor-analyze: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Fuzz Target 5 against CT-SEQ with a tiny deterministic budget and write
/// the first counterexample as a bare `ViolationReport` document.
fn export_demo(path: &str) -> Result<(), String> {
    let report = CampaignMatrix::new(7)
        .with_budget(60)
        .add_cell(Target::target5(), Contract::ct_seq())
        .run();
    let violation = report.cells.into_iter().next().and_then(|c| c.violation);
    let violation = violation.ok_or("demo campaign found no violation — seed drifted?")?;
    let doc = violation_report_to_json(&violation).render_pretty();
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote demo ViolationReport to {path}");
    Ok(())
}

fn analyze_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let reports = collect_reports(&doc);
    if reports.is_empty() {
        return Err(format!(
            "{path} contains no decodable ViolationReport (expected a bare report \
             or a document with a `cells` array embedding `violation` objects)"
        ));
    }
    for (label, report) in &reports {
        print_analysis(label, report);
    }
    Ok(())
}

/// Every decodable violation report in the document: the document itself
/// (bare report) or the `violation` field of each entry in its `cells`
/// array (job result payloads and `table3 --json` output).
fn collect_reports(doc: &Json) -> Vec<(String, ViolationReport)> {
    if let Ok(report) = violation_report_from_json(doc) {
        return vec![("report".to_string(), report)];
    }
    // Result payloads nest the cells one level down ({"result": {"cells": ...}}).
    let cells = doc
        .get("cells")
        .or_else(|| doc.get("result").and_then(|r| r.get("cells")))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| {
            let report = violation_report_from_json(cell.get("violation")?).ok()?;
            let target = cell.get("target").map(|t| t.render()).unwrap_or_default();
            let contract = cell
                .get("contract")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("cell {i}"));
            Some((format!("target {target} x {contract}"), report))
        })
        .collect()
}

fn print_analysis(label: &str, report: &ViolationReport) {
    let tc = &report.test_case;
    let taint = staticanalysis::analyze(tc);
    println!("=== {label}: {} violation ({}) ===", report.contract.name(), report.vulnerability);
    println!("{}", tc.to_asm());
    print_taint(&taint);
    match report.gadget.or_else(|| staticanalysis::classify_signature(tc)) {
        Some(sig) => println!(
            "gadget class: {} ({} -> {}{}{})",
            sig.label(),
            sig.source,
            sig.transmitter,
            if sig.through_load { ", through load" } else { "" },
            if sig.var_latency { ", variable latency" } else { "" },
        ),
        None => println!("gadget class: unclassified (no tainted transmitter attributable)"),
    }
    println!();
}

fn print_taint(taint: &TaintReport) {
    println!("speculation sources:");
    if taint.sources.is_empty() {
        println!("  (none)");
    }
    for s in &taint.sources {
        match s.instr {
            Some(i) => println!("  {} at block {}, instruction {}", s.kind, s.block, i),
            None => println!("  {} at block {} terminator", s.kind, s.block),
        }
    }
    println!("tainted-address transmitters:");
    if taint.transmitters.is_empty() {
        println!("  (none)");
    }
    for t in &taint.transmitters {
        let mut deps = Vec::new();
        if t.input_tainted {
            deps.push("input-tainted");
        }
        if t.transient_tainted {
            deps.push("transient-tainted");
        }
        if t.through_load {
            deps.push("through load");
        }
        println!("  {} at block {}, instruction {} ({})", t.kind, t.block, t.instr, deps.join(", "));
    }
    println!(
        "speculation window: {} position(s); leak {}",
        taint.window.len(),
        if taint.leak_possible { "POSSIBLE" } else { "impossible — filterable" },
    );
}
