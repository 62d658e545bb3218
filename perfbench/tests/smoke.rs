//! Smoke-size runs of every workload, untraced and traced: each prints
//! every metric `BENCHMARK.json` defines, by name and unit, passes its
//! output checks (the traced replay's include equality with
//! `evaluate_seed`), and leaves no fleet process behind.

use rvz_bench::json::{parse, Json};
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
}

/// `(name, unit)` of each metric of one `BENCHMARK.json` section.
fn defined(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke-size workload and return its stdout lines and result.
fn run(workload: &str, trace: u8) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(repo_root())
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = parse(lines.last().expect("a result line")).expect("the last line is JSON");
    (lines, result)
}

fn assert_reports(lines: &[String], result: &Json, section: &str) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object")
    };
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    let expected = defined(section);
    assert_eq!(reported, expected);
    for (name, unit) in &expected {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(name.as_str()) && l.ends_with(&format!(" {unit}"))),
            "no `{name} … {unit}` line"
        );
    }
}

fn check_workload(workload: &str) {
    let (lines, result) = run(workload, 0);
    assert_reports(&lines, &result, "end_to_end");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("detect_s_p90 ") && l.contains(" samples")),
        "the percentile reports its sample count"
    );
    assert!(lines
        .iter()
        .any(|l| l.starts_with("matrix seed ") && l.contains(" verdicts ")));

    // The traced replay passes its checks only when every replayed unit
    // equals an untraced `evaluate_seed`.
    let (lines, result) = run(workload, 1);
    assert_reports(&lines, &result, "per_layer");
    assert!(lines.iter().any(|l| l.starts_with("tracing overhead: ")));
    let coverage = result
        .get("metrics")
        .and_then(|m| m.get("revizor.stage_coverage_ratio"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect("coverage metric");
    assert!(coverage >= 0.95, "stage coverage {coverage}");
}

/// Its traced run also serves the matrices through a loopback fleet.
#[test]
fn table3_inproc_smoke_leaves_no_fleet_process_behind() {
    check_workload("table3_inproc");
    let survivors: Vec<String> = std::fs::read_dir("/proc")
        .expect("/proc")
        .filter_map(Result::ok)
        .filter_map(|e| std::fs::read_link(e.path().join("exe")).ok())
        .map(|exe| exe.display().to_string())
        .filter(|exe| exe.ends_with("/revizor-serve") || exe.ends_with("/revizor-worker"))
        .collect();
    assert!(
        survivors.is_empty(),
        "fleet processes survive: {survivors:?}"
    );
}

#[test]
fn compliant_fixed_smoke() {
    check_workload("compliant_fixed");
}
