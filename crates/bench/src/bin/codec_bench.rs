//! codec-bench: the machine-readable codec comparison, written to
//! `BENCH_codec.json` so CI can gate the binary format's two promises —
//! decode at least 5x faster than the JSON codec, and frames at least 3x
//! smaller — on a real payload, not a synthetic one.
//!
//! Usage: `codec_bench [--out=PATH] [--iters=N]` (see `--help`).
//!
//! The payload is the one that has both codecs: the CT-SEQ V1 violation
//! report of a real campaign run, counterexample and traces included (the
//! result-payload shape the store indexes as binary and results carry as
//! JSON).  Checkpoints have only the binary codec, so there is nothing to
//! compare them against.
//!
//! Exits non-zero when either ratio falls below its floor, so a CI step
//! running this bin *is* the regression gate.

use revizor::orchestrator::CampaignMatrix;
use revizor::fuzzer::ViolationReport;
use revizor::targets::Target;
use rvz_bench::binfmt::{violation_report_from_binary, violation_report_to_binary};
use rvz_bench::cli::{self, Flag};
use rvz_bench::json::{parse, Json};
use rvz_bench::report::{violation_report_from_json, violation_report_to_json};
use rvz_model::Contract;
use std::time::Instant;

const FLAGS: &[Flag] = &[
    Flag::value::<String>("out", "PATH", "output file (default BENCH_codec.json)"),
    Flag::value::<usize>("iters", "N", "timing iterations per codec (default 200)"),
];

/// Floors the binary format promises; the process exits non-zero when a
/// measured ratio falls below them.
const DECODE_SPEEDUP_FLOOR: f64 = 5.0;
const SIZE_RATIO_FLOOR: f64 = 3.0;

/// Time `f` over `iters` runs and return the mean per-run microseconds.
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// The result payload the store indexes: the seed-7 CT-SEQ V1 violation.
fn v1_violation() -> ViolationReport {
    let report = CampaignMatrix::new(7)
        .with_budget(60)
        .add_cell(Target::target5(), Contract::ct_seq())
        .run();
    report.cells[0].violation.clone().expect("V1 found within 60 test cases")
}

fn main() {
    let args = cli::parse(FLAGS);
    let out = args.get("out").unwrap_or_else(|| "BENCH_codec.json".to_string());
    let iters = args.get("iters").unwrap_or(200);

    eprintln!("codec-bench: generating the V1 report...");
    let report = v1_violation();
    let report_json = violation_report_to_json(&report).render();
    let report_bin = violation_report_to_binary(&report);
    assert_eq!(
        violation_report_from_binary(&report_bin).expect("report decodes"),
        report,
        "codec must round-trip before it is worth timing"
    );
    let json_encode_us = time_us(iters, || {
        violation_report_to_json(&report).render();
    });
    let json_decode_us = time_us(iters, || {
        violation_report_from_json(&parse(&report_json).expect("parses")).expect("decodes");
    });
    let binary_encode_us = time_us(iters, || {
        violation_report_to_binary(&report);
    });
    let binary_decode_us = time_us(iters, || {
        violation_report_from_binary(&report_bin).expect("decodes");
    });
    let (json_bytes, binary_bytes) = (report_json.len(), report_bin.len());
    let decode_speedup = json_decode_us / binary_decode_us;
    let size_ratio = json_bytes as f64 / binary_bytes as f64;
    let ok = decode_speedup >= DECODE_SPEEDUP_FLOOR && size_ratio >= SIZE_RATIO_FLOOR;
    eprintln!(
        "codec-bench: violation: decode {json_decode_us:.1}us -> {binary_decode_us:.1}us \
         ({decode_speedup:.1}x), size {json_bytes}B -> {binary_bytes}B ({size_ratio:.1}x) \
         [{}]",
        if ok { "ok" } else { "BELOW FLOOR" },
    );
    let violation = Json::obj()
        .field("payload", "violation")
        .field("json_bytes", json_bytes as u64)
        .field("binary_bytes", binary_bytes as u64)
        .field("size_ratio", size_ratio)
        .field("json_encode_us", json_encode_us)
        .field("json_decode_us", json_decode_us)
        .field("binary_encode_us", binary_encode_us)
        .field("binary_decode_us", binary_decode_us)
        .field("decode_speedup", decode_speedup)
        .field("ok", ok);
    let doc = Json::obj()
        .field("bench", "codec")
        .field("iters", iters as u64)
        .field("decode_speedup_floor", DECODE_SPEEDUP_FLOOR)
        .field("size_ratio_floor", SIZE_RATIO_FLOOR)
        .field("violation", violation);
    std::fs::write(&out, format!("{}\n", doc.render_pretty())).expect("bench file written");
    eprintln!("codec-bench: wrote {out}");
    println!("{}", doc.render_pretty());
    if !ok {
        eprintln!(
            "codec-bench: FAILED — a ratio fell below its floor \
             (decode >= {DECODE_SPEEDUP_FLOOR}x, size >= {SIZE_RATIO_FLOOR}x)"
        );
        std::process::exit(1);
    }
}
