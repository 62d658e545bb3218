//! The benchmark's definition: workloads, metrics and their regression
//! bounds.  `perfbench --write-spec BENCHMARK.json` renders it; a test keeps
//! the checked-in file equal to the rendering.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::json::Json;
use rvz_model::Contract;
use rvz_service::JobSpec;

/// How the benchmark is launched from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perfbench",
    "--",
];

/// Length of one measured run, in seconds: a run measures matrices of
/// successive seeds until this much time has passed.
pub const RUN_SECONDS: u64 = 30;

/// The workload seed when `--seed` is absent: matrix seed 30 is the
/// ROADMAP's Table 3 reference run.
pub const DEFAULT_SEED: u64 = 30;

/// Test cases per cell group, on every workload (the `table3` default).
pub const BUDGET: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table3Inproc,
    CompliantFixed,
}

/// Pool threads of the in-process workloads, and worker processes of the
/// fleet: one per core of the 2-core reference host.  A single thread
/// rides one shared core, whose co-tenants come and go for minutes at a
/// time; two average both cores.
pub const THREADS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Table3Inproc, Workload::CompliantFixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Inproc => "table3_inproc",
            Workload::CompliantFixed => "compliant_fixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists and its load shape (one line each).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Table3Inproc => {
                "Table 3 path: early stop, 5.3/5.4 re-checks, classify, shared pool; its traced run \
                 also serves the matrices through the fleet. Closed loop, 1 matrix in flight, 2 threads."
            }
            Workload::CompliantFixed => {
                "Targets 1 and 4 x 4 CT contracts all comply: full budget, no re-checks or early \
                 stop, so a seed-independent per-test-case cost. Closed loop, 2 pool threads."
            }
        }
    }

    /// Does the traced run also serve its matrices through the fleet?
    pub fn fleet(self) -> bool {
        self == Workload::Table3Inproc
    }

    /// The workload's matrix for one matrix seed, in process.
    pub fn matrix(self, seed: u64) -> CampaignMatrix {
        match self {
            Workload::Table3Inproc => CampaignMatrix::table3(seed)
                .with_budget(BUDGET)
                .with_parallelism(THREADS),
            // Target 13 (TAGE) was meant to join these but violates CT-SEQ
            // and CT-BPAS at this budget on every seed tried.
            Workload::CompliantFixed => [Target::target1(), Target::target4()]
                .into_iter()
                .fold(CampaignMatrix::new(seed).with_budget(BUDGET), |m, t| {
                    m.add_cells(t, Contract::table3_contracts())
                })
                .with_parallelism(THREADS),
        }
    }

    /// The fleet job for one matrix seed: the cells of `matrix`.
    pub fn job(self, seed: u64) -> JobSpec {
        JobSpec::table3(seed).with_budget(BUDGET)
    }

    /// Cells every matrix of the workload must report.
    pub fn cells(self) -> usize {
        match self {
            Workload::Table3Inproc => 32,
            Workload::CompliantFixed => 8,
        }
    }
}

/// The `i`-th matrix seed of a run: the workload seed itself first (so the
/// default run starts at the ROADMAP's seed-30 matrix), then a splitmix64
/// stream keyed by it.
pub fn matrix_seed(workload_seed: u64, i: u64) -> u64 {
    if i == 0 {
        return workload_seed;
    }
    let mut x = workload_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Matrices a traced run replays: fixed, so every count repeats exactly
/// for a seed.
pub const TRACED_MATRICES: u64 = 2;

/// Matrices a timed run measures at least, however short `--seconds` is.
pub const MIN_MATRICES: usize = 2;

/// Peak memory is read after this many matrices: resident memory grows
/// with every matrix a process runs, so a reading at the end of a
/// time-bounded run would track host speed.
pub const RSS_MATRICES: usize = 2;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics (host time), reported with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("campaign_s", "s", "lower", 0.22),
    e2e("tc_per_s", "1/s", "higher", 0.2),
    e2e("cpu_s", "s", "lower", 0.2),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
    e2e("paper_agreement", "count", "higher", 0.12),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run, per matrix: `_s` is summed self
/// time, `_n` a count.  Metrics of a layer a workload does not run read 0.
/// `executor.setup_s` is the executor's construction (the per-unit CPU
/// clone); `revizor.teardown_s` frees a unit's executor, program and traces.
pub const PER_LAYER: &[PerLayer] = &[
    layer("gen.program_s", "s", "lower"),
    layer("gen.program_n", "count", "lower"),
    layer("gen.inputs_s", "s", "lower"),
    layer("gen.inputs_n", "count", "lower"),
    layer("isa.decode_s", "s", "lower"),
    layer("executor.setup_s", "s", "lower"),
    layer("model.ctrace_s", "s", "lower"),
    layer("model.ctrace_n", "count", "lower"),
    layer("executor.htrace_s", "s", "lower"),
    layer("executor.htrace_n", "count", "lower"),
    layer("analyzer.check_s", "s", "lower"),
    layer("analyzer.raw_violations_n", "count", "lower"),
    layer("analyzer.effective_input_ratio", "ratio", "higher"),
    layer("executor.swap_check_s", "s", "lower"),
    layer("executor.swap_check_n", "count", "lower"),
    layer("executor.artifact_ratio", "ratio", "lower"),
    layer("model.nesting_check_s", "s", "lower"),
    layer("model.nesting_check_n", "count", "lower"),
    layer("model.nesting_discard_ratio", "ratio", "lower"),
    layer("revizor.classify_s", "s", "lower"),
    layer("revizor.teardown_s", "s", "lower"),
    layer("revizor.unit_s", "s", "lower"),
    layer("revizor.unit_self_s", "s", "lower"),
    layer("revizor.stage_coverage_ratio", "ratio", "higher"),
    layer("revizor.trace_overhead_ratio", "ratio", "lower"),
    layer("orchestrator.waves_n", "count", "lower"),
    layer("orchestrator.wave_s_p50", "s", "lower"),
    layer("orchestrator.pool_busy_ratio", "ratio", "higher"),
    layer("orchestrator.tc_measured_n", "count", "lower"),
    layer("orchestrator.wasted_tc_ratio", "ratio", "lower"),
    layer("client.submit_s", "s", "lower"),
    layer("client.first_event_s", "s", "lower"),
    layer("service.wave_gap_s_p50", "s", "lower"),
    layer("service.wave_gap_s_p90", "s", "lower"),
    layer("service.result_s", "s", "lower"),
    layer("service.worker_busy_ratio", "ratio", "higher"),
    layer("service.overhead_ratio", "ratio", "lower"),
    layer("codec.transfer_encode_s", "s", "lower"),
    layer("codec.transfer_decode_s", "s", "lower"),
    layer("codec.transfer_bytes", "bytes", "lower"),
    layer("orchestrator.digest_s", "s", "lower"),
    layer("spool.save_s", "s", "lower"),
];

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is not defined"))
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    Json::obj()
        .field("command", strings(COMMAND))
        .field("paths", strings(&["perfbench"]))
        .field("run_seconds", RUN_SECONDS)
        .field(
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::obj().field("name", w.name()).field("why", w.why()))
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better)
                            .field("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .field(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better)
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_matches_the_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text.trim_end(), benchmark_json().render_pretty().trim_end());
    }

    #[test]
    fn definition_stays_within_the_format_limits() {
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "metric names are unique"
        );
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn layer_map_names_only_defined_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let text = std::fs::read_to_string(path).expect("layers.json");
        let doc = rvz_bench::json::parse(&text).expect("layers.json parses");
        let rows = doc
            .get("layers")
            .and_then(Json::as_array)
            .expect("a `layers` array");
        for row in rows {
            for metric in row
                .get("metrics")
                .and_then(Json::as_array)
                .expect("metrics")
            {
                let name = metric.as_str().expect("metric names are strings");
                assert!(
                    PER_LAYER.iter().any(|m| m.name == name),
                    "unknown per-layer metric {name}"
                );
            }
            for pair in ["moves", "no_change"] {
                for e in row.get(pair).and_then(Json::as_array).expect(pair) {
                    let metric = e.get("metric").and_then(Json::as_str).expect("metric");
                    let workload = e.get("workload").and_then(Json::as_str).expect("workload");
                    assert!(
                        END_TO_END.iter().any(|m| m.name == metric),
                        "unknown metric {metric}"
                    );
                    assert!(
                        Workload::from_name(workload).is_some(),
                        "unknown workload {workload}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_seeds_start_at_the_workload_seed_and_are_distinct() {
        let seeds: Vec<u64> = (0..40).map(|i| matrix_seed(30, i)).collect();
        assert_eq!(seeds[0], 30);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }
}
