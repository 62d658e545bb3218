//! The traced run.  It drives each matrix wave by wave (`MatrixRun::step`),
//! then re-drives every work unit the orchestrator evaluated through the
//! public stage functions with a span around each call, and checks that
//! the replay is the same computation: each unit equals an untraced
//! `campaign::evaluate_seed`, and each found cell closes at the unit and
//! seed its report names.  For the fleet workload it also submits the
//! matrices as jobs (client-side metrics) and replays every per-wave
//! checkpoint through the codec, digest and spool calls the service makes.

use crate::checks::{check_cells, Checks};
use crate::fleet::{client_layer_metrics, run_jobs, Bins, JobRun};
use crate::spec::{matrix_seed, Workload, BUDGET, THREADS, TRACED_MATRICES};
use crate::stats::{median, ratio, secs};
use crate::Metrics;
use revizor::campaign::{
    evaluate_seed, ContractOutcome, NoopObserver, SeedEval, SlateChecks, SlateSpec, SlateUnit,
};
use revizor::classify::classify;
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint, MatrixReport};
use revizor::staticanalysis::gadget_class;
use revizor::targets::Target;
use rvz_analyzer::Analyzer;
use rvz_bench::binfmt::{checkpoint_transfer_from_binary, checkpoint_transfer_to_binary};
use rvz_bench::json::Json;
use rvz_bench::report::matrix_cells_json;
use rvz_emu::Fault;
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::DecodedProgram;
use rvz_model::{CTrace, Contract, ContractModel, ExecutionInfo};
use rvz_service::{JobPhase, Spool, SpoolRecord, UnitPhase, UnitRecord};
use rvz_uarch::SpecCpu;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Test cases per scheduling round (`CampaignMatrix` and `JobSpec` default).
const ROUND_SIZE: usize = 10;

/// Self-times of the stage spans must cover this share of unit time.
const MIN_STAGE_COVERAGE: f64 = 0.95;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    seed: u64,
    unit: u64,
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    seed: u64,
    unit: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            seed: 0,
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            seed: self.seed,
            unit: self.unit,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` and any child an early return left open.
    fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    fn duration(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Per span name: (summed self time, summed duration, count).
    fn totals(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut children = vec![0.0f64; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p] += self.duration(id);
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let t = totals.entry(span.name).or_default();
            t.0 += self.duration(id) - children[id];
            t.1 += self.duration(id);
            t.2 += 1;
        }
        totals
    }

    /// One tab-separated line per span.
    fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tworkload\tseed\tunit\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{workload}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.seed, s.unit
            );
        }
        std::fs::write(path, out)
    }
}

/// Counts taken at the stage boundaries, summed over the run's matrices.
#[derive(Default)]
struct Counters {
    raw_violations: usize,
    effective_inputs: usize,
    total_inputs: usize,
    swap_checks: usize,
    artifacts: usize,
    nesting_checks: usize,
    nesting_discards: usize,
    units: usize,
    wasted_units: usize,
    untraced_unit_s: f64,
    wave_s: Vec<f64>,
    busy_unit_s: f64,
    wave_capacity_s: f64,
    tc_measured: usize,
    transfer_bytes: usize,
}

/// `campaign::input_stream_seed`: the input-generation seed of a unit.
fn input_stream_seed(test_case_seed: u64) -> u64 {
    test_case_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The orchestrator's unit seed of `(matrix seed, target id, index)`; the
/// replay checks it against every found cell's `test_case_seed`.
fn unit_seed(matrix_seed: u64, target_id: u8, index: usize) -> u64 {
    let mut x = matrix_seed
        ^ u64::from(target_id).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (index as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The slate a matrix cell group evaluates (the `CampaignMatrix::new`
/// generator and measurement defaults).
fn slate_spec(target: &Target, contracts: Vec<Contract>) -> SlateSpec {
    let mut generator = GeneratorConfig::for_subset(target.isa)
        .with_basic_blocks(4)
        .with_instructions(14)
        .with_branch_then_load_bias(true);
    generator.inputs_per_test_case = 20;
    generator.scenario = target.scenario.clone();
    SlateSpec {
        generator,
        executor: ExecutorConfig::fast(target.mode).with_repetitions(2),
        checks: SlateChecks::all(),
        contracts,
        speculation_filter: false,
    }
}

/// `campaign::evaluate_seed` + `evaluate_slate`, one span per stage call.
fn replay_unit(
    tr: &mut Tracer,
    c: &mut Counters,
    cpu: &SpecCpu,
    spec: &SlateSpec,
    seed: u64,
) -> Result<SlateUnit, Fault> {
    let unit = tr.begin("revizor.unit");
    let result = replay_stages(tr, c, cpu, spec, seed);
    tr.end(unit);
    result
}

fn replay_stages(
    tr: &mut Tracer,
    c: &mut Counters,
    cpu: &SpecCpu,
    spec: &SlateSpec,
    seed: u64,
) -> Result<SlateUnit, Fault> {
    let s = tr.begin("gen.program");
    let tc = ProgramGenerator::new(spec.generator.clone()).generate(seed);
    tr.end(s);

    let s = tr.begin("gen.inputs");
    let inputs = InputGenerator::new(spec.generator.input_entropy_bits).generate(
        &tc,
        input_stream_seed(seed),
        spec.generator.inputs_per_test_case,
    );
    tr.end(s);

    let s = tr.begin("executor.setup");
    let mut config = spec.executor;
    config.noise = config.noise.for_test_case_seed(seed);
    let mut executor = Executor::new(cpu.clone(), config);
    let analyzer = Analyzer::new();
    tr.end(s);

    let s = tr.begin("isa.decode");
    let prog = DecodedProgram::decode(&tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
    tr.end(s);

    let contracts = &spec.contracts;
    let mut ctraces: Vec<Vec<CTrace>> = contracts.iter().map(|_| Vec::new()).collect();
    let mut infos: Vec<Vec<ExecutionInfo>> = contracts.iter().map(|_| Vec::new()).collect();
    for input in &inputs {
        let s = tr.begin("model.ctrace");
        let outputs = ContractModel::collect_many_decoded(contracts, &prog, input);
        tr.end(s);
        for (k, out) in outputs?.into_iter().enumerate() {
            ctraces[k].push(out.trace);
            infos[k].push(out.info);
        }
    }

    let s = tr.begin("executor.htrace");
    let htraces = executor.collect_htraces_decoded(&prog, &inputs);
    tr.end(s);
    let htraces = htraces?;
    let noise_mark = executor.noise_checkpoint();

    let mut outcomes = Vec::with_capacity(contracts.len());
    for (k, contract) in contracts.iter().enumerate() {
        executor.restore_noise_checkpoint(&noise_mark);
        let s = tr.begin("analyzer.check");
        let analysis = analyzer.check(&ctraces[k], &htraces);
        let class_members: Vec<Vec<ExecutionInfo>> = analyzer
            .input_classes(&ctraces[k])
            .iter()
            .filter(|class| class.is_effective())
            .map(|class| class.members.iter().map(|&i| infos[k][i].clone()).collect())
            .collect();
        tr.end(s);
        c.raw_violations += analysis.violations.len();
        c.effective_inputs += analysis.stats.effective_inputs;
        c.total_inputs += analysis.stats.total_inputs;

        let (mut discarded_as_artifact, mut discarded_by_nesting, mut confirmed) = (0, 0, None);
        for v in &analysis.violations {
            if spec.checks.priming_swap_check {
                let s = tr.begin("executor.swap_check");
                let artifact = executor.is_measurement_artifact_decoded(
                    &prog, &inputs, &htraces, v.input_a, v.input_b,
                );
                tr.end(s);
                c.swap_checks += 1;
                if artifact? {
                    c.artifacts += 1;
                    discarded_as_artifact += 1;
                    continue;
                }
            }
            if spec.checks.verify_with_nesting && contract.speculation_window > 0 {
                let s = tr.begin("model.nesting_check");
                let nested = ContractModel::new(contract.clone().with_nesting(true));
                let a = nested.collect_decoded(&prog, &inputs[v.input_a]);
                let b = nested.collect_decoded(&prog, &inputs[v.input_b]);
                tr.end(s);
                c.nesting_checks += 1;
                if a?.trace != b?.trace {
                    c.nesting_discards += 1;
                    discarded_by_nesting += 1;
                    continue;
                }
            }
            confirmed = Some(v.clone());
            break;
        }
        outcomes.push(ContractOutcome {
            contract: contract.clone(),
            analysis,
            confirmed_violation: confirmed,
            discarded_as_artifact,
            discarded_by_nesting,
            class_members,
        });
    }
    let s = tr.begin("revizor.teardown");
    drop((executor, prog, ctraces, infos, htraces));
    tr.end(s);
    Ok(SlateUnit {
        seed,
        tc,
        inputs,
        outcomes,
    })
}

/// Replay every unit the orchestrator evaluated for `matrix`, group by
/// group and round by round, with the slate that was active in each round
/// (derived from each cell's `test_cases`).
fn replay_matrix(
    tr: &mut Tracer,
    c: &mut Counters,
    checks: &mut Checks,
    matrix: &CampaignMatrix,
    report: &MatrixReport,
) {
    let mut groups: Vec<(Target, Vec<usize>)> = Vec::new();
    for (i, cell) in matrix.cells().iter().enumerate() {
        match groups.iter_mut().find(|(t, _)| *t == cell.target) {
            Some((_, cells)) => cells.push(i),
            None => groups.push((cell.target.clone(), vec![i])),
        }
    }
    let seed = matrix.seed();
    for (target, cells) in &groups {
        let cpu = target.cpu();
        let contract = |k: usize| matrix.cells()[cells[k]].contract.clone();
        // The stream index each cell closed at (`None`: ran the budget).
        let close: Vec<Option<usize>> = cells
            .iter()
            .map(|&i| {
                report.cells[i]
                    .violation
                    .as_ref()
                    .map(|_| report.cells[i].test_cases - 1)
            })
            .collect();
        let mut replay_close: Vec<Option<usize>> = vec![None; cells.len()];
        let mut index = 0;
        while index < BUDGET {
            let active: Vec<usize> = (0..cells.len())
                .filter(|&k| close[k].is_none_or(|c| c >= index))
                .collect();
            if active.is_empty() {
                break;
            }
            let spec = slate_spec(target, active.iter().map(|&k| contract(k)).collect());
            let end = (index + ROUND_SIZE).min(BUDGET);
            for i in index..end {
                let unit_seed = unit_seed(seed, target.id, i);
                tr.unit = u64::from(target.id) << 32 | i as u64;
                let untraced = |c: &mut Counters| {
                    let t = Instant::now();
                    let eval = evaluate_seed(&cpu, &spec, unit_seed);
                    c.untraced_unit_s += secs(t.elapsed());
                    eval
                };
                // Alternate which of the two runs first, so neither always
                // finds the caches warm.
                let (traced, reference) = if i % 2 == 0 {
                    let traced = replay_unit(tr, c, &cpu, &spec, unit_seed);
                    (traced, untraced(c))
                } else {
                    let reference = untraced(c);
                    (replay_unit(tr, c, &cpu, &spec, unit_seed), reference)
                };
                c.units += 1;
                if close.iter().all(|c| c.is_some_and(|c| c < i)) {
                    c.wasted_units += 1;
                }
                let label = format!("seed {seed} target {} unit {i}", target.id);
                let unit = match (traced, reference) {
                    (Ok(unit), SeedEval::Measured(reference)) if unit == *reference => Some(unit),
                    _ => None,
                };
                checks.check(unit.is_some(), || {
                    format!("{label}: replay differs from evaluate_seed")
                });
                let Some(unit) = unit else { continue };
                for (slot, &k) in active.iter().enumerate() {
                    if replay_close[k].is_some()
                        || unit.outcomes[slot].confirmed_violation.is_none()
                    {
                        continue;
                    }
                    replay_close[k] = Some(i);
                    let s = tr.begin("revizor.classify");
                    let vulnerability = classify(target, &contract(k), &unit.tc);
                    let gadget = gadget_class(&unit.tc, Some(target));
                    tr.end(s);
                    let reported = report.cells[cells[k]].violation.as_ref();
                    checks.check(
                        reported.is_some_and(|v| {
                            v.test_case_seed == unit_seed
                                && v.vulnerability == vulnerability
                                && v.gadget == gadget
                        }),
                        || format!("{label}: replayed violation differs from the cell's report"),
                    );
                }
            }
            index = end;
        }
        checks.check(replay_close == close, || {
            format!("seed {seed} target {}: replayed cells close at {replay_close:?}, report says {close:?}", target.id)
        });
    }
}

/// The service's per-wave persistence path, replayed in process: each
/// unit that progressed ships its sub-checkpoint as a binary transfer
/// (encode, decode, digest validation) and the merged record is spooled.
struct CodecReplay {
    spool: Spool,
    job: String,
    spec: rvz_service::JobSpec,
    rounds: Vec<usize>,
}

impl CodecReplay {
    fn wave(
        &mut self,
        tr: &mut Tracer,
        c: &mut Counters,
        checks: &mut Checks,
        matrix: &CampaignMatrix,
        cp: &MatrixCheckpoint,
    ) {
        let subs = match matrix.split_checkpoint(cp) {
            Ok(subs) => subs,
            Err(e) => return checks.check(false, || format!("split_checkpoint: {e}")),
        };
        self.rounds.resize(subs.len(), 0);
        let units: Vec<UnitRecord> = subs
            .iter()
            .zip(&cp.groups)
            .map(|(sub, g)| UnitRecord {
                target: g.target_id,
                phase: UnitPhase::Leased,
                checkpoint: Some(sub.clone()),
            })
            .collect();
        for (gi, sub) in subs.iter().enumerate() {
            if sub.wave == self.rounds[gi] {
                continue;
            }
            self.rounds[gi] = sub.wave;
            let meta = Json::obj()
                .field("op", "wave")
                .field("target", cp.groups[gi].target_id)
                .field("lease", 1u64);
            let s = tr.begin("codec.transfer_encode");
            let bytes = checkpoint_transfer_to_binary(&self.job, sub, &meta);
            tr.end(s);
            c.transfer_bytes += bytes.len();
            let s = tr.begin("codec.transfer_decode");
            let decoded = checkpoint_transfer_from_binary(&bytes);
            tr.end(s);
            let s = tr.begin("orchestrator.digest");
            let valid = decoded.as_ref().is_ok_and(|d| d.transfer.validates());
            tr.end(s);
            checks.check(
                valid && decoded.is_ok_and(|d| d.transfer.checkpoint == *sub),
                || {
                    format!(
                        "{}: wave {} transfer does not round-trip",
                        self.job, sub.wave
                    )
                },
            );
            let record = SpoolRecord {
                job: self.job.clone(),
                spec: self.spec.clone(),
                phase: JobPhase::Running,
                checkpoint: Some(cp.clone()),
                units: Some(units.clone()),
                result: None,
                cancel_requested: false,
            };
            let s = tr.begin("spool.save");
            let saved = self.spool.save(&record);
            tr.end(s);
            checks.check(saved.is_ok(), || {
                format!("{}: spool save failed: {saved:?}", self.job)
            });
        }
    }
}

/// Drive one matrix wave by wave, timing each `MatrixRun::step`.
fn drive_waves(
    tr: &mut Tracer,
    c: &mut Counters,
    checks: &mut Checks,
    matrix: &CampaignMatrix,
    mut codec: Option<&mut CodecReplay>,
) -> MatrixReport {
    let mut run = matrix.start();
    let mut work_before = 0.0;
    loop {
        let t = Instant::now();
        if !run.step(&mut NoopObserver) {
            break;
        }
        let wall = secs(t.elapsed());
        let cp = run.checkpoint();
        let work: f64 = cp.groups.iter().map(|g| secs(g.work)).sum();
        c.wave_s.push(wall);
        c.busy_unit_s += work - work_before;
        c.wave_capacity_s += wall * THREADS as f64;
        work_before = work;
        if let Some(codec) = codec.as_deref_mut() {
            codec.wave(tr, c, checks, matrix, &cp);
        }
    }
    run.finish(&mut NoopObserver)
}

pub fn run(
    workload: Workload,
    seed: u64,
    bins: &Bins,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let seeds: Vec<u64> = (0..TRACED_MATRICES).map(|i| matrix_seed(seed, i)).collect();
    let jobs: Vec<JobRun> = if workload.fleet() {
        run_jobs(workload, bins, &seeds, checks)?
    } else {
        Vec::new()
    };
    let spool_dir = bins
        .scratch
        .join(format!("trace-spool-{}", std::process::id()));
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    for (i, &s) in seeds.iter().enumerate() {
        let matrix = workload.matrix(s);
        let mut codec = if workload.fleet() {
            let spool =
                Spool::open(&spool_dir).map_err(|e| format!("{}: {e}", spool_dir.display()))?;
            Some(CodecReplay {
                spool,
                job: format!("perfbench-{s}"),
                spec: workload.job(s),
                rounds: vec![],
            })
        } else {
            None
        };
        (tr.seed, tr.unit) = (s, 0);
        let report = drive_waves(&mut tr, &mut c, checks, &matrix, codec.as_mut());
        c.tc_measured += report.test_cases;
        let cells = matrix_cells_json(&report);
        let rendered = cells.render();
        let label = format!("{} seed {s} (traced)", workload.name());
        let all_compliant = workload == Workload::CompliantFixed;
        check_cells(checks, &label, &cells, workload.cells(), all_compliant);
        if let Some(job) = jobs.get(i) {
            checks.check(job.cells == rendered, || {
                format!("{label}: fleet result.cells differ from the in-process run")
            });
        }
        replay_matrix(&mut tr, &mut c, checks, &matrix, &report);
    }
    let _ = std::fs::remove_dir_all(&spool_dir);
    std::fs::create_dir_all(&bins.scratch).map_err(|e| e.to_string())?;
    let spans_path = bins.scratch.join(format!("spans-{}.tsv", workload.name()));
    tr.write(&spans_path, workload.name())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "spans: {} written to {}",
        tr.spans.len(),
        spans_path.display()
    );

    let totals = tr.totals();
    let per = seeds.len() as f64;
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0) / per;
    let count = |name: &str| totals.get(name).map_or(0, |t| t.2) as f64 / per;
    let unit_s = totals.get("revizor.unit").map_or(0.0, |t| t.1);
    let unit_self_s = totals.get("revizor.unit").map_or(0.0, |t| t.0);
    let coverage = 1.0 - ratio(unit_self_s, unit_s);
    checks.check(coverage >= MIN_STAGE_COVERAGE, || {
        format!(
            "stage self-times cover {:.1} % of unit time, below {:.0} %",
            coverage * 100.0,
            MIN_STAGE_COVERAGE * 100.0
        )
    });
    let overhead = ratio(unit_s - c.untraced_unit_s, c.untraced_unit_s);
    println!(
        "tracing overhead: {:+.2} % ({:.4} s traced units vs {:.4} s untraced evaluate_seed); \
         stage coverage {:.2} %",
        overhead * 100.0,
        unit_s,
        c.untraced_unit_s,
        coverage * 100.0
    );

    let mut metrics: Metrics = vec![
        ("gen.program_s", self_s("gen.program")),
        ("gen.program_n", count("gen.program")),
        ("gen.inputs_s", self_s("gen.inputs")),
        ("gen.inputs_n", count("gen.inputs")),
        ("isa.decode_s", self_s("isa.decode")),
        ("executor.setup_s", self_s("executor.setup")),
        ("model.ctrace_s", self_s("model.ctrace")),
        ("model.ctrace_n", count("model.ctrace")),
        ("executor.htrace_s", self_s("executor.htrace")),
        ("executor.htrace_n", count("executor.htrace")),
        ("analyzer.check_s", self_s("analyzer.check")),
        ("analyzer.raw_violations_n", c.raw_violations as f64 / per),
        (
            "analyzer.effective_input_ratio",
            ratio(c.effective_inputs as f64, c.total_inputs as f64),
        ),
        ("executor.swap_check_s", self_s("executor.swap_check")),
        ("executor.swap_check_n", c.swap_checks as f64 / per),
        (
            "executor.artifact_ratio",
            ratio(c.artifacts as f64, c.swap_checks as f64),
        ),
        ("model.nesting_check_s", self_s("model.nesting_check")),
        ("model.nesting_check_n", c.nesting_checks as f64 / per),
        (
            "model.nesting_discard_ratio",
            ratio(c.nesting_discards as f64, c.nesting_checks as f64),
        ),
        ("revizor.classify_s", self_s("revizor.classify")),
        ("revizor.teardown_s", self_s("revizor.teardown")),
        ("revizor.unit_s", unit_s / per),
        ("revizor.unit_self_s", unit_self_s / per),
        ("revizor.stage_coverage_ratio", coverage),
        ("revizor.trace_overhead_ratio", overhead),
        ("orchestrator.waves_n", c.wave_s.len() as f64 / per),
        ("orchestrator.wave_s_p50", median(&c.wave_s)),
        (
            "orchestrator.pool_busy_ratio",
            ratio(c.busy_unit_s, c.wave_capacity_s),
        ),
        ("orchestrator.tc_measured_n", c.tc_measured as f64 / per),
        (
            "orchestrator.wasted_tc_ratio",
            ratio(c.wasted_units as f64, c.units as f64),
        ),
    ];
    if workload.fleet() {
        metrics.extend(client_layer_metrics(&jobs));
        let fleet_s: f64 = jobs.iter().map(|j| j.campaign_s).sum();
        metrics.push((
            "service.overhead_ratio",
            ratio(fleet_s, c.wave_s.iter().sum()),
        ));
    } else {
        for name in [
            "client.submit_s",
            "client.first_event_s",
            "service.wave_gap_s_p50",
            "service.wave_gap_s_p90",
            "service.result_s",
            "service.worker_busy_ratio",
            "service.overhead_ratio",
        ] {
            metrics.push((name, 0.0));
        }
    }
    metrics.extend([
        ("codec.transfer_encode_s", self_s("codec.transfer_encode")),
        ("codec.transfer_decode_s", self_s("codec.transfer_decode")),
        ("codec.transfer_bytes", c.transfer_bytes as f64 / per),
        ("orchestrator.digest_s", self_s("orchestrator.digest")),
        ("spool.save_s", self_s("spool.save")),
    ]);
    Ok(metrics)
}
