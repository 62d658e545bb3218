//! emu_throughput: the machine-readable perf trajectory of the pre-decoded
//! emulator inner loop, written to `BENCH_emu.json` (same pattern as
//! `fleet-bench` / `BENCH_fleet.json`) so future changes can track the
//! interpreter's throughput without parsing README prose.
//!
//! ```text
//! emu_throughput [--out=BENCH_emu.json] [--programs=8] [--reps=N]
//! ```
//!
//! Four sections, one per execution layer (two for the model), each timing
//! the retained reference interpreter (per-step AST walk, heap-allocated
//! effect lists, full-state-clone speculation checkpoints) against the
//! pre-decoded loop (dense instruction array decoded once per program,
//! inline event buffers, delta checkpoints) over the same generated
//! workload:
//!
//! * `arch`  — the architectural runner ([`Runner`]), no speculation;
//! * `model` — the contract model (CT-COND-BPAS with nested speculation:
//!   the heaviest ctrace collection loop);
//! * `model_slate` — the contract model as the campaign runs it: the
//!   Table 3 slate through [`ContractModel::collect_slate_decoded`] (one
//!   emulator per program, each speculative site explored once per
//!   exploration key) against four independent reference walks per input;
//! * `uarch` — the speculative CPU ([`SpecCpu`]) with assists enabled;
//! * `executor` — hardware-trace collection at the paper's schedule
//!   ([`ExecutorConfig::paper`]: 3 warm-up + 50 measured passes), through
//!   a wrapper CPU that cannot describe its state (every pass simulated)
//!   against the plain [`SpecCpu`] (passes replayed from the schedule's
//!   fixed point).  Its checksum folds the merged traces of every program
//!   once, so it does not depend on `--reps`, and `replayed_pass_share` is
//!   the share of scheduled passes the fixed point replayed.
//!
//! Decode time is charged to the decoded side (once per program, amortized
//! over `reps × inputs` runs — exactly how the executor and campaign use
//! it).  Before anything is timed, every (program, input) pair is run
//! through both paths and compared (for `executor`, every program's merged
//! traces); `verdicts_identical` in the output is that comparison, asserted
//! in-binary.  A speedup that changes verdicts is a bug, not a result.

use rvz_bench::json::Json;
use rvz_bench::{flag_from_args, flag_value_from_args};
use rvz_cache::Cache;
use rvz_emu::{Fault, Runner};
use rvz_executor::{Executor, ExecutorConfig, HTrace};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{DecodedProgram, Input, TestCase};
use rvz_model::{Contract, ContractModel};
use rvz_uarch::{CpuUnderTest, RunOptions, RunOutcome, SpecCpu};
use std::time::{Duration, Instant};

const HELP: &str = "emu_throughput: write the emulator inner-loop perf trajectory to BENCH_emu.json

usage: emu_throughput [options]

  --out=PATH       output file (default BENCH_emu.json)
  --programs=N     generated programs per section (default 8)
  --reps=N         timed repetitions of the whole workload (default: per-section)
  -h, --help       this text
";

/// Number of inputs per generated program.
const INPUTS: usize = 8;
/// Generator shape: matches the campaign default (4 blocks, 12 instructions).
const BLOCKS: usize = 4;
const INSTRUCTIONS: usize = 12;
/// Workload seed.
const SEED: u64 = 29;
/// Default number of generated programs.
const PROGRAMS: usize = 8;
/// Sum of `CTrace::digest()` over every Table 3 trace of the default
/// workload: the `model_slate` outputs must hash to it.
const MODEL_SLATE_CHECKSUM: u64 = 10435782227142906620;

/// The generated workload: programs from the target-8 row (full instruction
/// set, conditional branches, store bypass, microcode assists) so every
/// speculation mechanism is on the timed path.
fn workload() -> (Vec<(TestCase, Vec<Input>)>, revizor::targets::Target) {
    let target = revizor::targets::Target::target8();
    let programs = flag_value_from_args::<usize>("--programs").unwrap_or(PROGRAMS);
    let generator = ProgramGenerator::new(
        GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(BLOCKS)
            .with_instructions(INSTRUCTIONS),
    );
    let cases = (0..programs as u64)
        .map(|i| {
            let tc = generator.generate(SEED + i);
            let inputs = InputGenerator::new(4).generate(&tc, SEED ^ (i + 1), INPUTS);
            (tc, inputs)
        })
        .collect();
    (cases, target)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One section's timings rendered the same way as `BENCH_fleet.json`'s
/// `fleet_speedup`: instructions per timed pass, before/after wall-clock,
/// instructions per second for each side, and the ratio.
fn section(instructions: u64, reference: Duration, decoded: Duration, checksum: u64) -> Json {
    Json::obj()
        .field("instructions", instructions)
        .field("reference_ms", ms(reference))
        .field("decoded_ms", ms(decoded))
        .field("reference_instr_per_sec", instructions as f64 / reference.as_secs_f64())
        .field("decoded_instr_per_sec", instructions as f64 / decoded.as_secs_f64())
        .field("speedup", reference.as_secs_f64() / decoded.as_secs_f64())
        .field("checksum", checksum)
}

/// Architectural runner: the plain (non-speculative) interpreter loop.
///
/// The decoded side is timed in its zero-cost-tracer configuration
/// ([`Runner::run_final_decoded`], `NoTrace` sink): every in-tree production
/// consumer of the architectural runner only needs the fault outcome or the
/// final state, and the reference interpreter has no way to skip its
/// per-step trace bookkeeping — that asymmetry is the point of the
/// monomorphized sink.  The full-`ExecTrace` decoded walk is reported
/// alongside as `decoded_trace_ms`.
fn bench_arch(cases: &[(TestCase, Vec<Input>)], reps: usize) -> (Json, bool) {
    // Correctness pass: both trace-building paths agree on every step, block
    // and the final architectural state, the trace-free pass agrees on the
    // final state, and the per-pass instruction count is recorded.
    let mut identical = true;
    let mut instructions = 0u64;
    for (tc, inputs) in cases {
        let prog = DecodedProgram::decode(tc).expect("generated programs decode");
        for input in inputs {
            let quiet = Runner::run_final_decoded(&prog, input, 4096);
            match (Runner::new(tc).run(input), Runner::new(tc).run_reference(input)) {
                (Ok(d), Ok(r)) => {
                    identical &= d.steps == r.steps
                        && d.block_order == r.block_order
                        && d.final_state == r.final_state
                        && quiet.as_ref().ok() == Some(&r.final_state);
                    instructions += d.len() as u64;
                }
                (Err(d), Err(r)) => identical &= d == r && quiet.as_ref().err() == Some(&r),
                _ => identical = false,
            }
        }
    }

    let mut checksum = 0u64;
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            let runner = Runner::new(tc);
            for input in inputs {
                if let Ok(trace) = runner.run_reference(input) {
                    checksum = checksum.wrapping_add(trace.final_state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let trace_start = Instant::now();
    // Decode charged here, once per program — exactly how the executor and
    // campaign pay for it (decoded once, reused across reps and inputs).
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(trace) = Runner::run_decoded(prog, input, 4096) {
                    checksum = checksum.wrapping_add(trace.final_state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let decoded_trace = trace_start.elapsed();

    let decoded_start = Instant::now();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(state) = Runner::run_final_decoded(prog, input, 4096) {
                    checksum = checksum.wrapping_add(state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    let json = section(instructions * reps as u64, reference, decoded, checksum)
        .field("decoded_trace_ms", ms(decoded_trace));
    (json, identical)
}

/// Contract model: ctrace collection under CT-COND-BPAS with nested
/// speculation — the heaviest contract the campaign runs, and the loop where
/// delta checkpoints replace a full `ArchState` clone per episode.
fn bench_model(cases: &[(TestCase, Vec<Input>)], reps: usize) -> (Json, bool) {
    let model = ContractModel::new(Contract::ct_cond_bpas().with_nesting(true));

    let mut identical = true;
    let mut instructions = 0u64;
    for (tc, inputs) in cases {
        for input in inputs {
            identical &= model.collect(tc, input) == model.collect_reference(tc, input);
            if let Ok(trace) = Runner::new(tc).run(input) {
                instructions += trace.len() as u64;
            }
        }
    }

    let mut checksum = 0u64;
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            for input in inputs {
                if let Ok(out) = model.collect_reference(tc, input) {
                    checksum = checksum.wrapping_add(out.trace.digest());
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let decoded_start = Instant::now();
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(out) = model.collect_decoded(prog, input) {
                    checksum = checksum.wrapping_add(out.trace.digest());
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    (section(instructions * reps as u64, reference, decoded, checksum), identical)
}

/// Contract model, slate path: the Table 3 slate through the per-test-case
/// entry against four independent [`ContractModel::collect_reference`]
/// walks per input.  Both sides count every contract's instructions, so
/// the instruction rates compare the same work.  The checksum sums the
/// trace digests of one pass, so it does not depend on `--reps`.
fn bench_model_slate(cases: &[(TestCase, Vec<Input>)], reps: usize) -> (Json, bool) {
    let slate = Contract::table3_contracts();
    let models: Vec<ContractModel> = slate.iter().cloned().map(ContractModel::new).collect();

    let mut identical = true;
    let mut instructions = 0u64;
    let mut checksum = 0u64;
    for (tc, inputs) in cases {
        let prog = DecodedProgram::decode(tc).expect("generated programs decode");
        let outs = ContractModel::collect_slate_decoded(&slate, &prog, inputs);
        for (input, out) in inputs.iter().zip(&outs) {
            for (k, model) in models.iter().enumerate() {
                let reference = model.collect_reference(tc, input);
                identical &= out.as_ref().map(|o| &o[k]) == reference.as_ref();
            }
            for o in out.iter().flatten() {
                checksum = checksum.wrapping_add(o.trace.digest());
            }
            if let Ok(trace) = Runner::new(tc).run(input) {
                instructions += (trace.len() * slate.len()) as u64;
            }
        }
    }

    let mut sink = 0usize;
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            for input in inputs {
                for model in &models {
                    if let Ok(out) = model.collect_reference(tc, input) {
                        sink = sink.wrapping_add(out.trace.len());
                    }
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let decoded_start = Instant::now();
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for outs in ContractModel::collect_slate_decoded(&slate, prog, inputs).iter().flatten()
            {
                sink = sink.wrapping_add(outs.iter().map(|o| o.trace.len()).sum::<usize>());
            }
        }
    }
    let decoded = decoded_start.elapsed();
    std::hint::black_box(sink);
    if cases.len() == PROGRAMS {
        assert_eq!(checksum, MODEL_SLATE_CHECKSUM, "Table 3 slate traces changed");
    }

    let json = section(instructions * reps as u64, reference, decoded, checksum)
        .field("contracts", slate.len() as u64);
    (json, identical)
}

/// RAX of the state the CPU's last run ended in, folded into the checksum
/// so the timed loops cannot be optimized away.
fn final_rax(cpu: &SpecCpu) -> u64 {
    cpu.final_state().map_or(0, |s| s.reg(rvz_isa::Reg::Rax))
}

/// Speculative CPU: the executor's hot loop, with microcode assists enabled
/// (the target-8 measurement mode) and persistent predictor state across the
/// input sequence, exactly like priming.
fn bench_uarch(
    cases: &[(TestCase, Vec<Input>)],
    target: &revizor::targets::Target,
    reps: usize,
) -> (Json, bool) {
    let opts = RunOptions { enable_assists: target.mode.assists };

    let mut identical = true;
    let mut instructions = 0u64;
    {
        let mut dec_cpu = target.cpu();
        let mut ref_cpu = target.cpu();
        for (tc, inputs) in cases {
            dec_cpu.reset_uarch();
            ref_cpu.reset_uarch();
            for input in inputs {
                let d = dec_cpu.run(tc, input, &opts);
                let r = ref_cpu.run_reference(tc, input, &opts);
                identical &= d == r && dec_cpu.final_state() == ref_cpu.final_state();
                if let Ok(out) = d {
                    instructions += out.executed_instructions as u64;
                }
            }
            identical &= dec_cpu.cache() == ref_cpu.cache();
        }
    }

    let mut checksum = 0u64;
    let mut cpu = target.cpu();
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            cpu.reset_uarch();
            for input in inputs {
                if cpu.run_reference(tc, input, &opts).is_ok() {
                    checksum = checksum.wrapping_add(final_rax(&cpu));
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let mut cpu = target.cpu();
    let decoded_start = Instant::now();
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            cpu.reset_uarch();
            for input in inputs {
                if cpu.run_decoded(prog, input, &opts).is_ok() {
                    checksum = checksum.wrapping_add(final_rax(&cpu));
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    (section(instructions * reps as u64, reference, decoded, checksum), identical)
}

/// A [`SpecCpu`] that does not describe its state, so an executor around
/// it simulates every pass of the schedule.
struct FullSchedule(SpecCpu);

impl CpuUnderTest for FullSchedule {
    fn name(&self) -> String {
        self.0.name()
    }

    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault> {
        self.0.run(tc, input, opts)
    }

    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        self.0.run_decoded(prog, input, opts)
    }

    fn cache_mut(&mut self) -> &mut Cache {
        self.0.cache_mut()
    }

    fn reset_uarch(&mut self) {
        self.0.reset_uarch();
    }
}

/// Fold one program's merged traces into an order-dependent checksum.
fn fold_traces(checksum: u64, traces: &[HTrace]) -> u64 {
    traces.iter().fold(checksum, |acc, t| {
        (acc ^ t.sets().bits()).wrapping_mul(0x0100_0000_01b3) ^ u64::from(t.samples())
    })
}

/// Wall-clock of `reps` collections of every program on `executor`.
fn time_collections<C: CpuUnderTest>(
    executor: &mut Executor<C>,
    programs: &[DecodedProgram],
    cases: &[(TestCase, Vec<Input>)],
    reps: usize,
) -> Duration {
    let mut sink = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            let traces = executor.collect_htraces_decoded(prog, inputs);
            sink = sink.wrapping_add(traces.map_or(0, |t| t.len()));
        }
    }
    std::hint::black_box(sink);
    start.elapsed()
}

/// Hardware-trace collection at the paper's schedule: the full schedule
/// against the fixed point, over the same programs and inputs.
fn bench_executor(
    cases: &[(TestCase, Vec<Input>)],
    target: &revizor::targets::Target,
    reps: usize,
) -> (Json, bool) {
    let cfg = ExecutorConfig::paper(target.mode);
    let passes = (cfg.warmup_rounds + cfg.repetitions) as u64;
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();

    let mut identical = true;
    let mut checksum = 0u64;
    let mut full = Executor::new(FullSchedule(target.cpu()), cfg);
    let mut fixed = Executor::new(target.cpu(), cfg);
    for (prog, (_, inputs)) in programs.iter().zip(cases) {
        let expected = full.collect_htraces_decoded(prog, inputs);
        let got = fixed.collect_htraces_decoded(prog, inputs);
        identical &= got == expected;
        if let Ok(traces) = got {
            checksum = fold_traces(checksum, &traces);
        }
    }
    let scheduled = fixed.collection_count() * passes;
    let replayed_share = fixed.replayed_passes() as f64 / scheduled as f64;

    let full_time = time_collections(&mut full, &programs, cases, reps);
    let fixed_time = time_collections(&mut fixed, &programs, cases, reps);

    let json = Json::obj()
        .field("collections", (reps * cases.len()) as u64)
        .field("passes_per_collection", passes)
        .field("full_schedule_ms", ms(full_time))
        .field("fixed_point_ms", ms(fixed_time))
        .field("speedup", full_time.as_secs_f64() / fixed_time.as_secs_f64())
        .field("checksum", checksum)
        .field("replayed_pass_share", replayed_share);
    (json, identical)
}

fn main() {
    if flag_from_args("--help") || flag_from_args("-h") {
        print!("{HELP}");
        return;
    }
    let out =
        flag_value_from_args::<String>("--out").unwrap_or_else(|| "BENCH_emu.json".to_string());
    let reps_override = flag_value_from_args::<usize>("--reps");

    let (cases, target) = workload();
    let programs = cases.len();

    // Per-section repetition counts sized so each timed pass is long enough
    // to be stable on a shared machine (the uarch loop does far more work
    // per instruction than the plain runner).
    let arch_reps = reps_override.unwrap_or(400);
    let model_reps = reps_override.unwrap_or(200);
    let slate_reps = reps_override.unwrap_or(200);
    let uarch_reps = reps_override.unwrap_or(60);
    let executor_reps = reps_override.unwrap_or(20);

    eprintln!("emu_throughput: timing the architectural runner...");
    let (arch, arch_ok) = bench_arch(&cases, arch_reps);
    eprintln!("emu_throughput: timing the contract model (CT-COND-BPAS, nested)...");
    let (model, model_ok) = bench_model(&cases, model_reps);
    eprintln!("emu_throughput: timing the contract model (Table 3 slate)...");
    let (model_slate, slate_ok) = bench_model_slate(&cases, slate_reps);
    eprintln!("emu_throughput: timing the speculative CPU ({})...", target.cpu().name());
    let (uarch, uarch_ok) = bench_uarch(&cases, &target, uarch_reps);
    eprintln!("emu_throughput: timing the executor (paper schedule, fixed point)...");
    let (executor, executor_ok) = bench_executor(&cases, &target, executor_reps);

    let identical = arch_ok && model_ok && slate_ok && uarch_ok && executor_ok;
    assert!(
        identical,
        "decoded loop diverged from the reference interpreter, or the fixed point from the \
         full schedule (arch={arch_ok} model={model_ok} model_slate={slate_ok} uarch={uarch_ok} \
         executor={executor_ok})"
    );

    let doc = Json::obj()
        .field("bench", "emu")
        .field(
            "workload",
            Json::obj()
                .field("programs", programs as u64)
                .field("inputs_per_program", INPUTS as u64)
                .field("blocks", BLOCKS as u64)
                .field("instructions_per_program", INSTRUCTIONS as u64)
                .field("seed", SEED)
                .field("target", target.cpu().name())
                .field("arch_reps", arch_reps as u64)
                .field("model_reps", model_reps as u64)
                .field("model_slate_reps", slate_reps as u64)
                .field("uarch_reps", uarch_reps as u64)
                .field("executor_reps", executor_reps as u64),
        )
        .field("arch", arch)
        .field("model", model)
        .field("model_slate", model_slate)
        .field("uarch", uarch)
        .field("executor", executor)
        .field("verdicts_identical", identical);
    std::fs::write(&out, format!("{}\n", doc.render_pretty())).expect("bench file written");
    eprintln!("emu_throughput: wrote {out}");
    println!("{}", doc.render_pretty());
}
