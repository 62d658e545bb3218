//! Criterion benches for the individual MRT pipeline stages: test-case
//! generation, contract-trace collection (model), hardware-trace collection
//! (executor) and its Prime+Probe side channel, and relational analysis.
//! Together these determine the §6.5 fuzzing speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revizor::gadgets;
use rvz_analyzer::Analyzer;
use rvz_cache::{Cache, CacheConfig, PrimeProbe, SideChannel};
use rvz_executor::{Executor, ExecutorConfig, MeasurementMode};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{DecodedProgram, IsaSubset};
use rvz_model::{Contract, ContractModel};
use rvz_uarch::{CpuUnderTest, SpecCpu, UarchConfig};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    for (name, cfg) in [
        ("initial_8instr_2bb", GeneratorConfig::paper_initial()),
        (
            "escalated_24instr_5bb",
            GeneratorConfig::paper_initial().with_instructions(24).with_basic_blocks(5),
        ),
    ] {
        let generator = ProgramGenerator::new(cfg);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                generator.generate(seed)
            })
        });
    }
    group.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_ctrace");
    let tc = gadgets::spectre_v1();
    let input = InputGenerator::new(2).generate_one(&tc, 3);
    for contract in [Contract::ct_seq(), Contract::ct_cond(), Contract::ct_cond_bpas()] {
        let model = ContractModel::new(contract.clone());
        group.bench_with_input(BenchmarkId::from_parameter(contract.name()), &model, |b, m| {
            b.iter(|| m.collect(&tc, &input).unwrap())
        });
    }
    // The campaign's model stage: one architectural pass per input shared
    // by the Table 3 contract slate, over a decoded generated program.
    let contracts = Contract::table3_contracts();
    let tc = ProgramGenerator::new(GeneratorConfig::paper_initial()).generate(7);
    let prog = DecodedProgram::decode(&tc).unwrap();
    let inputs = InputGenerator::new(2).generate(&tc, 7, 20);
    group.bench_function("collect_many_ct_slate", |b| {
        b.iter(|| {
            inputs
                .iter()
                .map(|input| ContractModel::collect_many_decoded(&contracts, &prog, input).unwrap())
                .collect::<Vec<_>>()
        })
    });
    // The same slate through the per-test-case entry: one emulator and one
    // set of buffers for all 20 inputs.
    group.bench_function("collect_slate_ct_slate", |b| {
        b.iter(|| ContractModel::collect_slate_decoded(&contracts, &prog, &inputs))
    });
    group.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_htrace");
    group.sample_size(30);
    let tc = gadgets::spectre_v1();
    let inputs = InputGenerator::new(2).generate(&tc, 3, 20);
    for (name, mode) in [
        ("prime_probe_20_inputs", MeasurementMode::prime_probe()),
        ("prime_probe_assist_20_inputs", MeasurementMode::prime_probe_assist()),
    ] {
        group.bench_function(name, |b| {
            let cpu = SpecCpu::new(UarchConfig::skylake());
            let mut ex = Executor::new(cpu, ExecutorConfig::fast(mode).with_repetitions(2));
            b.iter(|| ex.collect_htraces(&tc, &inputs).unwrap())
        });
    }
    // The measurement-session payoff grows with the repetition count: every
    // repetition of every input reuses the channel's precomputed address
    // lists and the per-input sample buffers (the paper runs 50 repetitions).
    for reps in [3usize, 5, 10] {
        group.bench_with_input(
            BenchmarkId::new("prime_probe_20_inputs_reps", reps),
            &reps,
            |b, &reps| {
                let cpu = SpecCpu::new(UarchConfig::skylake());
                let mut ex = Executor::new(
                    cpu,
                    ExecutorConfig::fast(MeasurementMode::prime_probe()).with_repetitions(reps),
                );
                b.iter(|| ex.collect_htraces(&tc, &inputs).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_side_channel(c: &mut Criterion) {
    // One Prime+Probe measurement (prepare + measure) on an L1D the victim
    // left untouched, or touched in 1 or 4 sets: the cost grows with the
    // touched sets, not with the cache's 64 sets x 8 ways.
    let mut group = c.benchmark_group("side_channel");
    group.sample_size(20_000);
    let cfg = CacheConfig::l1d();
    for touched in [0u64, 1, 4] {
        let id = BenchmarkId::new("prime_probe_touched_sets", touched);
        group.bench_with_input(id, &touched, |b, &n| {
            let mut cache = Cache::new(cfg);
            let mut pp = PrimeProbe::new();
            pp.prepare(&mut cache);
            b.iter(|| {
                pp.prepare(&mut cache);
                for set in 0..n {
                    cache.access(0x10_0000 + set * 16 * cfg.line_size);
                }
                pp.measure(&mut cache)
            })
        });
    }
    group.finish();
}

fn bench_analyzer(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyzer");
    let tc = gadgets::spectre_v1();
    let inputs = InputGenerator::new(2).generate(&tc, 3, 50);
    let model = ContractModel::new(Contract::ct_seq());
    let ctraces: Vec<_> = inputs.iter().map(|i| model.collect_trace(&tc, i).unwrap()).collect();
    let cpu = SpecCpu::new(UarchConfig::skylake());
    let mut ex = Executor::new(cpu, ExecutorConfig::fast(MeasurementMode::prime_probe()));
    let htraces = ex.collect_htraces(&tc, &inputs).unwrap();
    group.bench_function("relational_check_50_inputs", |b| {
        let analyzer = Analyzer::new();
        b.iter(|| analyzer.check(&ctraces, &htraces))
    });
    group.finish();
}

fn bench_uarch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_under_test");
    let generator =
        ProgramGenerator::new(GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(16));
    let tc = generator.generate(9);
    let input = InputGenerator::new(2).generate_one(&tc, 1);
    group.bench_function("single_run_16_instr", |b| {
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        b.iter(|| cpu.run(&tc, &input, &rvz_uarch::RunOptions::default()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_model,
    bench_executor,
    bench_side_channel,
    bench_analyzer,
    bench_uarch
);
criterion_main!(benches);
