//! Criterion bench for the end-to-end fuzzing loop (§6.5): the time to
//! process one complete test case (generation + contract traces + hardware
//! traces + relational analysis) on a non-violating target.

use criterion::{criterion_group, criterion_main, Criterion};
use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use revizor::{FuzzerConfig, Revizor};
use rvz_executor::ExecutorConfig;
use rvz_gen::GeneratorConfig;
use rvz_model::Contract;

fn bench_full_test_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzzing_speed");
    group.sample_size(20);

    for (name, target, inputs) in [
        ("target1_ar_50_inputs", Target::target1(), 50),
        ("target5_ar_mem_cb_50_inputs", Target::target5(), 50),
    ] {
        let gen_cfg = GeneratorConfig::for_subset(target.isa).with_instructions(12);
        let config = FuzzerConfig::for_target(&target, Contract::ct_seq())
            .with_generator(gen_cfg.clone())
            .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2))
            .with_inputs_per_test_case(inputs);
        let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());
        let generator = rvz_gen::ProgramGenerator::new(gen_cfg);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let tc = generator.generate(seed);
                fuzzer.test_case(&tc, seed).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_repetition_sweep(c: &mut Criterion) {
    // The full per-test-case pipeline at the paper-realistic repetition
    // counts (§5.3 repeats each measurement 50 times): this is where the
    // measurement session pays off, since trace collection dominates the
    // round time at `repetitions ≥ 3`.
    let mut group = c.benchmark_group("fuzzing_speed_repetitions");
    group.sample_size(10);
    for reps in [3usize, 5, 10] {
        let target = Target::target1();
        let gen_cfg = GeneratorConfig::for_subset(target.isa).with_instructions(12);
        let config = FuzzerConfig::for_target(&target, Contract::ct_seq())
            .with_generator(gen_cfg.clone())
            .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(reps))
            .with_inputs_per_test_case(50);
        let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());
        let generator = rvz_gen::ProgramGenerator::new(gen_cfg);
        group.bench_function(format!("target1_50_inputs_reps{reps}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let tc = generator.generate(seed);
                fuzzer.test_case(&tc, seed).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_parallel_rounds(c: &mut Criterion) {
    // Round throughput of a one-cell escalating campaign at different
    // parallelism levels (§6.5): each iteration runs a fixed-budget
    // campaign on the non-violating baseline target so every round is
    // processed in full.  On a multi-core host the 4-thread row should show
    // ≥ 2× the rounds/s of the 1-thread row; the campaigns are
    // seed-for-seed identical in their results regardless of parallelism.
    let mut group = c.benchmark_group("parallel_rounds");
    group.sample_size(10);

    for parallelism in [1usize, 2, 4] {
        let campaign = |seed: u64| {
            CampaignMatrix::new(seed)
                .with_generator_size(2, 12)
                .with_branch_then_load_bias(false)
                .with_inputs_per_test_case(20)
                .with_budget(30)
                .with_escalation(true)
                .with_parallelism(parallelism)
                .add_cell(Target::target1(), Contract::ct_seq())
        };
        group.bench_function(format!("threads_{parallelism}_30_test_cases"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                campaign(seed).run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_test_case, bench_repetition_sweep, bench_parallel_rounds);
criterion_main!(benches);
