//! The shared-state fork: a white-box check that a confirmed violation is
//! a real leak.
//!
//! Guarnieri et al. define contract satisfaction over two inputs run from
//! one shared microarchitectural state.  Revizor only sees each input run
//! from the state its priming sequence left behind.  This test closes the
//! gap on the simulator: it walks a reported violation's collection
//! ([`ExecutorConfig::campaign`]'s schedule) on a fresh CPU from the report
//! alone, and before every measured run of the violating pair it clones
//! the CPU and the Prime+Probe channel right after the prime, runs each
//! input of the pair on one clone, and compares the two footprints.  A
//! violation must show different footprints in at least one fork.
//!
//! The TAGE targets (zoo targets 9 and 13) are why the campaign measures
//! with one warm-up pass: their violations leak in only some of the forks,
//! because the extra training of a longer schedule makes TAGE stop
//! mispredicting.  Target 5 (the bimodal V1 target) is the control: its
//! pairs leak in every fork.

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use revizor::ViolationReport;
use rvz_cache::{PrimeProbe, SideChannel};
use rvz_executor::{Executor, ExecutorConfig};
use rvz_isa::DecodedProgram;
use rvz_model::Contract;
use rvz_uarch::{CpuUnderTest, RunOptions};

/// Walk `report`'s collection on a fresh CPU of `target` and return how
/// many of the pair's forks differed, of how many were taken.  Checks on
/// the way that the walk measures the pair's reported hardware traces.
fn fork_pair(target: &Target, report: &ViolationReport) -> (usize, usize) {
    let config = ExecutorConfig::campaign(target.mode);
    let prog = DecodedProgram::decode(&report.test_case).expect("reported test cases decode");
    let opts = RunOptions { enable_assists: target.mode.assists };
    let (inputs, v) = (&report.inputs, &report.violation);
    let (mut cpu, mut channel) = (target.cpu(), PrimeProbe::new());
    cpu.reset_uarch();
    let (mut samples_a, mut samples_b, mut differing, mut forks) = (vec![], vec![], 0, 0);
    for pass in 0..config.warmup_rounds + config.repetitions {
        for (i, input) in inputs.iter().enumerate() {
            channel.prepare(cpu.cache_mut());
            let measured = pass >= config.warmup_rounds;
            if measured && (i == v.input_a || i == v.input_b) {
                let fork = |input| {
                    let (mut cpu, mut channel) = (cpu.clone(), channel.clone());
                    cpu.run_decoded(&prog, input, &opts).expect("no architectural fault");
                    channel.measure(cpu.cache_mut())
                };
                forks += 1;
                differing += usize::from(fork(&inputs[v.input_a]) != fork(&inputs[v.input_b]));
            }
            cpu.run_decoded(&prog, input, &opts).expect("no architectural fault");
            let sample = channel.measure(cpu.cache_mut());
            if measured && i == v.input_a {
                samples_a.push(sample);
            } else if measured && i == v.input_b {
                samples_b.push(sample);
            }
        }
    }
    let merge = Executor::new(target.cpu(), config);
    assert_eq!(merge.merge_samples(&samples_a), v.htrace_a, "the walk measures input a's trace");
    assert_eq!(merge.merge_samples(&samples_b), v.htrace_b, "the walk measures input b's trace");
    (differing, forks)
}

/// The CT-SEQ violation a one-cell campaign of `target` finds at budget
/// 300 from `seed`.
fn ct_seq_violation(target: &Target, seed: u64) -> ViolationReport {
    let mut report = CampaignMatrix::new(seed)
        .with_budget(300)
        .add_cell(target.clone(), Contract::ct_seq())
        .run();
    let cell = report.cells.remove(0);
    cell.violation.unwrap_or_else(|| panic!("target {} finds V1 from seed {seed}", target.id))
}

#[test]
fn tage_violations_leak_from_a_shared_state() {
    for target in [Target::target13(), Target::target9()] {
        for seed in 0..3 {
            let (differing, forks) = fork_pair(&target, &ct_seq_violation(&target, seed));
            assert_eq!(forks, 4, "2 positions × 2 measured passes");
            assert!(differing > 0, "target {}, seed {seed}: no fork leaked", target.id);
        }
    }
}

#[test]
fn bimodal_v1_leaks_in_every_fork() {
    let target = Target::target5();
    for seed in 0..3 {
        let (differing, forks) = fork_pair(&target, &ct_seq_violation(&target, seed));
        assert_eq!((differing, forks), (4, 4), "seed {seed}");
    }
}
