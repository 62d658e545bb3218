//! Differential testing of the pre-decoded inner loop.
//!
//! Decoding a test case into a [`DecodedProgram`] is a pure representation
//! change, never a semantic one.  This property test is the executable
//! statement of that invariant: random generated programs × random inputs
//! run through the pre-decoded loop and through the retained reference
//! interpreters (the old per-step AST walk with full-state-clone
//! checkpoints), asserting byte-identical contract traces, hardware traces,
//! fault outcomes and final architectural state — including nested
//! speculation and microcode assists.  Contract slates run through the
//! per-test-case model entry, whose shared exploration and reused emulator
//! must match the reference walk of every contract alone, and through the
//! campaign's class path, whose classes must equal the analyzer's grouping
//! of those traces and respect the contract lattice.  The executor
//! around `SpecCpu` stops simulating at its schedule's fixed point, while
//! the reference CPU cannot describe its state and simulates every run:
//! their traces must match too, on every catalog target, at the
//! campaign's and the paper's schedules, with and without synthetic
//! noise, and on a swapped sequence, and so must their §5.3 priming-swap
//! verdicts on a random input pair.
//!
//! [`DecodedProgram`]: rvz_isa::DecodedProgram

use proptest::prelude::*;
use revizor::targets::Target;
use rvz_analyzer::Analyzer;
use rvz_cache::Cache;
use rvz_emu::{Fault, Runner};
use rvz_executor::{Executor, ExecutorConfig, NoiseConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::builder::TestCaseBuilder;
use rvz_isa::{Cond, Input, Reg, TestCase};
use rvz_model::{Contract, ContractModel, ExecutionClause, ObservationClause, SlateScratch};
use rvz_uarch::{CpuUnderTest, RunOptions, RunOutcome, SpecCpu};

/// A CPU under test that routes everything through the reference (AST-walk)
/// run loop.  It deliberately does not override
/// [`CpuUnderTest::run_decoded`], so an [`Executor`] around it exercises the
/// trait's default decoded→reference fallback and measures the old path.
struct ReferenceCpu(SpecCpu);

impl CpuUnderTest for ReferenceCpu {
    fn name(&self) -> String {
        self.0.name()
    }

    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault> {
        self.0.run_reference(tc, input, opts)
    }

    fn cache_mut(&mut self) -> &mut Cache {
        self.0.cache_mut()
    }

    fn reset_uarch(&mut self) {
        self.0.reset_uarch();
    }
}

/// The whole uarch state: predictor tables and fill buffer, then the cache.
fn uarch_state(cpu: &SpecCpu) -> Vec<u64> {
    let mut out = Vec::new();
    assert!(cpu.functional_state(&mut out));
    cpu.cache().functional_state(&mut out);
    out
}

/// A slate covering every sharing case of the slate pass: duplicated
/// contracts, MEM/CT/ARCH observation clauses, a zero and a short
/// speculation window, a nested contract, the §6.4 variant, and a stream
/// whose last reader splices nothing in.
fn mixed_slate() -> Vec<Contract> {
    vec![
        Contract::ct_cond(),
        Contract::mem_cond(),
        Contract::ct_bpas(),
        Contract::new(ObservationClause::Arch, ExecutionClause::CondBpas),
        Contract::ct_cond(),
        Contract::ct_cond_bpas().with_speculation_window(0),
        Contract::ct_bpas().with_speculation_window(3),
        Contract::ct_cond().with_speculation_window(3),
        Contract::ct_cond().with_nesting(true),
        Contract::ct_cond_no_spec_store(),
        Contract::ct_seq(),
    ]
}

/// Whether the contract lattice orders `c1`'s classes inside `c2`'s: `c1`
/// is at least as permissive as `c2` (it observes and speculates at least
/// as much), and their speculation parameters agree where `c2` explores at
/// all.  `at_least_as_permissive_as` orders the clauses only, so two
/// contracts that differ in window, nesting or speculative-store exposure
/// are not comparable.
fn lattice_ordered(c1: &Contract, c2: &Contract) -> bool {
    let explores = |c: &Contract| c.execution != ExecutionClause::Seq && c.speculation_window > 0;
    c1.at_least_as_permissive_as(c2)
        && (!explores(c2)
            || (c1.speculation_window == c2.speculation_window
                && c1.nested_speculation == c2.nested_speculation
                && c1.expose_speculative_stores == c2.expose_speculative_stores))
}

/// Contract slates through the per-test-case entry: output `i` must equal
/// every contract's reference walk on input `i` (traces, both speculative
/// counters, faults), and a fresh single-input run — so the emulator reused
/// across inputs carries nothing over.  One scratch kept across slates of
/// different shapes, as a campaign worker keeps it across test cases, must
/// group the inputs into the classes `Analyzer::input_classes` makes of
/// those traces, build every trace, digest and class member on demand
/// equal to the materialized ones, and order its classes as the contract
/// lattice does: a more permissive contract's class lies inside one class
/// of every less permissive contract.
fn check_slates(tc: &TestCase, inputs: &[Input]) -> Result<(), String> {
    let prog = rvz_isa::DecodedProgram::decode(tc).expect("test programs decode");
    let analyzer = Analyzer::new();
    let mut scratch = SlateScratch::default();
    for slate in [mixed_slate(), Contract::table3_contracts(), mixed_slate()] {
        let outs: Result<Vec<_>, _> =
            ContractModel::collect_slate_decoded(&slate, &prog, inputs).into_iter().collect();
        let kept = scratch.collect_in_place(&slate, &prog, inputs, true);
        prop_assert_eq!(kept.as_ref().err(), outs.as_ref().err());
        let Ok(outs) = outs else {
            prop_assert!((0..slate.len()).all(|k| scratch.classes(k).is_empty()));
            continue;
        };
        let mut classes = Vec::new();
        for k in 0..slate.len() {
            let traces: Vec<_> = outs.iter().map(|o| o[k].trace.clone()).collect();
            let expected = analyzer.input_classes(&traces);
            prop_assert!(scratch.classes(k) == &expected[..], "{} classes differ", slate[k].name());
            for (i, trace) in traces.iter().enumerate() {
                prop_assert_eq!(&scratch.trace(k, i), trace);
                prop_assert_eq!(scratch.ctrace_digest(k, i), trace.digest());
            }
            let members: Vec<Vec<_>> = expected
                .iter()
                .filter(|c| c.is_effective())
                .map(|c| c.members.iter().map(|&i| outs[i][k].info.clone()).collect())
                .collect();
            prop_assert_eq!(scratch.class_members(k), members);
            classes.push(expected);
        }
        for (a, c1) in slate.iter().enumerate() {
            for (b, c2) in slate.iter().enumerate() {
                if a == b || !lattice_ordered(c1, c2) {
                    continue;
                }
                for class in &classes[a] {
                    let first = class.members[0];
                    let outer = classes[b].iter().find(|c| c.members.contains(&first));
                    let outer = outer.expect("every input is in a class");
                    prop_assert!(
                        class.members.iter().all(|m| outer.members.contains(m)),
                        "a {} class splits across {} classes",
                        c1.name(),
                        c2.name()
                    );
                }
            }
        }
    }
    for slate in [Contract::table3_contracts(), mixed_slate()] {
        let outs = ContractModel::collect_slate_decoded(&slate, &prog, inputs);
        prop_assert_eq!(outs.len(), inputs.len());
        for (input, out) in inputs.iter().zip(&outs) {
            prop_assert_eq!(out, &ContractModel::collect_many_decoded(&slate, &prog, input));
            for (k, c) in slate.iter().enumerate() {
                let reference = ContractModel::new(c.clone()).collect_reference(tc, input);
                prop_assert!(
                    out.as_ref().map(|o| &o[k]) == reference.as_ref(),
                    "{} differs from its reference walk",
                    c.name()
                );
            }
        }
    }
    Ok(())
}

/// An input with `x` in RAX, `y` in RCX and RDX, and a stale value at the
/// start of the sandbox, for the hand-written gadgets below.
fn input_xy(tc: &TestCase, x: u64, y: u64) -> Input {
    let mut input = Input::zeroed(tc.sandbox());
    input.set_reg(Reg::Rax, x);
    input.set_reg(Reg::Rcx, y);
    input.set_reg(Reg::Rdx, y);
    input.write_mem_u64(0, 0x7c0);
    input
}

/// The slate check on hand-written gadgets the generator rarely produces:
/// Figure 1's bounds-check bypass and a store-bypass gadget.
#[test]
fn slates_match_reference_on_hand_written_gadgets() {
    // `z = array1[x]; if (y < 10) z = array2[y]`.
    let figure1 = TestCaseBuilder::new()
        .block("entry", |b| {
            b.and_imm(Reg::Rax, 0b111111000000);
            b.load(Reg::Rbx, Reg::R14, Reg::Rax);
            b.cmp_imm(Reg::Rcx, 10);
            b.jcc(Cond::B, "then", "end");
        })
        .block("then", |b| {
            b.and_imm(Reg::Rcx, 0b111111000000);
            b.load(Reg::Rdx, Reg::R14, Reg::Rcx);
            b.jmp("end");
        })
        .block("end", |b| b.exit())
        .build();
    // A store overwrites a stale value that indexes a dependent access.
    let bpas_gadget = TestCaseBuilder::new()
        .block("entry", |b| {
            b.store_disp(Reg::R14, 0, Reg::Rdx);
            b.load_disp(Reg::Rbx, Reg::R14, 0);
            b.and_imm(Reg::Rbx, 0b111111000000);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build();
    for tc in [figure1, bpas_gadget] {
        let inputs: Vec<Input> =
            [(0x100, 20), (0x100, 5), (0x40, 0x80)].map(|(x, y)| input_xy(&tc, x, y)).into();
        check_slates(&tc, &inputs).unwrap();
    }
}

#[test]
fn a_faulting_input_leaves_nothing_behind_in_the_slate() {
    // An unmasked load: it faults architecturally when the branch is taken
    // with RAX outside the sandbox, and only transiently (which is
    // suppressed) when the branch is not taken.
    let tc = TestCaseBuilder::new()
        .block("entry", |b| {
            b.store_disp(Reg::R14, 8, Reg::Rdx);
            b.cmp_imm(Reg::Rcx, 10);
            b.jcc(Cond::B, "then", "end");
        })
        .block("then", |b| {
            b.load(Reg::Rbx, Reg::R14, Reg::Rax);
            b.jmp("end");
        })
        .block("end", |b| b.exit())
        .build();
    let inputs = [input_xy(&tc, 1 << 40, 20), input_xy(&tc, 1 << 40, 5), input_xy(&tc, 0x40, 5)];
    let prog = rvz_isa::DecodedProgram::decode(&tc).unwrap();
    let outs = ContractModel::collect_slate_decoded(&mixed_slate(), &prog, &inputs);
    assert!(outs[0].is_ok() && outs[1].is_err() && outs[2].is_ok());
    check_slates(&tc, &inputs).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs and inputs produce byte-identical results through
    /// the pre-decoded loop and the reference interpreters, at every layer:
    /// architectural runner, contract model (with and without nesting) and
    /// speculative CPU + executor, on every catalog target: every ISA
    /// subset and part, Prime+Probe and Prime+Probe+Assist, and the
    /// predictor zoo, whose prediction structures must agree between the
    /// decoded and reference step paths too.
    #[test]
    fn decoded_loop_is_byte_identical_to_reference(
        choice in 0usize..Target::catalog().len(),
        seed in any::<u64>(),
        input_seed in any::<u64>(),
        swap_i in 0usize..6,
        swap_offset in 1usize..6,
    ) {
        let target = Target::catalog().swap_remove(choice);
        // Random programs never emit calls, returns or indirect jumps, so
        // the zoo targets' pinned scenarios (BTB aliasing, deep call
        // chains, history-correlated branches) stand in for them: they
        // drive the target/return predictors through both step paths.
        let tc = match &target.scenario {
            Some(scenario) => scenario.build(),
            None => ProgramGenerator::new(
                GeneratorConfig::for_subset(target.isa).with_basic_blocks(4).with_instructions(12),
            )
            .generate(seed),
        };
        let inputs = InputGenerator::new(4).generate(&tc, input_seed, 6);

        // Architectural runner: steps, events, block order, final state —
        // plus the trace-free (NoTrace-sink) pass, which must agree on the
        // fault outcome and final state.
        let prog = rvz_isa::DecodedProgram::decode(&tc).expect("generated programs decode");
        for input in &inputs {
            let dec = Runner::new(&tc).run(input);
            let reference = Runner::new(&tc).run_reference(input);
            let quiet = Runner::run_final_decoded(&prog, input, 4096);
            match (dec, reference) {
                (Ok(d), Ok(r)) => {
                    prop_assert_eq!(quiet.as_ref().ok(), Some(&r.final_state));
                    prop_assert_eq!(d.steps, r.steps);
                    prop_assert_eq!(d.block_order, r.block_order);
                    prop_assert_eq!(d.final_state, r.final_state);
                }
                (Err(d), Err(r)) => {
                    prop_assert_eq!(quiet.as_ref().err(), Some(&r));
                    prop_assert_eq!(d, r);
                }
                (d, r) => prop_assert!(
                    false,
                    "fault outcome differs: decoded ok={} reference ok={}",
                    d.is_ok(),
                    r.is_ok()
                ),
            }
        }

        // Contract model: traces, execution info and faults per contract,
        // including delta-checkpointed nested speculation.
        let contracts = [
            Contract::ct_seq(),
            Contract::arch_seq(),
            Contract::ct_cond_bpas(),
            Contract::ct_cond().with_nesting(true),
            Contract::ct_cond_no_spec_store(),
        ];
        for input in &inputs {
            for c in &contracts {
                let m = ContractModel::new(c.clone());
                prop_assert_eq!(m.collect(&tc, input), m.collect_reference(&tc, input));
            }
        }

        check_slates(&tc, &inputs)?;

        // Speculative CPU: persistent uarch state across the priming
        // sequence, assists on when the target's mode says so.  The whole
        // uarch state (cache, predictor tables, fill buffer) must agree
        // after every run.
        let opts = RunOptions { enable_assists: target.mode.assists };
        let mut dec_cpu = target.cpu();
        let mut ref_cpu = target.cpu();
        for input in &inputs {
            let d = dec_cpu.run(&tc, input, &opts);
            let r = ref_cpu.run_reference(&tc, input, &opts);
            prop_assert_eq!(d, r);
            prop_assert!(dec_cpu.final_state() == ref_cpu.final_state(), "final state differs");
            prop_assert!(uarch_state(&dec_cpu) == uarch_state(&ref_cpu), "uarch state differs");
        }

        // Executor: merged hardware traces of the warm-up + repetition
        // schedule, at the campaign's 1 + 2 passes and the paper's 3 + 50.
        // `SpecCpu` describes its state, so its executor stops simulating
        // at the schedule's fixed point; `ReferenceCpu` does not, so its
        // executor simulates every run.  Two back-to-back collections per
        // executor also cover the noise stream and the CPU state a
        // replayed collection leaves behind.  Then a §5.3 swapped sequence
        // (position `swap_i` running input `swap_j`) and the priming-swap
        // check on that pair, each side against its own baseline: swapped
        // sequences reach the fixed point too.
        let swap_j = (swap_i + swap_offset) % inputs.len();
        let mut swapped = inputs.clone();
        swapped[swap_i] = inputs[swap_j].clone();
        let noise =
            NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: input_seed };
        let campaign = ExecutorConfig::fast(target.mode).with_repetitions(2);
        let paper = ExecutorConfig::paper(target.mode);
        for cfg in [campaign, campaign.with_noise(noise), paper, paper.with_noise(noise)] {
            let mut dec_ex = Executor::new(target.cpu(), cfg);
            let mut ref_ex = Executor::new(ReferenceCpu(target.cpu()), cfg);
            let mut baselines = (Ok(Vec::new()), Ok(Vec::new()));
            for _ in 0..2 {
                baselines =
                    (dec_ex.collect_htraces(&tc, &inputs), ref_ex.collect_htraces(&tc, &inputs));
                prop_assert_eq!(&baselines.0, &baselines.1);
            }
            prop_assert_eq!(
                dec_ex.collect_htraces(&tc, &swapped),
                ref_ex.collect_htraces(&tc, &swapped)
            );
            if let (Ok(dec_base), Ok(ref_base)) = &baselines {
                prop_assert_eq!(
                    dec_ex.is_measurement_artifact_decoded(&prog, &inputs, dec_base, swap_i, swap_j),
                    ref_ex.is_measurement_artifact_decoded(&prog, &inputs, ref_base, swap_i, swap_j)
                );
            }
            prop_assert_eq!(ref_ex.replayed_runs(), 0);
        }
    }
}
