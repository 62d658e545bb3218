//! Differential testing of the pre-decoded inner loop.
//!
//! Decoding a test case into a [`DecodedProgram`] is a pure representation
//! change, never a semantic one.  This property test is the executable
//! statement of that invariant: random generated programs × random inputs
//! run through the pre-decoded loop and through the retained reference
//! interpreters (the old per-step AST walk with full-state-clone
//! checkpoints), asserting byte-identical contract traces, hardware traces,
//! fault outcomes and final architectural state — including nested
//! speculation and microcode assists.
//!
//! [`DecodedProgram`]: rvz_isa::DecodedProgram

use proptest::prelude::*;
use revizor::targets::Target;
use rvz_cache::Cache;
use rvz_emu::{Fault, Runner};
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{Input, TestCase};
use rvz_model::{Contract, ContractModel};
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

fn target_for(choice: usize) -> Target {
    // A spread of ISA subsets and parts: no speculation (AR), store-bypass
    // only (AR+MEM), conditional branches, the assist-mode Coffee Lake row
    // with the full instruction set — and the predictor zoo (TAGE and loop
    // directions, aliasing BTB, cyclic RSB), whose prediction structures
    // must agree between the decoded and reference step paths too.
    match choice % 8 {
        0 => Target::target1(),
        1 => Target::target2(),
        2 => Target::target5(),
        3 => Target::target8(),
        4 => Target::target9(),
        5 => Target::target10(),
        6 => Target::target11(),
        _ => Target::target12(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random programs and inputs produce byte-identical results through
    /// the pre-decoded loop and the reference interpreters, at every layer:
    /// architectural runner, contract model (with and without nesting) and
    /// speculative CPU + executor (with assists on the target-8 rows).
    #[test]
    fn decoded_loop_is_byte_identical_to_reference(
        choice in 0usize..8,
        seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        let target = target_for(choice);
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

        // Speculative CPU: persistent predictor/cache state across the
        // priming sequence, assists on when the target's mode says so.
        let opts = RunOptions { enable_assists: target.mode.assists };
        let mut dec_cpu = target.cpu();
        let mut ref_cpu = target.cpu();
        for input in &inputs {
            let d = dec_cpu.run(&tc, input, &opts);
            let r = ref_cpu.run_reference(&tc, input, &opts);
            prop_assert_eq!(d, r);
            prop_assert!(dec_cpu.final_state() == ref_cpu.final_state(), "final state differs");
        }
        prop_assert!(dec_cpu.cache() == ref_cpu.cache(), "cache state differs");

        // Executor: merged hardware traces of the full warm-up + repetition
        // schedule.
        let cfg = ExecutorConfig::fast(target.mode);
        let mut dec_ex = Executor::new(target.cpu(), cfg);
        let mut ref_ex = Executor::new(ReferenceCpu(target.cpu()), cfg);
        prop_assert_eq!(
            dec_ex.collect_htraces(&tc, &inputs),
            ref_ex.collect_htraces(&tc, &inputs)
        );
    }
}
