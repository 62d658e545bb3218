//! The reusable per-test-case campaign pipeline, extracted from the fuzzer.
//!
//! One *evaluation* runs a test case through the full MRT pipeline of
//! Figure 2 — contract traces, hardware traces, relational analysis and the
//! two false-positive filters (§5.3 priming swap, §5.4 nested-speculation
//! re-check).  The pipeline is *slate-based*: it takes a set of contracts
//! and returns one outcome per contract, while collecting the hardware
//! traces only **once**.  Hardware traces depend on (CPU, test case,
//! inputs) but never on the contract, so a campaign matrix that tests one
//! target against several contracts can amortize the dominant measurement
//! cost across the whole slate:
//!
//! ```text
//!               ┌── ContractModel::collect_slate_decoded ──► ctraces per contract ──┐
//!  test case ───┤     (one pass per test case: shared arch + exploration)           ├─► per-contract
//!  + inputs     └── Executor::collect_htraces ───────────► htraces (shared) ───────┘   analysis +
//!                                                                                       filters
//! ```
//!
//! Per-contract verdicts are independent of the slate's composition: the
//! §5.3 swap check re-measures from a [noise checkpoint] taken right after
//! the shared baseline collection, which is exactly the stream position an
//! independent single-contract evaluation would have reached (the baseline
//! collection is contract-independent).  Evaluating a slate of N contracts
//! is therefore byte-identical to N independent evaluations, as long as the
//! executor resets microarchitectural state between test cases (the default
//! in every configuration).
//!
//! [noise checkpoint]: rvz_executor::NoiseCheckpoint

use crate::classify::VulnClass;
use rvz_analyzer::{AnalysisResult, Analyzer, Violation};
use rvz_emu::Fault;
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{DecodedProgram, Input, TestCase};
use rvz_model::{CTrace, Contract, ContractModel, ExecutionInfo};
use rvz_uarch::CpuUnderTest;
use std::time::Duration;

/// Which false-positive filters the pipeline applies to reported violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlateChecks {
    /// Re-check reported violations with the priming-swap test (§5.3).
    pub priming_swap_check: bool,
    /// Re-check reported violations with nested speculation enabled in the
    /// model (§5.4).
    pub verify_with_nesting: bool,
}

impl SlateChecks {
    /// Both filters enabled (the paper's configuration).
    pub fn all() -> SlateChecks {
        SlateChecks { priming_swap_check: true, verify_with_nesting: true }
    }
}

impl Default for SlateChecks {
    fn default() -> Self {
        SlateChecks::all()
    }
}

/// The per-contract result of one slate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractOutcome {
    /// The contract this outcome belongs to.
    pub contract: Contract,
    /// The raw relational-analysis result.
    pub analysis: AnalysisResult,
    /// A violation that survived the priming-swap and nesting re-checks.
    pub confirmed_violation: Option<Violation>,
    /// Violations discarded by the priming-swap check (§5.3).
    pub discarded_as_artifact: usize,
    /// Violations discarded by the nested-speculation re-check (§5.4).
    pub discarded_by_nesting: usize,
    /// Execution metadata of the effective input classes, for the diversity
    /// analysis (§5.6).
    pub class_members: Vec<Vec<ExecutionInfo>>,
}

/// Evaluate one test case against a slate of contracts, collecting the
/// hardware traces once and checking them against every contract.
///
/// Returns one [`ContractOutcome`] per contract, in slate order.  Each
/// outcome is byte-identical to what an independent single-contract
/// evaluation (with the same executor state at entry) would produce — see
/// the module docs for why.
///
/// # Errors
/// Propagates architectural faults (which generated test cases never
/// produce).
pub fn evaluate_slate<C: CpuUnderTest>(
    executor: &mut Executor<C>,
    analyzer: &Analyzer,
    checks: SlateChecks,
    contracts: &[Contract],
    tc: &TestCase,
    inputs: &[Input],
) -> Result<Vec<ContractOutcome>, Fault> {
    // Decode once; the program is reused by every model pass, the baseline
    // hardware collection and both false-positive filters below.
    let prog =
        DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));

    // Contract traces: one model pass per test case — one emulator, one
    // architectural pass per input, and each speculative site explored
    // once for every contract that shares its exploration key.
    let mut ctraces: Vec<Vec<CTrace>> =
        (0..contracts.len()).map(|_| Vec::with_capacity(inputs.len())).collect();
    let mut infos: Vec<Vec<ExecutionInfo>> =
        (0..contracts.len()).map(|_| Vec::with_capacity(inputs.len())).collect();
    for outs in ContractModel::collect_slate_decoded(contracts, &prog, inputs) {
        for (k, out) in outs?.into_iter().enumerate() {
            ctraces[k].push(out.trace);
            infos[k].push(out.info);
        }
    }

    // Hardware traces: collected once for the whole slate.
    let htraces = executor.collect_htraces_decoded(&prog, inputs)?;
    // Every contract's filter pass replays the noise stream from the
    // position right after the baseline collection.
    let noise_mark = executor.noise_checkpoint();

    let mut outcomes = Vec::with_capacity(contracts.len());
    for (k, contract) in contracts.iter().enumerate() {
        executor.restore_noise_checkpoint(&noise_mark);
        let classes = analyzer.input_classes(&ctraces[k]);
        let analysis = analyzer.check_classes(&ctraces[k], &classes, &htraces);

        // Execution metadata grouped by effective input class, for the
        // diversity analysis (each clone shares the input's record).
        let class_members: Vec<Vec<ExecutionInfo>> = classes
            .iter()
            .filter(|c| c.is_effective())
            .map(|c| c.members.iter().map(|&i| infos[k][i].clone()).collect())
            .collect();

        let mut discarded_as_artifact = 0;
        let mut discarded_by_nesting = 0;
        let mut confirmed = None;
        for v in &analysis.violations {
            if checks.priming_swap_check
                // The unswapped baseline was already collected above; the
                // swap check re-measures only the two swapped sequences
                // (§5.3).
                && executor
                    .is_measurement_artifact_decoded(&prog, inputs, &htraces, v.input_a, v.input_b)?
            {
                discarded_as_artifact += 1;
                continue;
            }
            if checks.verify_with_nesting && contract.speculation_window > 0 {
                let nested = ContractModel::new(contract.clone().with_nesting(true));
                let a = nested.collect_decoded(&prog, &inputs[v.input_a])?.trace;
                let b = nested.collect_decoded(&prog, &inputs[v.input_b])?.trace;
                if a != b {
                    // Under the true (nested) contract the inputs are in
                    // different classes; the reported violation was an
                    // artifact of the nesting-disabled approximation.
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
    Ok(outcomes)
}

/// Everything a campaign worker needs to evaluate one test-case seed
/// against a contract slate, independent of every other seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SlateSpec {
    /// Test-case / input generation parameters.
    pub generator: GeneratorConfig,
    /// Executor parameters (measurement mode, repetitions, noise).
    pub executor: ExecutorConfig,
    /// Which false-positive filters to apply.
    pub checks: SlateChecks,
    /// The contracts of the slate.
    pub contracts: Vec<Contract>,
    /// Discard statically-leak-impossible test cases before any model or
    /// hardware measurement (the [`staticanalysis`](crate::staticanalysis)
    /// pre-filter).  Sound: only true negatives are discarded.
    pub speculation_filter: bool,
}

/// One evaluated campaign seed: the generated test case, its input batch
/// and the per-contract outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct SlateUnit {
    /// The campaign seed the unit was generated from.
    pub seed: u64,
    /// The generated test case.
    pub tc: TestCase,
    /// The inputs used (in priming order).
    pub inputs: Vec<Input>,
    /// One outcome per slate contract, in slate order.
    pub outcomes: Vec<ContractOutcome>,
}

/// Derivation of the per-test-case input-generation seed from the test
/// case's campaign seed.  Shared by [`evaluate_seed`] and the sequential
/// [`Revizor::test_case`](crate::Revizor::test_case) replay path — the two
/// must never diverge, or a campaign violation would not reproduce through
/// the public API.
pub(crate) fn input_stream_seed(test_case_seed: u64) -> u64 {
    test_case_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The result of evaluating one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedEval {
    /// The static pre-filter proved the test case leak-impossible; it was
    /// discarded before any model or hardware measurement.
    Filtered,
    /// The test case faulted (never happens for generated code).
    Faulted,
    /// The test case was measured.
    Measured(Box<SlateUnit>),
}

impl SeedEval {
    /// The measured unit, if any.
    pub fn into_unit(self) -> Option<SlateUnit> {
        match self {
            SeedEval::Measured(unit) => Some(*unit),
            _ => None,
        }
    }

    /// Was the seed discarded by the static pre-filter?
    pub fn is_filtered(&self) -> bool {
        matches!(self, SeedEval::Filtered)
    }
}

/// Evaluate one campaign seed with a fresh executor built from a clone of
/// the CPU under test.
///
/// This is the parallel scheduling building block of the matrix
/// orchestrator ([`MatrixRun::step`](crate::MatrixRun::step)): the result
/// is a pure function of
/// `(cpu_template, spec, seed)` — the generated test case, the input batch
/// and the synthetic-noise stream all derive from `seed` alone — so units
/// can be evaluated on any worker, in any order, with identical results.
/// The static pre-filter (when enabled) runs on the generated program
/// before input generation, so filtered seeds cost only the program
/// generation; because every unit is independent, skipping one cannot
/// perturb any other unit's verdict.
pub fn evaluate_seed<C: CpuUnderTest + Clone>(
    cpu_template: &C,
    spec: &SlateSpec,
    seed: u64,
) -> SeedEval {
    let generator = ProgramGenerator::new(spec.generator.clone());
    let tc = generator.generate(seed);
    if spec.speculation_filter {
        // The `*+Assist` executor modes arm an assist page even when the
        // sandbox does not declare one.
        let assists = spec.executor.mode.assists || tc.sandbox().assist_page.is_some();
        if !crate::staticanalysis::leak_possible(&tc, assists) {
            return SeedEval::Filtered;
        }
    }
    let input_gen = InputGenerator::new(spec.generator.input_entropy_bits);
    let inputs = input_gen.generate(&tc, input_stream_seed(seed), spec.generator.inputs_per_test_case);
    // Derive the synthetic-noise stream from the test-case seed so that
    // measurements do not depend on which worker (or in which order) the
    // test case runs.
    let mut exec_cfg = spec.executor;
    exec_cfg.noise = exec_cfg.noise.for_test_case_seed(seed);
    let mut executor = Executor::new(cpu_template.clone(), exec_cfg);
    let analyzer = Analyzer::new();
    match evaluate_slate(&mut executor, &analyzer, spec.checks, &spec.contracts, &tc, &inputs) {
        Ok(outcomes) => SeedEval::Measured(Box::new(SlateUnit { seed, tc, inputs, outcomes })),
        // Malformed test case; skipped (never happens for generated code).
        Err(_) => SeedEval::Faulted,
    }
}

/// A completed testing round of one matrix cell group, reported through
/// [`ProgressObserver`].
#[derive(Debug, Clone)]
pub struct RoundEvent {
    /// Table 2 target id of the cell group (always set).
    pub target_id: Option<u8>,
    /// 1-based round number within the cell group.
    pub round: usize,
    /// Test cases evaluated so far in this cell group.
    pub test_cases: usize,
    /// Test cases discarded by the static speculation pre-filter so far in
    /// this cell group (0 when the filter is off).
    pub filtered: usize,
    /// Generator escalations of this cell group so far (§5.6).  Cell
    /// groups run a fixed generator configuration unless
    /// [`CampaignMatrix::with_escalation`](crate::CampaignMatrix::with_escalation)
    /// is on, in which case this is the group's true per-target count.
    pub escalations: usize,
}

/// A finished matrix cell, reported through [`ProgressObserver`].
#[derive(Debug, Clone)]
pub struct CellEvent {
    /// Table 2 target id of the cell.
    pub target_id: u8,
    /// The contract the cell tested against.
    pub contract: Contract,
    /// Whether a confirmed violation was found.
    pub found: bool,
    /// Classification of the violation, if one was found.
    pub vulnerability: Option<VulnClass>,
    /// Test cases evaluated until detection (or until the budget ran out).
    pub test_cases: usize,
    /// Wall-clock time since the matrix run started.
    pub elapsed: Duration,
}

/// Live progress hook for long-running matrix runs.
///
/// All methods have empty default implementations; implement only the
/// events of interest.  Events are delivered from the driving thread (never
/// from pool workers), in deterministic campaign order.
pub trait ProgressObserver {
    /// A testing round completed.
    fn round_completed(&mut self, event: &RoundEvent) {
        let _ = event;
    }
    /// A matrix cell finished (found a violation or exhausted its budget).
    fn cell_finished(&mut self, event: &CellEvent) {
        let _ = event;
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl ProgressObserver for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use crate::targets::Target;
    use rvz_executor::NoiseConfig;

    fn spec_for(target: &Target, contracts: Vec<Contract>) -> SlateSpec {
        SlateSpec {
            generator: rvz_gen::GeneratorConfig::for_subset(target.isa)
                .with_basic_blocks(4)
                .with_instructions(14),
            executor: ExecutorConfig::fast(target.mode).with_repetitions(2),
            checks: SlateChecks::all(),
            contracts,
            speculation_filter: false,
        }
    }

    #[test]
    fn slate_outcomes_match_independent_single_contract_evaluations() {
        // The htrace-sharing slate must be invisible: per-contract outcomes
        // equal a fresh single-contract evaluation of the same seed.
        let target = Target::target5();
        let contracts = Contract::table3_contracts();
        let spec = spec_for(&target, contracts.clone());
        let cpu = target.cpu();
        for seed in [3u64, 19, 57] {
            let shared = evaluate_seed(&cpu, &spec, seed).into_unit().unwrap();
            for (k, contract) in contracts.iter().enumerate() {
                let solo_spec = spec_for(&target, vec![contract.clone()]);
                let solo = evaluate_seed(&cpu, &solo_spec, seed).into_unit().unwrap();
                assert_eq!(shared.outcomes[k], solo.outcomes[0], "seed {seed}, {}", contract.name());
            }
        }
    }

    #[test]
    fn slate_outcomes_match_under_synthetic_noise() {
        // The noise checkpoint makes the equality hold even when the swap
        // check draws from the noise stream: every contract's filter pass
        // starts at the post-baseline stream position.
        let target = Target::target5();
        let contracts = Contract::table3_contracts();
        let mut spec = spec_for(&target, contracts.clone());
        spec.executor = spec
            .executor
            .with_repetitions(5)
            .with_noise(NoiseConfig { one_off_probability: 0.1, smi_probability: 0.05, seed: 23 });
        let cpu = target.cpu();
        for seed in [5u64, 42] {
            let shared = evaluate_seed(&cpu, &spec, seed).into_unit().unwrap();
            for (k, contract) in contracts.iter().enumerate() {
                let mut solo_spec = spec.clone();
                solo_spec.contracts = vec![contract.clone()];
                let solo = evaluate_seed(&cpu, &solo_spec, seed).into_unit().unwrap();
                assert_eq!(shared.outcomes[k], solo.outcomes[0], "seed {seed}, {}", contract.name());
            }
        }
    }

    #[test]
    fn slate_confirms_v1_against_ct_seq_but_not_ct_cond() {
        // Table 3, Target 5 row, on a handwritten gadget: one measurement,
        // four contract verdicts.
        let target = Target::target5();
        let contracts = Contract::table3_contracts();
        let spec = spec_for(&target, contracts.clone());
        let mut executor = Executor::new(target.cpu(), spec.executor);
        let analyzer = Analyzer::new();
        let tc = gadgets::spectre_v1();
        let inputs = InputGenerator::new(2).generate(&tc, 11, 24);
        let outcomes =
            evaluate_slate(&mut executor, &analyzer, spec.checks, &contracts, &tc, &inputs).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[0].confirmed_violation.is_some(), "CT-SEQ violated");
        assert!(outcomes[1].confirmed_violation.is_some(), "CT-BPAS violated");
        assert!(outcomes[2].confirmed_violation.is_none(), "CT-COND permits V1 leakage");
        assert!(outcomes[3].confirmed_violation.is_none(), "CT-COND-BPAS permits V1 leakage");
    }

    #[test]
    fn evaluate_seed_is_a_pure_function_of_its_arguments() {
        let target = Target::target1();
        let spec = spec_for(&target, vec![Contract::ct_seq()]);
        let a = evaluate_seed(&target.cpu(), &spec, 7).into_unit().unwrap();
        let b = evaluate_seed(&target.cpu(), &spec, 7).into_unit().unwrap();
        assert_eq!(a, b);
    }
}
