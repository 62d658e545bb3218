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
//!               ┌── SlateScratch::collect_in_place ──► input classes per contract ──┐
//!  test case ───┤     (one pass per test case: one shared record per input)         ├─► per-contract
//!  + inputs     └── Executor::collect_htraces ───────────► htraces (shared) ───────┘   analysis +
//!                                                                                       filters
//! ```
//!
//! The contract model emits classes, not traces: each input's pass is
//! recorded once, and a contract's classes are grouped from the pieces of
//! that record its clauses permit.  A trace is built only where something
//! reads it: the digest of a reported violation's trace, computed from the
//! record, and the §5.4 nesting re-check.  The executed-instruction records
//! behind [`ContractOutcome::class_members`] are built only for the
//! contracts a caller asks for ([`ClassMembers`]).
//!
//! Per-contract verdicts are independent of the slate's composition: the
//! §5.3 swap check re-measures from a [noise checkpoint] taken right after
//! the shared baseline collection, which is exactly the stream position an
//! independent single-contract evaluation would have reached (the baseline
//! collection is contract-independent).  Evaluating a slate of N contracts
//! is therefore byte-identical to N independent evaluations: every
//! executor starts each hardware-trace collection from the CPU's power-on
//! microarchitectural state.
//!
//! # Evaluation in place
//!
//! A campaign worker evaluates its units on a resident [`UnitContext`]:
//! one executor per cell group, the input batch and the contract model's
//! [`SlateScratch`], all kept from unit to unit so that a steady-state
//! unit barely allocates.  Reuse cannot change a verdict:
//!
//! * each unit reseeds its group's executor with the unit's own noise
//!   stream, and every hardware-trace collection starts with
//!   [`CpuUnderTest::reset_uarch`], so nothing a previous unit measured
//!   survives into the next;
//! * the input batch is regenerated in place byte for byte as a fresh
//!   batch would be, and the contract model is a pure function of
//!   (contracts, program, input) that clears every buffer before it
//!   fills it.
//!
//! A unit in which no slate contract puts two inputs in one class
//! collects no hardware traces at all: the relational analysis compares
//! traces only within a class, so it would read none, and with no
//! violation there is no §5.3 re-measurement either.  Its outcomes are
//! exactly those of a collecting evaluation, and because the unit
//! reseeded its noise stream, the skipped collection changes no other
//! unit's.  The public [`evaluate_slate`] always collects: its callers
//! may carry one noise stream across test cases.
//!
//! [`evaluate_seed`] is the one-shot use of the same path on a fresh
//! context.
//!
//! [noise checkpoint]: rvz_executor::NoiseCheckpoint

use crate::classify::VulnClass;
use rvz_analyzer::{AnalysisResult, Analyzer, InputClass, Violation};
use rvz_emu::Fault;
use rvz_executor::{Executor, ExecutorConfig, HTrace};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{DecodedProgram, Input, TestCase};
use rvz_model::{Contract, ContractModel, ExecutionInfo, SlateScratch};
use rvz_uarch::CpuUnderTest;
use std::sync::Arc;
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
    /// analysis (§5.6); empty unless the evaluation's [`ClassMembers`]
    /// asked for this contract's.
    pub class_members: Vec<Vec<ExecutionInfo>>,
}

/// Which contracts' [`ContractOutcome::class_members`] an evaluation
/// builds.  Nothing else of an outcome depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassMembers {
    /// Every contract's: what [`evaluate_slate`], [`evaluate_seed`] and
    /// [`UnitContext::evaluate`] return.
    All,
    /// Only the slate's last contract's (the campaign matrix's coverage
    /// probe, with escalation on).
    Last,
    /// None: every outcome's `class_members` is empty.
    None,
}

impl ClassMembers {
    /// Whether contract `k` of a slate of `n` gets its members.
    fn includes(self, k: usize, n: usize) -> bool {
        match self {
            ClassMembers::All => true,
            ClassMembers::Last => k + 1 == n,
            ClassMembers::None => false,
        }
    }
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
    let mut model = SlateScratch::default();
    let members = ClassMembers::All;
    evaluate_slate_in(&mut model, executor, analyzer, checks, contracts, tc, inputs, false, members)
}

/// [`evaluate_slate`] with the contract model's buffers in `model`,
/// building the class members `members` asks for.
///
/// With `skip_unread`, a test case in which no contract puts two inputs in
/// one class collects no hardware traces (see the module docs).  Only a
/// caller that reseeds the executor's noise stream before every test case
/// may skip, because a collection advances that stream.
#[allow(clippy::too_many_arguments)]
fn evaluate_slate_in<C: CpuUnderTest>(
    model: &mut SlateScratch,
    executor: &mut Executor<C>,
    analyzer: &Analyzer,
    checks: SlateChecks,
    contracts: &[Contract],
    tc: &TestCase,
    inputs: &[Input],
    skip_unread: bool,
    members: ClassMembers,
) -> Result<Vec<ContractOutcome>, Fault> {
    // Decode once; the program is reused by every model pass, the baseline
    // hardware collection and both false-positive filters below.
    let prog =
        DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));

    // Input classes: one model pass per test case — one emulator, one
    // architectural pass per input, and each speculative site explored
    // once for every contract that shares its exploration key.
    let n = contracts.len();
    let record_executed = (0..n).any(|k| members.includes(k, n));
    model.collect_in_place(contracts, &prog, inputs, record_executed)?;

    // Hardware traces: collected once for the whole slate, unless no
    // contract would read one.
    let unread =
        skip_unread && !(0..n).flat_map(|k| model.classes(k)).any(InputClass::is_effective);
    let htraces = if unread {
        vec![HTrace::empty(); inputs.len()]
    } else {
        executor.collect_htraces_decoded(&prog, inputs)?
    };
    // Every contract's filter pass replays the noise stream from the
    // position right after the baseline collection.
    let noise_mark = executor.noise_checkpoint();

    let mut outcomes = Vec::with_capacity(contracts.len());
    for (k, contract) in contracts.iter().enumerate() {
        executor.restore_noise_checkpoint(&noise_mark);
        // Execution metadata grouped by effective input class, for the
        // diversity analysis.
        let class_members =
            if members.includes(k, n) { model.class_members(k) } else { Vec::new() };
        let analysis =
            analyzer.check_classes(model.classes(k), &htraces, |i| model.ctrace_digest(k, i));

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
}

/// Evaluate one campaign seed on a fresh [`UnitContext`]: an executor
/// built from a clone of the CPU under test, a new input batch and new
/// model buffers.
///
/// The result is a pure function of `(cpu_template, spec, seed)` — the
/// generated test case, the input batch and the synthetic-noise stream all
/// derive from `seed` alone — so units can be evaluated on any worker, in
/// any order, with identical results.  A resident context returns exactly
/// what this one-shot evaluation returns (see the module docs for why).
/// The static pre-filter (when enabled) runs on the generated program
/// before input generation, so filtered seeds cost only the program
/// generation; because every unit is independent, skipping one cannot
/// perturb any other unit's verdict.
pub fn evaluate_seed<C: CpuUnderTest + Clone>(
    cpu_template: &C,
    spec: &SlateSpec,
    seed: u64,
) -> SeedEval {
    UnitContext::new(Arc::from([cpu_template.clone()])).evaluate(0, spec, seed)
}

/// A campaign worker's resident evaluation state, kept from unit to unit:
/// one executor per cell group, the input batch and the contract model's
/// buffers.
///
/// Each thread of a matrix run's worker set owns one context for the
/// whole run ([`MatrixRun::step`](crate::MatrixRun::step)).  A context's
/// results do not depend on what it evaluated before: [`UnitContext::evaluate`]
/// returns exactly what [`evaluate_seed`] returns for the same group
/// template, spec and seed.
#[derive(Debug)]
pub struct UnitContext<C: CpuUnderTest> {
    /// The CPU under test of each cell group the context serves.
    cpus: Arc<[C]>,
    /// Each group's executor, built from its CPU on the group's first unit.
    executors: Vec<Option<Executor<C>>>,
    /// The input batch, regenerated in place for every unit.
    inputs: Vec<Input>,
    /// The contract model's slate buffers.
    model: SlateScratch,
    analyzer: Analyzer,
}

impl<C: CpuUnderTest + Clone> UnitContext<C> {
    /// A context for cell groups whose CPUs under test are `cpus`, indexed
    /// like the groups.
    pub fn new(cpus: Arc<[C]>) -> UnitContext<C> {
        UnitContext {
            executors: cpus.iter().map(|_| None).collect(),
            cpus,
            inputs: Vec::new(),
            model: SlateScratch::default(),
            analyzer: Analyzer::new(),
        }
    }

    /// Evaluate one campaign seed of cell group `group` against `spec`.
    ///
    /// The unit's input batch leaves the context inside the returned
    /// [`SlateUnit`]; hand it back with [`UnitContext::recycle`] so the
    /// next unit regenerates it in place.
    ///
    /// # Panics
    /// If `group` is not an index of the context's CPUs.
    pub fn evaluate(&mut self, group: usize, spec: &SlateSpec, seed: u64) -> SeedEval {
        self.evaluate_with(group, spec, seed, ClassMembers::All)
    }

    /// [`UnitContext::evaluate`], building only the class members
    /// `members` asks for; every other field of the unit is the same.
    ///
    /// # Panics
    /// If `group` is not an index of the context's CPUs.
    pub fn evaluate_with(
        &mut self,
        group: usize,
        spec: &SlateSpec,
        seed: u64,
        members: ClassMembers,
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
        let mut inputs = std::mem::take(&mut self.inputs);
        InputGenerator::new(spec.generator.input_entropy_bits).generate_into(
            &tc,
            input_stream_seed(seed),
            spec.generator.inputs_per_test_case,
            &mut inputs,
        );
        // Derive the synthetic-noise stream from the test-case seed so that
        // measurements do not depend on which worker (or in which order)
        // the test case runs.
        let noise = spec.executor.noise.for_test_case_seed(seed);
        let config = ExecutorConfig { noise, ..spec.executor };
        let slot = &mut self.executors[group];
        if !slot.as_ref().is_some_and(|e| ExecutorConfig { noise, ..*e.config() } == config) {
            *slot = Some(Executor::new(self.cpus[group].clone(), config));
        }
        let executor = slot.as_mut().expect("the group's executor was built above");
        executor.reseed_noise(noise);
        let (model, analyzer, checks) = (&mut self.model, &self.analyzer, spec.checks);
        // The unit's noise stream was reseeded above, so an unread
        // collection may be skipped.
        let (contracts, skip_unread) = (&spec.contracts, true);
        let outcomes = evaluate_slate_in(
            model, executor, analyzer, checks, contracts, &tc, &inputs, skip_unread, members,
        );
        match outcomes {
            Ok(outcomes) => SeedEval::Measured(Box::new(SlateUnit { seed, tc, inputs, outcomes })),
            // Malformed test case; skipped (never happens for generated code).
            Err(_) => {
                self.recycle(inputs);
                SeedEval::Faulted
            }
        }
    }

    /// Take back a unit's input batch for the next unit to regenerate in
    /// place.
    pub fn recycle(&mut self, inputs: Vec<Input>) {
        self.inputs = inputs;
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
/// from helper threads), in deterministic campaign order.
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
    use rvz_uarch::SpecCpu;

    fn spec_for(target: &Target, contracts: Vec<Contract>) -> SlateSpec {
        SlateSpec {
            generator: rvz_gen::GeneratorConfig::for_subset(target.isa)
                .with_basic_blocks(4)
                .with_instructions(14),
            executor: ExecutorConfig::campaign(target.mode),
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

    /// One resident context over an interleaved seed stream of three
    /// targets (two CPUs, Prime+Probe and Prime+Probe+Assist): every unit
    /// equals a fresh `evaluate_seed` of the same seed, and its reduced
    /// evaluations equal it without the class members they leave out.
    /// `noise` sets the repetitions and the synthetic noise.
    fn assert_resident_context_matches_fresh_evaluations(noise: Option<(usize, NoiseConfig)>) {
        let targets = [Target::target1(), Target::target5(), Target::target7()];
        let specs: Vec<SlateSpec> = targets
            .iter()
            .map(|t| {
                let mut spec = spec_for(t, Contract::table3_contracts());
                // The matrix's branch-then-load bias, so the stream
                // confirms violations within a few units.
                spec.generator = crate::CampaignMatrix::new(0).base_generator(t);
                if let Some((repetitions, noise)) = noise {
                    spec.executor = spec.executor.with_repetitions(repetitions).with_noise(noise);
                }
                spec
            })
            .collect();
        let cpus: Arc<[SpecCpu]> = targets.iter().map(Target::cpu).collect();
        let mut context = UnitContext::new(Arc::clone(&cpus));
        // Noise-free, targets 5 and 7 confirm or discard violations on
        // several of these seeds.
        let seeds = [5u64, 9, 27, 32, 54, 66, 90, 119, 141];
        let mut rechecked = 0;
        let units = seeds.iter().flat_map(|&seed| (0..3).map(move |group| (seed, group)));
        for (i, (seed, group)) in units.enumerate() {
            // The reduced evaluations a matrix unit runs differ only in
            // the class members they leave out.
            for members in [ClassMembers::Last, ClassMembers::None] {
                let reduced = context.evaluate_with(group, &specs[group], seed, members);
                let mut full = context.evaluate(group, &specs[group], seed);
                if let SeedEval::Measured(unit) = &mut full {
                    let n = unit.outcomes.len();
                    for (k, outcome) in unit.outcomes.iter_mut().enumerate() {
                        if !members.includes(k, n) {
                            outcome.class_members.clear();
                        }
                    }
                }
                assert_eq!(reduced, full, "target {}, seed {seed}, {members:?}", targets[group].id);
            }
            let resident = context.evaluate(group, &specs[group], seed);
            let fresh = evaluate_seed(&cpus[group], &specs[group], seed);
            assert_eq!(resident, fresh, "target {}, seed {seed}", targets[group].id);
            if let SeedEval::Measured(unit) = resident {
                rechecked += unit
                    .outcomes
                    .iter()
                    .map(|o| {
                        usize::from(o.confirmed_violation.is_some())
                            + o.discarded_as_artifact
                            + o.discarded_by_nesting
                    })
                    .sum::<usize>();
                // Every other batch goes back, so units run on both reused
                // and fresh batches.
                if i % 2 == 0 {
                    context.recycle(unit.inputs);
                }
            }
        }
        assert!(rechecked > 0, "the stream exercises the swap and nesting re-checks");
    }

    #[test]
    fn resident_context_matches_fresh_evaluations() {
        assert_resident_context_matches_fresh_evaluations(None);
    }

    #[test]
    fn resident_context_matches_fresh_evaluations_under_synthetic_noise() {
        let noise = NoiseConfig { one_off_probability: 0.1, smi_probability: 0.05, seed: 23 };
        // The settings of `slate_outcomes_match_under_synthetic_noise`, and
        // the campaign schedule's 2 repetitions, where a one-off sample
        // survives the merge: only there does a unit that drew from another
        // unit's noise stream change its result.
        for repetitions in [5, 2] {
            assert_resident_context_matches_fresh_evaluations(Some((repetitions, noise)));
        }
    }

    #[test]
    fn units_no_contract_reads_collect_no_hardware_traces() {
        // A unit in which every contract's classes are singletons skips
        // its collection, and its outcomes equal those of the public path,
        // which always collects, on an executor reseeded for the unit —
        // with and without synthetic noise.
        let noise = NoiseConfig { one_off_probability: 0.1, smi_probability: 0.05, seed: 23 };
        let targets = Target::all();
        let cpus: Arc<[SpecCpu]> = targets.iter().map(Target::cpu).collect();
        for noise in [NoiseConfig::none(), noise] {
            let mut context = UnitContext::new(Arc::clone(&cpus));
            let (mut skipped, mut collected) = (0, 0);
            for (group, target) in targets.iter().enumerate() {
                let mut spec = spec_for(target, Contract::table3_contracts());
                spec.generator = crate::CampaignMatrix::new(0).base_generator(target);
                spec.executor = spec.executor.with_noise(noise);
                let collections = |c: &UnitContext<SpecCpu>| {
                    c.executors[group].as_ref().map(Executor::collection_count)
                };
                for seed in 0..12u64 {
                    let before = collections(&context);
                    let unit = context.evaluate(group, &spec, seed).into_unit().unwrap();
                    let outcomes = &unit.outcomes;
                    let unread = outcomes.iter().all(|o| o.analysis.stats.effective_inputs == 0);
                    let skip = collections(&context) == before.or(Some(0));
                    assert_eq!(skip, unread, "target {}, seed {seed}", target.id);
                    skipped += usize::from(skip);
                    collected += usize::from(!skip);
                    let noise = noise.for_test_case_seed(seed);
                    let mut executor =
                        Executor::new(target.cpu(), ExecutorConfig { noise, ..spec.executor });
                    let (checks, contracts) = (spec.checks, &spec.contracts);
                    let (tc, inputs, analyzer) = (&unit.tc, &unit.inputs, Analyzer::new());
                    let public =
                        evaluate_slate(&mut executor, &analyzer, checks, contracts, tc, inputs);
                    assert_eq!(outcomes, &public.unwrap(), "target {}, seed {seed}", target.id);
                }
            }
            assert!(skipped > 0 && collected > 0, "{skipped} skipped, {collected} collected");
        }
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
