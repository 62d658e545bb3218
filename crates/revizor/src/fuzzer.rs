//! The single-test-case harness of the fuzzer (Figure 2): one test case
//! through the model, the executor, the analyzer and the two false-positive
//! filters.  Campaigns — rounds, early stop, diversity feedback — run as a
//! [`CampaignMatrix`](crate::CampaignMatrix); this harness is what the
//! postprocessor and violation replays drive.

use crate::campaign::{self, SlateChecks};
use crate::classify::VulnClass;
use crate::config::FuzzerConfig;
use crate::staticanalysis::GadgetSignature;
use crate::targets::Target;
use rvz_analyzer::{AnalysisResult, Analyzer, Violation};
use rvz_emu::Fault;
use rvz_executor::Executor;
use rvz_gen::InputGenerator;
use rvz_isa::{Input, TestCase};
use rvz_model::Contract;
use rvz_uarch::CpuUnderTest;

/// The result of testing one test case with one input batch.
#[derive(Debug, Clone)]
pub struct TestCaseOutcome {
    /// The inputs used (in priming order).
    pub inputs: Vec<Input>,
    /// The raw relational-analysis result.
    pub analysis: AnalysisResult,
    /// A violation that survived the priming-swap and nesting re-checks.
    pub confirmed_violation: Option<Violation>,
    /// Violations discarded by the priming-swap check (§5.3).
    pub discarded_as_artifact: usize,
    /// Violations discarded by the nested-speculation re-check (§5.4).
    pub discarded_by_nesting: usize,
}

/// A confirmed counterexample, with everything needed to reproduce and
/// minimize it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// The violating test case.
    pub test_case: TestCase,
    /// The input sequence (priming order).
    pub inputs: Vec<Input>,
    /// The diverging input pair and their traces.
    pub violation: Violation,
    /// The violated contract.
    pub contract: Contract,
    /// The per-test-case seed the campaign evaluated this test case with.
    /// Replaying it through [`Revizor::test_case`] on a harness with the
    /// generator configuration the cell group had reached reproduces the
    /// same inputs and (under synthetic noise) the same noise stream.
    /// Without escalation that is the matrix's base generator
    /// ([`CampaignMatrix::base_generator`](crate::CampaignMatrix::base_generator));
    /// after an escalation (§5.6), replay the recorded
    /// [`inputs`](ViolationReport::inputs) directly via
    /// [`Revizor::test_with_inputs`] after seeding the executor's noise
    /// stream with [`NoiseConfig::for_test_case_seed`](rvz_executor::NoiseConfig::for_test_case_seed).
    pub test_case_seed: u64,
    /// Heuristic classification of the underlying vulnerability.
    pub vulnerability: VulnClass,
    /// Static gadget signature of the violating program (source kind ×
    /// dependency shape × transmitter kind), for deduplicating equivalent
    /// gadgets across campaigns.  `None` when the static pass cannot
    /// attribute the leak to a transmitter.
    pub gadget: Option<GadgetSignature>,
    /// Number of test cases executed up to and including this one.
    pub test_cases_until_detection: usize,
    /// Number of inputs executed up to and including this test case.
    pub inputs_until_detection: usize,
}

/// The single-test-case harness: ties the input generator, model, executor
/// and analyzer together for one test case at a time.
#[derive(Debug)]
pub struct Revizor<C: CpuUnderTest> {
    config: FuzzerConfig,
    target: Option<Target>,
    input_gen: InputGenerator,
    executor: Executor<C>,
    analyzer: Analyzer,
}

impl<C: CpuUnderTest> Revizor<C> {
    /// Create a harness around a CPU under test.
    pub fn new(cpu: C, config: FuzzerConfig) -> Revizor<C> {
        let input_gen = InputGenerator::new(config.generator.input_entropy_bits);
        let executor = Executor::new(cpu, config.executor);
        Revizor { config, target: None, input_gen, executor, analyzer: Analyzer::new() }
    }

    /// Attach the target description.
    pub fn with_target(mut self, target: Target) -> Revizor<C> {
        self.target = Some(target);
        self
    }

    /// The harness configuration.
    pub fn config(&self) -> &FuzzerConfig {
        &self.config
    }

    /// The attached target description, if any (what
    /// [`classify`](crate::classify::classify) needs to label a confirmed
    /// violation).
    pub fn target(&self) -> Option<&Target> {
        self.target.as_ref()
    }

    /// Test one test case with the deterministic input batch and noise
    /// stream a campaign worker uses for `seed` — the sequential half of
    /// the replay contract: evaluating the test case a campaign generated
    /// for `seed` through this method reproduces the campaign's
    /// measurement exactly (see [`ViolationReport::test_case_seed`]).
    ///
    /// # Errors
    /// Propagates architectural faults (which generated test cases never
    /// produce).
    pub fn test_case(&mut self, tc: &TestCase, seed: u64) -> Result<TestCaseOutcome, Fault> {
        let n = self.config.generator.inputs_per_test_case;
        let inputs = self.input_gen.generate(tc, campaign::input_stream_seed(seed), n);
        self.executor.reseed_noise(self.config.executor.noise.for_test_case_seed(seed));
        self.test_with_inputs(tc, &inputs)
    }

    /// Test one test case with an explicit input sequence (used by the
    /// postprocessor and the handwritten-gadget experiments).
    ///
    /// # Errors
    /// Propagates architectural faults.
    pub fn test_with_inputs(
        &mut self,
        tc: &TestCase,
        inputs: &[Input],
    ) -> Result<TestCaseOutcome, Fault> {
        let outcome = campaign::evaluate_slate(
            &mut self.executor,
            &self.analyzer,
            SlateChecks::all(),
            std::slice::from_ref(&self.config.contract),
            tc,
            inputs,
        )?
        .pop()
        .expect("single-contract slate");
        Ok(TestCaseOutcome {
            inputs: inputs.to_vec(),
            analysis: outcome.analysis,
            confirmed_violation: outcome.confirmed_violation,
            discarded_as_artifact: outcome.discarded_as_artifact,
            discarded_by_nesting: outcome.discarded_by_nesting,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{NoopObserver, SeedEval, SlateSpec};
    use crate::gadgets;
    use crate::orchestrator::{CampaignMatrix, CellReport, GroupProgress};
    use rvz_executor::{ExecutorConfig, NoiseConfig};
    use rvz_gen::ProgramGenerator;
    use rvz_uarch::SpecCpu;

    /// A one-cell campaign with the matrix's detection-tuned defaults (4
    /// basic blocks, 14 instructions, 20 inputs, the campaign schedule):
    /// the cell's report and its group's final progress.
    fn campaign(
        target: &Target,
        contract: Contract,
        seed: u64,
        budget: usize,
    ) -> (CellReport, GroupProgress) {
        let matrix = CampaignMatrix::new(seed).with_budget(budget).add_cell(target.clone(), contract);
        let mut run = matrix.start();
        while run.step(&mut NoopObserver) {}
        let progress = run.checkpoint().groups.remove(0);
        let cell = run.finish(&mut NoopObserver).cells.remove(0);
        (cell, progress)
    }

    fn harness(target: &Target, executor: ExecutorConfig) -> Revizor<SpecCpu> {
        let generator =
            rvz_gen::GeneratorConfig::for_subset(target.isa).with_basic_blocks(4).with_instructions(14);
        let config = FuzzerConfig::for_target(target, Contract::ct_seq())
            .with_generator(generator)
            .with_executor(executor)
            .with_inputs_per_test_case(20);
        Revizor::new(target.cpu(), config).with_target(target.clone())
    }

    #[test]
    fn baseline_target1_complies_with_ct_seq() {
        // Table 3, column 1: AR-only test cases on Skylake never violate
        // CT-SEQ — no false positives.
        let (cell, _) = campaign(&Target::target1(), Contract::ct_seq(), 1, 15);
        assert!(!cell.found(), "baseline must not report violations");
        assert!(cell.test_cases > 0);
    }

    #[test]
    fn target5_violates_ct_seq_with_spectre_v1() {
        // Seed 9 finds its first V1 at test case 13 (the per-seed table in
        // `detection.rs`); budget 40 keeps headroom.
        let (cell, _) = campaign(&Target::target5(), Contract::ct_seq(), 9, 40);
        let v = cell.violation.expect("Spectre V1 must surface as a CT-SEQ violation");
        assert_eq!(v.vulnerability, VulnClass::SpectreV1);
        assert!(v.test_case.conditional_branch_count() > 0);
    }

    #[test]
    fn target5_complies_with_ct_cond() {
        // CT-COND permits leakage during branch prediction, so the V1-only
        // target no longer violates it (Table 3, Target 5 row CT-COND).
        let (cell, _) = campaign(&Target::target5(), Contract::ct_cond(), 1, 15);
        assert!(!cell.found());
    }

    #[test]
    fn handwritten_v1_gadget_detected_quickly() {
        let target = Target::target5();
        let mut r = harness(&target, ExecutorConfig::campaign(target.mode));
        let outcome = r.test_case(&gadgets::spectre_v1(), 7).unwrap();
        assert!(outcome.confirmed_violation.is_some(), "handwritten V1 gadget must violate CT-SEQ");
    }

    #[test]
    fn noisy_campaign_violation_reproduces_through_public_api() {
        // Walk campaign seeds under a noisy executor until CT-SEQ confirms a
        // violation (the first sits a dozen seeds in), then replay the seed
        // through the public harness on a fresh CPU: the shared seed
        // derivation must reproduce the same inputs, the same noise stream,
        // and therefore the exact same confirmed violation.
        let target = Target::target5();
        let noise = NoiseConfig { one_off_probability: 0.05, smi_probability: 0.05, seed: 17 };
        let executor = ExecutorConfig::fast(target.mode).with_repetitions(5).with_noise(noise);
        let mut replay = harness(&target, executor);
        let spec = SlateSpec {
            generator: replay.config().generator.clone(),
            executor,
            checks: SlateChecks::all(),
            contracts: vec![Contract::ct_seq()],
            speculation_filter: false,
        };
        let (seed, unit) = (150u64..210)
            .find_map(|seed| match campaign::evaluate_seed(&target.cpu(), &spec, seed) {
                SeedEval::Measured(unit) if unit.outcomes[0].confirmed_violation.is_some() => {
                    Some((seed, unit))
                }
                _ => None,
            })
            .expect("noisy campaign must find Spectre V1");
        let v = unit.outcomes[0].confirmed_violation.as_ref().unwrap();

        let tc = ProgramGenerator::new(spec.generator.clone()).generate(seed);
        let outcome = replay.test_case(&tc, seed).unwrap();
        assert_eq!(outcome.inputs, unit.inputs, "input batch must match the campaign's");
        let rv = outcome.confirmed_violation.expect("violation must reproduce under replay");
        assert_eq!((rv.input_a, rv.input_b), (v.input_a, v.input_b));
        assert_eq!(rv.htrace_a, v.htrace_a);
        assert_eq!(rv.htrace_b, v.htrace_b);
    }

    #[test]
    fn report_metrics_are_populated() {
        let (cell, progress) = campaign(&Target::target1(), Contract::ct_seq(), 1, 12);
        assert_eq!(cell.test_cases, 12);
        assert!(cell.total_inputs >= 12 * 20);
        assert!(progress.round >= 1);
        assert!(cell.effectiveness.effectiveness() > 0.0, "low-entropy inputs must collide");
        assert!(cell.detection_time > std::time::Duration::ZERO);
    }
}
