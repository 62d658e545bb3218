//! Detection-speed harnesses (Tables 4 and 5, §6.5).

use crate::campaign::{self, SlateChecks};
use crate::orchestrator::CampaignMatrix;
use crate::targets::Target;
use rvz_analyzer::Analyzer;
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::InputGenerator;
use rvz_isa::TestCase;
use rvz_model::Contract;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Outcome of one detection-time measurement (one cell sample of Table 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Whether a violation was found within the budget.
    pub found: bool,
    /// Vulnerability label of the violation, if classified.
    pub vulnerability: Option<String>,
    /// Test cases executed until the first violation (or the budget).
    pub test_cases: usize,
    /// Inputs executed until the first violation (or the budget).
    pub inputs: usize,
    /// Wall-clock time until the first violation (or the budget).
    pub duration: Duration,
}

/// Run one fuzzing campaign for `target` against `contract` and report how
/// long the first confirmed violation took (one sample of Table 4).
///
/// The campaign runs as a single-cell [`CampaignMatrix`]: the orchestrator's
/// detection-tuned defaults use mid-campaign generator parameters (a few
/// basic blocks, a dozen instructions, branch-then-load placement bias) and
/// a fixed configuration instead of the §5.6 diversity escalation, keeping
/// the harness comparable to the paper's minutes-long runs while executing
/// on a simulator — and making every sample a deterministic function of
/// `(target, contract, seed)`.
pub fn detection_time(
    target: &Target,
    contract: Contract,
    seed: u64,
    max_test_cases: usize,
) -> DetectionOutcome {
    let report = CampaignMatrix::new(seed)
        .with_budget(max_test_cases)
        .add_cell(target.clone(), contract)
        .run();
    let cell = report.cells.into_iter().next().expect("one cell in, one report out");
    DetectionOutcome {
        found: cell.found(),
        vulnerability: cell.vulnerability().map(|v| v.to_string()),
        test_cases: cell.test_cases,
        inputs: cell.total_inputs,
        duration: cell.detection_time,
    }
}

/// Measure the minimal number of random inputs needed to surface a
/// violation on a handwritten gadget (one cell of Table 5): inputs are added
/// one at a time (with the given seed) until the relational check reports a
/// confirmed violation.
///
/// Returns `None` if no violation surfaced within `max_inputs`.
pub fn inputs_to_violation(
    target: &Target,
    contract: Contract,
    gadget: &TestCase,
    seed: u64,
    max_inputs: usize,
) -> Option<usize> {
    inputs_to_violation_slate(target, std::slice::from_ref(&contract), gadget, seed, max_inputs)
        .into_iter()
        .next()
        .expect("one contract in, one result out")
}

/// [`inputs_to_violation`] for a whole contract slate in one pass: each
/// growing input batch is measured **once** and the collected hardware
/// traces are checked against every contract (they depend only on the
/// gadget and the inputs, never on the contract).  Returns, per contract in
/// slate order, the minimal input count that surfaced a violation — exactly
/// what independent per-contract runs with the same seed would report.
///
/// The §6.6 contract-sensitivity experiment uses this to evaluate CT-SEQ
/// and ARCH-SEQ against both gadgets with half the measurements.
pub fn inputs_to_violation_slate(
    target: &Target,
    contracts: &[Contract],
    gadget: &TestCase,
    seed: u64,
    max_inputs: usize,
) -> Vec<Option<usize>> {
    let mut executor = Executor::new(target.cpu(), ExecutorConfig::fast(target.mode).with_repetitions(2));
    let analyzer = Analyzer::new();
    let gen = InputGenerator::new(2);
    let mut results: Vec<Option<usize>> = vec![None; contracts.len()];
    for n in 2..=max_inputs {
        if results.iter().all(|r| r.is_some()) {
            break;
        }
        let inputs = gen.generate(gadget, seed, n);
        let Ok(outcomes) = campaign::evaluate_slate(
            &mut executor,
            &analyzer,
            SlateChecks::all(),
            contracts,
            gadget,
            &inputs,
        ) else {
            continue;
        };
        for (result, outcome) in results.iter_mut().zip(&outcomes) {
            if result.is_none() && outcome.confirmed_violation.is_some() {
                *result = Some(n);
            }
        }
    }
    results
}

/// For each contract of a slate, the input count of the first detection
/// across a schedule of input-generation seeds.  Seeds are tried in order;
/// each one is measured **once** for the whole slate
/// ([`inputs_to_violation_slate`]), a contract keeps the result of the
/// first seed that surfaced a violation, and the search stops as soon as
/// every contract has one.  The §6.6 contract-sensitivity experiment and
/// example share this schedule.
pub fn first_violations_over_seeds(
    target: &Target,
    contracts: &[Contract],
    gadget: &TestCase,
    seeds: impl IntoIterator<Item = u64>,
    max_inputs: usize,
) -> Vec<Option<usize>> {
    let mut first: Vec<Option<usize>> = vec![None; contracts.len()];
    for seed in seeds {
        let results = inputs_to_violation_slate(target, contracts, gadget, seed, max_inputs);
        for (slot, result) in first.iter_mut().zip(results) {
            if slot.is_none() {
                *slot = result;
            }
        }
        if first.iter().all(|r| r.is_some()) {
            break;
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;

    #[test]
    fn v1_gadget_needs_few_inputs() {
        let n = inputs_to_violation(
            &Target::target5(),
            Contract::ct_seq(),
            &gadgets::spectre_v1(),
            5,
            64,
        );
        assert!(n.is_some(), "V1 gadget must be detected");
        assert!(n.unwrap() <= 32, "detection should need few inputs, got {n:?}");
    }

    #[test]
    fn v4_gadget_detected_on_unpatched_target_only() {
        let gadget = gadgets::spectre_v4();
        let unpatched =
            inputs_to_violation(&Target::target2(), Contract::ct_seq(), &gadget, 5, 48);
        assert!(unpatched.is_some(), "V4 must surface on the unpatched part");
        let patched = inputs_to_violation(&Target::target4(), Contract::ct_seq(), &gadget, 5, 24);
        assert!(patched.is_none(), "the V4 patch suppresses the leak");
    }

    #[test]
    fn detection_time_finds_v1_on_target5() {
        // Detection is stochastic in the PRNG stream, so the budget leaves
        // headroom over the worst measured seed rather than encoding one
        // particular stream.  Measured first V1 on Target 5 × CT-SEQ with
        // the orchestrator's detection-tuned defaults (fixed 4-block /
        // 14-instruction generator, branch-then-load bias):
        //
        //   seed  0   1   2   3   5   9   11  7920
        //   tcs   15  16  4   12  29  13  2   19
        //
        // The same seeds under the unbiased placement need 15/68/142/105/
        // 150/…, which is why the pre-orchestrator budget here was 120.
        let outcome = detection_time(&Target::target5(), Contract::ct_seq(), 11, 40);
        assert!(outcome.found);
        assert_eq!(outcome.vulnerability.as_deref(), Some("V1"));
        assert!(outcome.test_cases >= 1);
    }
}
