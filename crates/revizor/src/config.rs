//! Configuration of the single-test-case harness.

use crate::targets::Target;
use rvz_executor::ExecutorConfig;
use rvz_gen::GeneratorConfig;
use rvz_model::Contract;
use serde::{Deserialize, Serialize};

/// Configuration of a [`Revizor`](crate::Revizor) harness: one contract,
/// the generator parameters its inputs are drawn with, and the executor.
/// Campaign-level settings (budget, seed, rounds, worker threads, the
/// static pre-filter) live on [`CampaignMatrix`](crate::CampaignMatrix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzerConfig {
    /// The contract the CPU is tested against.
    pub contract: Contract,
    /// Test-case / input generation parameters.
    pub generator: GeneratorConfig,
    /// Executor parameters (measurement mode, repetitions, noise).
    pub executor: ExecutorConfig,
}

impl FuzzerConfig {
    /// Configuration for one of the paper's targets (Table 2) against a
    /// contract, with the paper's initial generator parameters and the
    /// campaign's measurement schedule ([`ExecutorConfig::campaign`]), so a
    /// matrix violation replays under the schedule that found it.
    pub fn for_target(target: &Target, contract: Contract) -> FuzzerConfig {
        FuzzerConfig {
            contract,
            generator: GeneratorConfig::for_subset(target.isa),
            executor: ExecutorConfig::campaign(target.mode),
        }
    }

    /// Builder: set the number of inputs per test case.
    pub fn with_inputs_per_test_case(mut self, n: usize) -> FuzzerConfig {
        self.generator.inputs_per_test_case = n.max(2);
        self
    }

    /// Builder: replace the generator configuration.
    pub fn with_generator(mut self, generator: GeneratorConfig) -> FuzzerConfig {
        self.generator = generator;
        self
    }

    /// Builder: replace the executor configuration.
    pub fn with_executor(mut self, executor: ExecutorConfig) -> FuzzerConfig {
        self.executor = executor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::IsaSubset;

    #[test]
    fn for_target_inherits_isa_and_mode() {
        let t = Target::target5();
        let c = FuzzerConfig::for_target(&t, Contract::ct_seq());
        assert_eq!(c.generator.isa, IsaSubset::AR_MEM_CB);
        assert_eq!(c.executor, ExecutorConfig::campaign(t.mode));
        assert_eq!(c.contract, Contract::ct_seq());
    }

    #[test]
    fn builders() {
        let c = FuzzerConfig::for_target(&Target::target1(), Contract::ct_seq())
            .with_inputs_per_test_case(7);
        assert_eq!(c.generator.inputs_per_test_case, 7);
        assert_eq!(c.with_inputs_per_test_case(1).generator.inputs_per_test_case, 2);
    }
}
