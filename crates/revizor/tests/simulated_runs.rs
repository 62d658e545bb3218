//! Exact work gate of hardware-trace collection.
//!
//! The executor replays a run instead of simulating it once the schedule
//! reaches its fixed point, and that is a deterministic count.  This test
//! evaluates the first 50 seeds of each Table 3 target with the slate a
//! Table 3 matrix cell group runs (its generator, the campaign's 1 + 2
//! passes, the four CT contracts, both false-positive filters) through
//! `campaign::evaluate_slate` on one `Executor` per target, and pins the
//! runs it simulated: the scheduled runs of all its collections minus the
//! replayed ones.  A change that simulates more runs fails here, and so
//! does one that simulates fewer: update the pin then, with the reason.
//!
//! `cargo test --release -p revizor --test simulated_runs -- --nocapture`
//! prints the counts per target.

use revizor::campaign::{evaluate_slate, SlateChecks};
use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_analyzer::Analyzer;
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{InputGenerator, ProgramGenerator};
use rvz_model::Contract;

/// Simulated runs over the 8 × 50 units, of 27,360 scheduled.  Snapshots
/// taken before the prime simulated 12,527: a prime makes the victim lines
/// and line order a run leaves behind unobservable.
const SIMULATED_RUNS: u64 = 9_898;

#[test]
fn table3_units_simulate_a_pinned_number_of_runs() {
    let matrix = CampaignMatrix::table3(30);
    let contracts = Contract::table3_contracts();
    let analyzer = Analyzer::new();
    let (mut scheduled, mut simulated) = (0, 0);
    for target in Target::all() {
        let generator = matrix.base_generator(&target);
        let config = ExecutorConfig::campaign(target.mode);
        let passes = (config.warmup_rounds + config.repetitions) as u64;
        let mut executor = Executor::new(target.cpu(), config);
        let mut target_scheduled = 0;
        for seed in 0..50u64 {
            let tc = ProgramGenerator::new(generator.clone()).generate(seed);
            let inputs = InputGenerator::new(generator.input_entropy_bits).generate(
                &tc,
                seed,
                generator.inputs_per_test_case,
            );
            let before = executor.collection_count();
            evaluate_slate(&mut executor, &analyzer, SlateChecks::all(), &contracts, &tc, &inputs)
                .expect("generated test cases do not fault");
            let collections = executor.collection_count() - before;
            target_scheduled += collections * passes * inputs.len() as u64;
        }
        let target_simulated = target_scheduled - executor.replayed_runs();
        println!("target {}: {target_simulated} of {target_scheduled} runs simulated", target.id);
        scheduled += target_scheduled;
        simulated += target_simulated;
    }
    println!("all targets: {simulated} of {scheduled} runs simulated");
    assert_eq!(simulated, SIMULATED_RUNS, "simulated runs of {scheduled} scheduled");
}
