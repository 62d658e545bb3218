//! Predictor-zoo acceptance tests: each zoo scenario detects a contract
//! violation that the default prediction structures cannot produce.
//!
//! These are the acceptance criteria of the zoo cells in the extended
//! Table 3: the leak must require the zoo predictor (scenario-pinned cells
//! stay *compliant* with the default predictor trio), and must violate even
//! the most permissive CT contract (the speculation is invisible to every
//! contract model — none of them speculates indirect jumps, returns or
//! predictor history).

use rvz_model::Contract;
use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use revizor::VulnClass;
use rvz_uarch::PredictorConfig;

/// Run one (target, contract) cell with a small budget.
fn run_cell(target: Target, contract: Contract, budget: usize) -> bool {
    let report = CampaignMatrix::new(7)
        .with_budget(budget)
        .add_cell(target, contract)
        .run();
    report.cells[0].found()
}

/// The same target with the predictor zoo swapped back out for the default
/// trio (the scenario pin stays).
fn with_default_predictors(mut target: Target) -> Target {
    target.cpu_config.predictors = PredictorConfig::default();
    target
}

#[test]
fn btb_aliasing_v2_violates_even_ct_cond_bpas() {
    assert!(
        run_cell(Target::target11(), Contract::ct_cond_bpas(), 10),
        "the aliasing BTB must leak through the victim's stale prediction"
    );
}

#[test]
fn btb_aliasing_v2_is_compliant_on_the_default_btb() {
    for contract in Contract::table3_contracts() {
        assert!(
            !run_cell(with_default_predictors(Target::target11()), contract.clone(), 10),
            "the last-target BTB keeps the sites separate ({})",
            contract.name()
        );
    }
}

#[test]
fn deep_rsb_chain_violates_even_ct_cond_bpas() {
    assert!(
        run_cell(Target::target12(), Contract::ct_cond_bpas(), 10),
        "the cyclic RSB must serve stale return targets past its capacity"
    );
}

#[test]
fn deep_rsb_chain_is_compliant_on_the_default_rsb() {
    for contract in Contract::table3_contracts() {
        assert!(
            !run_cell(with_default_predictors(Target::target12()), contract.clone(), 10),
            "the stack RSB predicts nothing on underflow ({})",
            contract.name()
        );
    }
}

#[test]
fn predictor_state_leak_fires_on_history_free_bimodal_only() {
    // On the default history-free bimodal, the victim branch's direction
    // keeps flipping with the priming inputs' RAX classes, so it keeps
    // mispredicting and transiently leaks an RBX-derived address through
    // the wrong arm: a CT-SEQ violation.
    assert!(
        run_cell(with_default_predictors(Target::target13()), Contract::ct_seq(), 10),
        "the history-free bimodal cannot predict the history-correlated branch"
    );
    // TAGE records the invisible feeder branch in its global history and
    // predicts the victim branch on most input streams, but not all: after
    // one warm-up pass some streams still mispredict, so the CT-SEQ pair
    // finds V1 (seed 7: at test case 102), while the CT-COND pair, which
    // permits the mispredicted branch's leak, stays compliant through the
    // whole budget, well past that detection.
    let report = CampaignMatrix::new(7)
        .with_budget(300)
        .add_cells(Target::target13(), Contract::table3_contracts())
        .run();
    for cell in &report.cells {
        let name = cell.contract.name();
        if name.starts_with("CT-COND") {
            assert!(!cell.found(), "TAGE's {name} cell must comply");
            assert_eq!(cell.test_cases, 300, "{name} ran its whole budget");
        } else {
            let v = cell.violation.as_ref().expect("TAGE still mispredicts after one warm-up");
            assert_eq!(v.vulnerability, VulnClass::SpectreV1, "{name}");
            assert!(cell.test_cases < 300, "{name} found V1 before the budget ran out");
        }
    }
}

#[test]
fn tage_and_loop_fuzzing_targets_surface_v1() {
    // Targets 9 and 10 fuzz random AR+MEM+CB programs like Target 5, just
    // with different direction predictors: Spectre V1 must still surface
    // under the contracts that do not permit conditional speculation.
    assert!(run_cell(Target::target9(), Contract::ct_seq(), 120), "TAGE target finds V1");
    assert!(run_cell(Target::target10(), Contract::ct_seq(), 120), "loop target finds V1");
}

#[test]
fn zoo_matrix_extends_table3_without_touching_it() {
    let classic = CampaignMatrix::table3(3);
    let zoo = CampaignMatrix::table3_zoo(3);
    assert_eq!(classic.cells().len(), 32);
    assert_eq!(zoo.cells().len(), 52);
    for (a, b) in classic.cells().iter().zip(zoo.cells()) {
        assert_eq!(a.target, b.target);
        assert_eq!(a.contract.name(), b.contract.name());
    }
}
