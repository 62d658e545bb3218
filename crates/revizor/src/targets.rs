//! The experimental setups of Table 2.

use rvz_executor::MeasurementMode;
use rvz_gen::Scenario;
use rvz_isa::IsaSubset;
use rvz_uarch::{PredictorConfig, SpecCpu, UarchConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One testing target: a CPU (with its microcode-patch state), an ISA subset
/// for test-case generation, and an executor measurement mode — one column
/// of Table 2.  Predictor-zoo targets (9+) additionally select non-default
/// prediction structures and may pin generation to a scenario gadget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Target {
    /// Target number: 1-8 as in Table 2, 9+ for the predictor zoo.
    pub id: u8,
    /// The micro-architecture configuration of the CPU under test.
    pub cpu_config: UarchConfig,
    /// ISA subset used by the test-case generator.
    pub isa: IsaSubset,
    /// Executor measurement mode.
    pub mode: MeasurementMode,
    /// Pin the generator to a handwritten scenario gadget instead of random
    /// programs.  `None` (all Table 2 targets, and the value pre-zoo
    /// serialized targets decode to) keeps random generation.
    #[serde(default)]
    pub scenario: Option<Scenario>,
}

impl Target {
    /// Target 1: Skylake (V4 patch off), `AR`, Prime+Probe — the baseline
    /// that should comply with every contract.
    pub fn target1() -> Target {
        Target {
            id: 1,
            cpu_config: UarchConfig::skylake(),
            isa: IsaSubset::AR,
            mode: MeasurementMode::prime_probe(),
            scenario: None,
        }
    }

    /// Target 2: Skylake (V4 patch off), `AR+MEM`, Prime+Probe — surfaces
    /// Spectre V4.
    pub fn target2() -> Target {
        Target { isa: IsaSubset::AR_MEM, id: 2, ..Target::target1() }
    }

    /// Target 3: Skylake (V4 patch off), `AR+MEM+VAR`, Prime+Probe —
    /// surfaces the novel V4 latency variant.
    pub fn target3() -> Target {
        Target { isa: IsaSubset::AR_MEM_VAR, id: 3, ..Target::target1() }
    }

    /// Target 4: Skylake with the V4 patch enabled, `AR+MEM+VAR` — expected
    /// to comply (the patch is effective).
    pub fn target4() -> Target {
        Target {
            id: 4,
            cpu_config: UarchConfig::skylake_patched(),
            isa: IsaSubset::AR_MEM_VAR,
            mode: MeasurementMode::prime_probe(),
            scenario: None,
        }
    }

    /// Target 5: Skylake (V4 patch on), `AR+MEM+CB` — surfaces Spectre V1.
    pub fn target5() -> Target {
        Target { isa: IsaSubset::AR_MEM_CB, id: 5, ..Target::target4() }
    }

    /// Target 6: Skylake (V4 patch on), `AR+MEM+CB+VAR` — surfaces the novel
    /// V1 latency variant.
    pub fn target6() -> Target {
        Target { isa: IsaSubset::AR_MEM_CB_VAR, id: 6, ..Target::target4() }
    }

    /// Target 7: Skylake (V4 patch on), `AR+MEM`, Prime+Probe+Assist —
    /// surfaces MDS.
    pub fn target7() -> Target {
        Target {
            id: 7,
            cpu_config: UarchConfig::skylake_patched(),
            isa: IsaSubset::AR_MEM,
            mode: MeasurementMode::prime_probe_assist(),
            scenario: None,
        }
    }

    /// Target 8: Coffee Lake (hardware MDS patch), `AR+MEM`,
    /// Prime+Probe+Assist — surfaces LVI-Null.
    pub fn target8() -> Target {
        Target {
            id: 8,
            cpu_config: UarchConfig::coffee_lake(),
            isa: IsaSubset::AR_MEM,
            mode: MeasurementMode::prime_probe_assist(),
            scenario: None,
        }
    }

    /// All eight targets in Table 2 order.
    pub fn all() -> Vec<Target> {
        vec![
            Target::target1(),
            Target::target2(),
            Target::target3(),
            Target::target4(),
            Target::target5(),
            Target::target6(),
            Target::target7(),
            Target::target8(),
        ]
    }

    /// Target 9: Skylake (V4 patch on) with a TAGE direction predictor,
    /// `AR+MEM+CB` — the history-sensitive counterpart of Target 5.
    pub fn target9() -> Target {
        Target {
            id: 9,
            cpu_config: UarchConfig::skylake_patched()
                .with_predictors(PredictorConfig::tage()),
            ..Target::target5()
        }
    }

    /// Target 10: Skylake (V4 patch on) with a loop predictor, `AR+MEM+CB`.
    pub fn target10() -> Target {
        Target {
            id: 10,
            cpu_config: UarchConfig::skylake_patched()
                .with_predictors(PredictorConfig::loop_predictor()),
            ..Target::target5()
        }
    }

    /// Target 11: Skylake with an aliasing set-associative BTB, pinned to
    /// the cross-site BTB-aliasing V2 scenario.
    pub fn target11() -> Target {
        Target {
            id: 11,
            cpu_config: UarchConfig::skylake_patched()
                .with_predictors(PredictorConfig::aliasing_btb()),
            scenario: Some(Scenario::BtbAliasingV2),
            ..Target::target5()
        }
    }

    /// Target 12: Skylake with a cyclic (wrap-around) RSB, pinned to the
    /// deep RSB over/underflow chain scenario.
    pub fn target12() -> Target {
        Target {
            id: 12,
            cpu_config: UarchConfig::skylake_patched()
                .with_predictors(PredictorConfig::cyclic_rsb(16)),
            scenario: Some(Scenario::DeepRsbChain { depth: 20 }),
            ..Target::target5()
        }
    }

    /// Target 13: Skylake with a TAGE predictor, pinned to the
    /// predictor-state-dependent leak scenario.  TAGE's history tracks the
    /// scenario's history-correlated victim branch on most input streams,
    /// while the same scenario violates CT-SEQ at once on the history-free
    /// default bimodal (the leak is pure predictor state).  The tracking is
    /// not perfect: at budget 300 (seed 30) the cell violates CT-SEQ and
    /// CT-BPAS after 12 test cases; CT-COND and CT-COND-BPAS stay compliant.
    pub fn target13() -> Target {
        Target {
            id: 13,
            cpu_config: UarchConfig::skylake_patched()
                .with_predictors(PredictorConfig::tage()),
            scenario: Some(Scenario::PredictorStateLeak),
            ..Target::target5()
        }
    }

    /// The predictor-zoo targets (9+).
    pub fn zoo() -> Vec<Target> {
        vec![
            Target::target9(),
            Target::target10(),
            Target::target11(),
            Target::target12(),
            Target::target13(),
        ]
    }

    /// Every known target: Table 2 (1-8) followed by the predictor zoo.
    pub fn catalog() -> Vec<Target> {
        let mut targets = Target::all();
        targets.extend(Target::zoo());
        targets
    }

    /// Instantiate the CPU under test for this target.
    pub fn cpu(&self) -> SpecCpu {
        SpecCpu::new(self.cpu_config.clone())
    }

    /// The vulnerability the paper associates with violations of this target
    /// (the parenthesised labels of Table 3), if any.
    pub fn expected_vulnerability(&self) -> Option<&'static str> {
        match self.id {
            1 | 4 => None,
            2 => Some("V4"),
            3 => Some("V4-var"),
            5 => Some("V1"),
            6 => Some("V1-var"),
            7 => Some("MDS"),
            8 => Some("LVI-Null"),
            // Target 13's TAGE tracks the history-correlated branch on
            // most input streams but not all: after one warm-up pass it
            // still mispredicts on some, and that leak is V1 (CT-SEQ and
            // CT-BPAS are found; the CT-COND contracts permit it).
            9 | 10 | 13 => Some("V1"),
            11 => Some("V2-BTB"),
            12 => Some("V5-ret"),
            _ => None,
        }
    }

    /// Does Table 3 report a violation for this target against the given
    /// contract name (e.g. `"CT-SEQ"`)?  Cells marked `×*` in the paper
    /// (not repeated because a stronger contract was already satisfied) are
    /// reported as `false`.
    pub fn paper_expects_violation(&self, contract_name: &str) -> bool {
        if self.id == 0 || self.id > 8 {
            // Zoo targets have no Table 3 row in the paper.
            return false;
        }
        let row = match contract_name {
            "CT-SEQ" => [false, true, true, false, true, true, true, true],
            "CT-BPAS" => [false, false, true, false, true, true, true, true],
            "CT-COND" => [false, true, true, false, false, true, true, true],
            "CT-COND-BPAS" => [false, false, true, false, false, true, true, true],
            _ => return false,
        };
        row[(self.id - 1) as usize]
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The scenario suffix appears only when set, so the rendering of
        // Table 2 targets — and with it every pre-zoo cell digest — is
        // unchanged.
        write!(
            f,
            "Target {}: {} | {} | {}",
            self.id, self.cpu_config.name, self.isa, self.mode
        )?;
        if let Some(s) = &self.scenario {
            write!(f, " | {}", s.label())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_targets_in_order() {
        let all = Target::all();
        assert_eq!(all.len(), 8);
        for (i, t) in all.iter().enumerate() {
            assert_eq!(t.id as usize, i + 1);
        }
    }

    #[test]
    fn table2_rows_match_paper() {
        assert_eq!(Target::target1().isa, IsaSubset::AR);
        assert_eq!(Target::target2().isa, IsaSubset::AR_MEM);
        assert_eq!(Target::target3().isa, IsaSubset::AR_MEM_VAR);
        assert_eq!(Target::target6().isa, IsaSubset::AR_MEM_CB_VAR);
        assert!(!Target::target3().cpu_config.ssbd_patch, "targets 1-3 have the V4 patch off");
        assert!(Target::target4().cpu_config.ssbd_patch, "targets 4-7 have the V4 patch on");
        assert!(Target::target8().cpu_config.name.contains("Coffee Lake"));
        assert!(Target::target7().mode.assists);
        assert!(!Target::target5().mode.assists);
    }

    #[test]
    fn expected_vulnerabilities_match_table3() {
        assert_eq!(Target::target1().expected_vulnerability(), None);
        assert_eq!(Target::target2().expected_vulnerability(), Some("V4"));
        assert_eq!(Target::target5().expected_vulnerability(), Some("V1"));
        assert_eq!(Target::target7().expected_vulnerability(), Some("MDS"));
        assert_eq!(Target::target8().expected_vulnerability(), Some("LVI-Null"));
        assert_eq!(Target::target13().expected_vulnerability(), Some("V1"));
    }

    #[test]
    fn table3_expected_cells() {
        assert!(!Target::target1().paper_expects_violation("CT-SEQ"));
        assert!(Target::target2().paper_expects_violation("CT-SEQ"));
        assert!(!Target::target2().paper_expects_violation("CT-BPAS"));
        assert!(Target::target5().paper_expects_violation("CT-SEQ"));
        assert!(!Target::target5().paper_expects_violation("CT-COND"));
        assert!(Target::target6().paper_expects_violation("CT-COND-BPAS"));
        assert!(Target::target8().paper_expects_violation("CT-COND-BPAS"));
        assert!(!Target::target4().paper_expects_violation("CT-SEQ"));
    }

    #[test]
    fn cpu_instantiation_uses_config() {
        use rvz_uarch::CpuUnderTest;
        let cpu = Target::target8().cpu();
        assert!(cpu.name().contains("Coffee Lake"));
    }

    #[test]
    fn display_contains_all_fields() {
        let s = format!("{}", Target::target7());
        assert!(s.contains("Target 7"));
        assert!(s.contains("AR+MEM"));
        assert!(s.contains("Assist"));
    }

    #[test]
    fn catalog_extends_table2_with_the_zoo() {
        let catalog = Target::catalog();
        assert_eq!(catalog.len(), 13);
        assert_eq!(&catalog[..8], &Target::all()[..]);
        for (i, t) in catalog.iter().enumerate() {
            assert_eq!(t.id as usize, i + 1);
        }
    }

    #[test]
    fn zoo_targets_use_non_default_predictors() {
        for t in Target::zoo() {
            assert!(
                !t.cpu_config.predictors.is_default(),
                "target {} must select a zoo predictor",
                t.id
            );
            assert!(t.cpu_config.name.contains('['), "target {} name: {}", t.id, t.cpu_config.name);
        }
        assert!(Target::target11().scenario.is_some());
        assert!(Target::target12().scenario.is_some());
        assert!(Target::target13().scenario.is_some());
        assert_eq!(Target::target9().scenario, None, "target 9 fuzzes random programs");
    }

    #[test]
    fn zoo_display_appends_scenario_and_table2_display_is_unchanged() {
        let t5 = format!("{}", Target::target5());
        assert_eq!(t5, "Target 5: Skylake (V4 patch on) | AR+MEM+CB | Prime+Probe");
        let t11 = format!("{}", Target::target11());
        assert!(t11.contains("[btb2x2t1]"), "{t11}");
        assert!(t11.ends_with("| V2-btb-alias"), "{t11}");
    }

    #[test]
    fn zoo_targets_have_no_paper_row() {
        for t in Target::zoo() {
            for c in ["CT-SEQ", "CT-BPAS", "CT-COND", "CT-COND-BPAS"] {
                assert!(!t.paper_expects_violation(c));
            }
        }
    }
}
