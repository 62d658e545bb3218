//! Scenario-pinned test cases: handwritten speculation gadgets the
//! generator can emit instead of random programs.
//!
//! The random generator only emits conditional branches (`IndirectJmp`,
//! `Call` and `Ret` are excluded from random bodies so every program stays
//! fault-free), which means the BTB and RSB of the CPU under test are never
//! exercised by random fuzzing.  Scenarios close that gap: a
//! [`GeneratorConfig`] carrying a [`Scenario`] makes
//! [`ProgramGenerator::generate`](crate::ProgramGenerator::generate) return
//! the pinned gadget for every seed (input streams still vary per seed), so
//! a campaign cell can target a specific predictor structure.
//!
//! The classic Table 5 gadgets live here too, so the bench binaries can run
//! them as ordinary scenario-pinned matrix cells over the shared campaign
//! pool.

use crate::config::GeneratorConfig;
use rvz_isa::builder::TestCaseBuilder;
use rvz_isa::{Cond, Instr, Operand, Reg, SandboxLayout, ShiftOp, TestCase};
use serde::{Deserialize, Serialize};

/// The sandbox-masking constant for a one-page sandbox (`0b111111000000`).
const MASK: i64 = 0b111111000000;

/// A handwritten speculation scenario the generator can be pinned to.
///
/// The first seven variants are the paper's Table 5 gadgets; the rest are
/// predictor-zoo scenarios that require a non-default
/// `PredictorConfig` to fire (see each variant's documentation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Spectre V1: bounds check bypass with a dependent double load.
    SpectreV1,
    /// Spectre V1.1: speculative out-of-bounds store and use.
    SpectreV11,
    /// Spectre V2: indirect jump with a BTB-predicted target.
    SpectreV2,
    /// Spectre V4: speculative store bypass.
    SpectreV4,
    /// Spectre V5 / ret2spec: overwritten return address vs. RSB.
    SpectreV5Ret,
    /// MDS via the line-fill buffer (RIDL/ZombieLoad-style).
    MdsLfb,
    /// MDS via the store buffer (Fallout-style).
    MdsSb,
    /// Cross-site BTB-aliasing V2: an always-taken indirect jump trains a
    /// BTB entry that a *different*, index/tag-aliased site later consumes,
    /// steering its transient execution into a leak block.  Requires a
    /// set-associative BTB with a small geometry (e.g.
    /// `PredictorConfig::aliasing_btb()`); the default last-target BTB
    /// keeps the two sites separate and stays compliant.
    BtbAliasingV2,
    /// A call chain deeper than the RSB capacity followed by the full
    /// return cascade: a cyclic RSB wraps around and predicts *stale*
    /// targets for the outermost returns, transiently re-executing the
    /// leak body with an attacker-controlled address (ret2spec past the
    /// buffer depth).  Requires `PredictorConfig::cyclic_rsb(..)`; the
    /// default stack RSB predicts nothing on underflow and stays
    /// compliant.
    DeepRsbChain {
        /// Call-chain depth; must exceed the RSB capacity to wrap and stay
        /// within the 32-slot sandbox stack.
        depth: usize,
    },
    /// A predictor-state-dependent leak: an architecturally invisible
    /// branch (both arms target the same block) records the input's class
    /// in the global history, and a later branch on the *same* predicate is
    /// perfectly predictable from that history.  The history-*free*
    /// default bimodal keeps mispredicting as the priming inputs flip the
    /// direction, transiently leaking an input-derived address through the
    /// wrong arm.  A history-capable direction predictor
    /// (`PredictorConfig::tage()`, or a history-mixing bimodal) learns the
    /// correlation during warm-up on most input streams, so it leaks far
    /// later, but not never: after one warm-up pass some streams still
    /// mispredict.  The leak exists or vanishes purely as a function of
    /// predictor state.
    PredictorStateLeak,
}

impl Scenario {
    /// Short stable label, used in target descriptions and cell digests.
    pub fn label(&self) -> String {
        match self {
            Scenario::SpectreV1 => "V1".to_string(),
            Scenario::SpectreV11 => "V1.1".to_string(),
            Scenario::SpectreV2 => "V2".to_string(),
            Scenario::SpectreV4 => "V4".to_string(),
            Scenario::SpectreV5Ret => "V5-ret".to_string(),
            Scenario::MdsLfb => "MDS-LFB".to_string(),
            Scenario::MdsSb => "MDS-SB".to_string(),
            Scenario::BtbAliasingV2 => "V2-btb-alias".to_string(),
            Scenario::DeepRsbChain { depth } => format!("deep-rsb-{depth}"),
            Scenario::PredictorStateLeak => "predictor-state".to_string(),
        }
    }

    /// Build the pinned test case.
    pub fn build(&self) -> TestCase {
        match self {
            Scenario::SpectreV1 => spectre_v1(),
            Scenario::SpectreV11 => spectre_v1_1(),
            Scenario::SpectreV2 => spectre_v2(),
            Scenario::SpectreV4 => spectre_v4(),
            Scenario::SpectreV5Ret => spectre_v5_ret(),
            Scenario::MdsLfb => mds_lfb(),
            Scenario::MdsSb => mds_sb(),
            Scenario::BtbAliasingV2 => btb_aliasing_v2(),
            Scenario::DeepRsbChain { depth } => deep_rsb_chain(*depth),
            Scenario::PredictorStateLeak => predictor_state_leak(),
        }
    }

    /// The Table 5 scenarios with their paper labels, in table order.
    pub fn table5() -> Vec<Scenario> {
        vec![
            Scenario::SpectreV1,
            Scenario::SpectreV11,
            Scenario::SpectreV2,
            Scenario::SpectreV4,
            Scenario::SpectreV5Ret,
            Scenario::MdsLfb,
            Scenario::MdsSb,
        ]
    }
}

/// Spectre V1 (bounds check bypass): a conditional bounds check guards a
/// dependent double load; on the mispredicted path the secret selects the
/// address of the second load (Figure 6b of the paper).
pub fn spectre_v1() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spectre-v1")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.cmp_imm(Reg::Rax, 128); // bounds check on RAX (half of the low-entropy inputs pass)
            b.jcc(Cond::B, "in_bounds", "done");
        })
        .block("in_bounds", |b| {
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx); // a = array1[b]
            b.and_imm(Reg::Rcx, MASK);
            b.load(Reg::Rdx, Reg::R14, Reg::Rcx); // c = array2[a]
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Spectre V1.1 (speculative buffer overflow): the mispredicted path
/// contains a store whose address depends on unchecked data, followed by a
/// use of the same location.
pub fn spectre_v1_1() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spectre-v1.1")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.cmp_imm(Reg::Rax, 128);
            b.jcc(Cond::B, "in_bounds", "done");
        })
        .block("in_bounds", |b| {
            b.store(Reg::R14, Reg::Rbx, Reg::Rcx); // speculative OOB store
            b.load(Reg::Rdx, Reg::R14, Reg::Rbx); // and a use of that location
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Spectre V2 (branch target injection): an indirect jump whose target is
/// predicted by the BTB; the mispredicted target leaks a register through a
/// load.
pub fn spectre_v2() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spectre-v2")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            // Bring the target selector down to the low bits so that the
            // cache-line-granular input values actually select different
            // targets (and therefore mistrain the BTB).
            b.push(Instr::Shift {
                op: ShiftOp::Shr,
                dest: Operand::reg(Reg::Rax),
                amount: Operand::imm(6),
            });
            b.jmp_indirect(Reg::Rax, vec!["leak", "safe"]);
        })
        .block("leak", |b| {
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.jmp("done");
        })
        .block("safe", |b| {
            b.nop();
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Spectre V4 (speculative store bypass): a store with a slowly resolving
/// address is bypassed by a younger load, whose stale value selects a
/// dependent access.
pub fn spectre_v4() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spectre-v4")
        .block("entry", |b| {
            // Slow address chain for the store.
            b.mov_imm(Reg::Rax, 0);
            b.imul_imm(Reg::Rax, 1);
            b.imul_imm(Reg::Rax, 1);
            b.imul_imm(Reg::Rax, 1);
            b.and_imm(Reg::Rax, MASK);
            // Overwrite the secret at [R14 + 0] with RDX.
            b.store(Reg::R14, Reg::Rax, Reg::Rdx);
            // The load may bypass the store and read the stale secret...
            b.load_disp(Reg::Rbx, Reg::R14, 0);
            // ...which then selects a dependent access.
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build()
}

/// Spectre V5 / ret2spec: the return address is overwritten in memory, so
/// the RSB predicts a stale target whose body leaks a register.
pub fn spectre_v5_ret() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spectre-v5-ret")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.call("callee", "leak");
        })
        .block("callee", |b| {
            // Overwrite the return address on the in-sandbox stack with the
            // index of the "safe" block (3), diverting the architectural
            // return while the RSB still predicts "leak".
            b.mov_imm(Reg::Rcx, 3);
            b.store_disp(Reg::Rsp, 0, Reg::Rcx);
            b.ret();
        })
        .block("leak", |b| {
            b.load(Reg::Rdx, Reg::R14, Reg::Rbx);
            b.jmp("done");
        })
        .block("safe", |b| {
            b.nop();
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// MDS via the line-fill buffer (RIDL/ZombieLoad-style): a secret travels
/// through the fill buffer, an assisted load transiently forwards it, and a
/// dependent access leaks it.
pub fn mds_lfb() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:mds-lfb")
        .sandbox(SandboxLayout::two_pages().with_assist_page(1))
        .block("entry", |b| {
            // Pull the secret through the memory subsystem (fill buffer).
            b.and_imm(Reg::Rdx, MASK);
            b.load(Reg::Rax, Reg::R14, Reg::Rdx);
            // Assisted load from the accessed-bit-cleared page.
            b.load_disp(Reg::Rbx, Reg::R14, 4096 + 512);
            // Dependent access on the (transiently forwarded) value.
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build()
}

/// MDS via the store buffer (Fallout-style): the secret enters the memory
/// subsystem through a store rather than a load.
pub fn mds_sb() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:mds-sb")
        .sandbox(SandboxLayout::two_pages().with_assist_page(1))
        .block("entry", |b| {
            b.and_imm(Reg::Rdx, MASK);
            b.store(Reg::R14, Reg::Rdx, Reg::Rax); // secret value RAX through the store buffer
            b.load_disp(Reg::Rbx, Reg::R14, 4096 + 512); // assisted load
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build()
}

/// Cross-site BTB-aliasing V2 (see [`Scenario::BtbAliasingV2`]).
///
/// Block layout (indices are the BTB sites):
///
/// * block 1 `train`: an indirect jump whose one-entry table makes it
///   architecturally always go to `leak` — every run (re)trains the shared
///   BTB entry toward the leak block;
/// * block 2 `leak`: loads `array[RBX]` — architecturally executed once
///   with the input's (masked) RBX;
/// * block 3 `mid`: moves the secret RDX into RBX and masks it;
/// * block 5 `victim`: an indirect jump that architecturally always goes to
///   `safe`, but under a 2×2/1-bit BTB site 5 aliases site 1 (5 ≡ 1
///   mod 4), so the predictor steers it into `leak` — transiently
///   re-executing the load with the RDX-derived address.
///
/// Inputs that differ only in RDX have identical architectural traces (RDX
/// is never used for memory architecturally) and identical contract traces
/// under all four CT contracts (none of them speculates indirect jumps),
/// but different hardware traces — a violation even against CT-COND-BPAS.
pub fn btb_aliasing_v2() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:btb-aliasing-v2")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.jmp("train");
        })
        .block("train", |b| {
            b.jmp_indirect(Reg::Rax, vec!["leak"]);
        })
        .block("leak", |b| {
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.jmp("mid");
        })
        .block("mid", |b| {
            b.mov(Reg::Rbx, Reg::Rdx);
            b.and_imm(Reg::Rbx, MASK);
            b.jmp("pad");
        })
        .block("pad", |b| {
            b.nop();
            b.jmp("victim");
        })
        .block("victim", |b| {
            b.jmp_indirect(Reg::Rax, vec!["safe"]);
        })
        .block("safe", |b| {
            b.nop();
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Deep RSB over/underflow chain (see [`Scenario::DeepRsbChain`]).
///
/// `depth` nested calls push `depth` return targets; a 16-entry cyclic RSB
/// keeps only the newest 16 and *wraps around* on the way back out, so the
/// outermost `depth - 16` returns are predicted toward stale (newest)
/// return sites.  The first return block (`rr<depth>`) holds the leak load,
/// and a middle return block rewrites RBX from the secret RDX before the
/// stale predictions fire — transiently re-executing the leak load with the
/// secret-derived address.  The secret is shifted up by four bits first:
/// the call chain's own stack traffic covers the low cache sets, and a leak
/// landing in an always-touched set would be invisible to Prime+Probe.
pub fn deep_rsb_chain(depth: usize) -> TestCase {
    // The sandbox stack holds 31 return slots; keep one spare.
    let depth = depth.clamp(2, 30);
    let mut builder = TestCaseBuilder::new().origin("gadget:deep-rsb-chain");
    builder = builder.block("entry", |b| {
        b.and_imm(Reg::Rbx, MASK);
        b.call("f1", "rr1");
    });
    // The call chain: f1 .. f<depth-1> each call the next level; f<depth>
    // is the innermost frame and starts the return cascade.
    for i in 1..depth {
        let target = format!("f{}", i + 1);
        let return_to = format!("rr{}", i + 1);
        builder = builder.block(format!("f{i}"), move |b| {
            b.call(target, return_to);
        });
    }
    builder = builder.block(format!("f{depth}"), |b| {
        b.nop();
        b.ret();
    });
    // The return cascade, innermost first: rr<depth> leaks, a middle frame
    // rewrites RBX from RDX, rr1 exits.
    let rewrite_at = depth / 2;
    for i in (2..=depth).rev() {
        builder = builder.block(format!("rr{i}"), move |b| {
            if i == depth {
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            } else if i == rewrite_at {
                b.mov(Reg::Rbx, Reg::Rdx);
                b.shl_imm(Reg::Rbx, 4);
                b.and_imm(Reg::Rbx, MASK);
            } else {
                b.nop();
            }
            b.ret();
        });
    }
    builder.block("rr1", |b| b.exit()).build()
}

/// Predictor-state-dependent leak (see [`Scenario::PredictorStateLeak`]).
///
/// The entry block's conditional branch targets the same block on both
/// arms, so its direction is architecturally invisible (same control flow,
/// same addresses) — it exists only to push the input's RAX class into the
/// global history register.  The `victim` block then branches on the *same*
/// predicate: its direction is perfectly determined by the history bit the
/// feeder just recorded, so a history-capable predictor (TAGE, or a
/// history-mixing bimodal) can learn it during the warm-up pass.  The
/// history-*free* default bimodal sees only a
/// direction stream that keeps flipping with the priming inputs' RAX
/// classes and keeps mispredicting — transiently running the wrong arm,
/// whose load address derives from RBX.  Inputs of the no-load arm's class
/// share one contract trace under CT-SEQ whatever their RBX, so two
/// mispredicted inputs with different RBX violate the contract.  A
/// predictor that consumes the history removes the leak on most input
/// streams, not all: a TAGE that has seen one warm-up pass still
/// mispredicts on some, so the same cell violates CT-SEQ, only later.
/// The leak's existence is a function of predictor state alone.
pub fn predictor_state_leak() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:predictor-state-leak")
        .block("entry", |b| {
            // Spread the transient offset across distinct cache sets (the
            // low sets are shared with the architectural accesses).
            b.shl_imm(Reg::Rbx, 4);
            b.and_imm(Reg::Rbx, MASK);
            // History feeder: architecturally invisible, records RAX's
            // class in the global branch history.
            b.cmp_imm(Reg::Rax, 128);
            b.jcc(Cond::B, "victim", "victim");
        })
        .block("victim", |b| {
            // Same predicate as the feeder: pure history correlation.
            b.cmp_imm(Reg::Rax, 128);
            b.jcc(Cond::B, "hit", "leak");
        })
        .block("hit", |b| {
            b.nop();
            b.jmp("done");
        })
        .block("leak", |b| {
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Builder hook used by [`ProgramGenerator`](crate::ProgramGenerator): the
/// pinned test case for a configuration, if any.
pub fn pinned_test_case(config: &GeneratorConfig) -> Option<TestCase> {
    config.scenario.as_ref().map(Scenario::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build_valid_test_cases() {
        let scenarios = vec![
            Scenario::SpectreV1,
            Scenario::SpectreV11,
            Scenario::SpectreV2,
            Scenario::SpectreV4,
            Scenario::SpectreV5Ret,
            Scenario::MdsLfb,
            Scenario::MdsSb,
            Scenario::BtbAliasingV2,
            Scenario::DeepRsbChain { depth: 20 },
            Scenario::PredictorStateLeak,
        ];
        for s in scenarios {
            let tc = s.build();
            assert_eq!(tc.validate(), Ok(()), "{}", s.label());
        }
    }

    #[test]
    fn table5_labels_match_paper_order() {
        let labels: Vec<String> = Scenario::table5().iter().map(Scenario::label).collect();
        assert_eq!(labels, vec!["V1", "V1.1", "V2", "V4", "V5-ret", "MDS-LFB", "MDS-SB"]);
    }

    #[test]
    fn btb_aliasing_sites_are_congruent_mod_4() {
        let tc = btb_aliasing_v2();
        let indirect_sites: Vec<usize> = tc
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b.terminator, rvz_isa::Terminator::IndirectJmp { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(indirect_sites.len(), 2);
        assert_eq!(
            indirect_sites[0] % 4,
            indirect_sites[1] % 4,
            "train and victim sites must alias in the 2x2/1-bit BTB"
        );
        assert_ne!(indirect_sites[0], indirect_sites[1]);
    }

    #[test]
    fn deep_rsb_chain_respects_stack_capacity() {
        for depth in [17, 20, 30, 64] {
            let tc = deep_rsb_chain(depth);
            let calls = tc
                .blocks()
                .iter()
                .filter(|b| matches!(b.terminator, rvz_isa::Terminator::Call { .. }))
                .count();
            assert!(calls <= 30, "depth {depth}: {calls} calls must fit the sandbox stack");
            assert!(calls > 16, "depth {depth}: chain must exceed the RSB capacity");
            assert_eq!(tc.validate(), Ok(()));
        }
    }

    #[test]
    fn predictor_state_leak_branch_is_architecturally_invisible() {
        let tc = predictor_state_leak();
        let entry = &tc.blocks()[0];
        match &entry.terminator {
            rvz_isa::Terminator::CondJmp { taken, not_taken, .. } => {
                assert_eq!(taken, not_taken, "both arms must target the same block");
            }
            t => panic!("unexpected entry terminator {t:?}"),
        }
    }
}
