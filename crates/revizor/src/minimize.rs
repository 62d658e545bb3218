//! The postprocessor: counterexample minimization (§5.7).
//!
//! When a violation is detected, the postprocessor shrinks it in three
//! stages:
//!
//! 1. **Minimal input sequence** — remove inputs from the priming sequence
//!    as long as the violation persists (the remaining inputs are exactly
//!    what is needed to prime the microarchitectural state);
//! 2. **Minimal test case** — remove one instruction at a time while the
//!    violation persists;
//! 3. **Leak localization** — insert `LFENCE`s while the violation
//!    persists; the remaining fence-free region is the location of the
//!    leak (Figure 4).  Placements inside the statically identified
//!    speculation window ([`staticanalysis`](crate::staticanalysis)) are
//!    tried first, so a tight check budget is spent on the positions that
//!    actually decide the leak location.

use crate::fuzzer::Revizor;
use rvz_isa::{Input, Instr, TestCase};
use rvz_uarch::CpuUnderTest;

/// A minimized counterexample.
#[derive(Debug, Clone)]
pub struct MinimizedViolation {
    /// The minimized test case (instructions removed, fences inserted).
    pub test_case: TestCase,
    /// The minimized priming input sequence.
    pub inputs: Vec<Input>,
    /// Positions `(block index, instruction index)` of the instructions
    /// that remained un-fenced — the paper's "location of leakage".
    pub leaking_region: Vec<(usize, usize)>,
    /// Instructions removed during stage 2.
    pub removed_instructions: usize,
    /// Inputs removed during stage 1.
    pub removed_inputs: usize,
}

/// The postprocessor.  It re-runs the full MRT pipeline (through
/// [`Revizor::test_with_inputs`]) after every candidate simplification, so
/// every intermediate step is re-validated against the actual CPU.
#[derive(Debug, Clone, Copy)]
pub struct Postprocessor {
    /// Upper bound on pipeline re-runs, to keep minimization time bounded.
    pub max_checks: usize,
}

impl Default for Postprocessor {
    fn default() -> Self {
        Postprocessor { max_checks: 500 }
    }
}

impl Postprocessor {
    /// Postprocessor with the default budget.
    pub fn new() -> Postprocessor {
        Postprocessor::default()
    }

    /// Minimize a violating (test case, input sequence) pair.
    ///
    /// `fuzzer` must be configured with the same contract and executor mode
    /// that produced the violation.
    pub fn minimize<C: CpuUnderTest>(
        &self,
        fuzzer: &mut Revizor<C>,
        test_case: &TestCase,
        inputs: &[Input],
    ) -> MinimizedViolation {
        let mut checks = 0usize;
        let mut violates = |tc: &TestCase, inputs: &[Input]| -> bool {
            if checks >= self.max_checks {
                return false;
            }
            checks += 1;
            fuzzer
                .test_with_inputs(tc, inputs)
                .map(|o| o.confirmed_violation.is_some())
                .unwrap_or(false)
        };

        // Stage 1: minimal input sequence.
        let mut inputs: Vec<Input> = inputs.to_vec();
        let original_inputs = inputs.len();
        let mut i = 0;
        while i < inputs.len() && inputs.len() > 2 {
            let mut candidate = inputs.clone();
            candidate.remove(i);
            if violates(test_case, &candidate) {
                inputs = candidate;
            } else {
                i += 1;
            }
        }

        // Stage 2: minimal test case.
        let mut tc = test_case.clone();
        let original_instrs = tc.instruction_count();
        let mut changed = true;
        while changed {
            changed = false;
            'outer: for b in 0..tc.blocks().len() {
                for i in 0..tc.blocks()[b].instrs.len() {
                    let mut candidate = tc.clone();
                    candidate.blocks_mut()[b].instrs.remove(i);
                    if violates(&candidate, &inputs) {
                        tc = candidate;
                        changed = true;
                        break 'outer;
                    }
                }
            }
        }

        // Stage 3: insert LFENCEs while the violation persists; instructions
        // that cannot be fenced are the leaking region.  Placements inside
        // the statically identified speculation window
        // ([`TaintReport::window`](crate::staticanalysis::TaintReport)) are
        // tried first, back to front — those are the cuts that decide the
        // leak location, so a tight `max_checks` budget is spent where it
        // matters — followed by the remaining positions, also back to front
        // (the plain Figure 4 order).
        let window = crate::staticanalysis::analyze(&tc).window;
        let all: Vec<(usize, usize)> = tc
            .blocks()
            .iter()
            .enumerate()
            .flat_map(|(b, block)| (0..block.instrs.len()).map(move |i| (b, i)))
            .collect();
        let mut order: Vec<(usize, usize)> =
            all.iter().rev().copied().filter(|p| window.contains(p)).collect();
        order.extend(all.iter().rev().copied().filter(|p| !window.contains(p)));

        // Both `order` and `leaking_region` use the stage-2 (pre-fence)
        // coordinates; every fence kept at a smaller index of the same block
        // shifts the actual insertion point right by one.
        let mut leaking_region = Vec::new();
        let mut inserted: Vec<Vec<usize>> = vec![Vec::new(); tc.blocks().len()];
        for (b, i) in order {
            let at = i + inserted[b].iter().filter(|&&k| k < i).count();
            let mut candidate = tc.clone();
            candidate.blocks_mut()[b].instrs.insert(at, Instr::Lfence);
            if violates(&candidate, &inputs) {
                tc = candidate;
                inserted[b].push(i);
            } else {
                leaking_region.push((b, i));
            }
        }
        leaking_region.sort_unstable();

        // `instruction_count()` includes the stage-3 fences, so add them
        // back before subtracting: summing first keeps the arithmetic in
        // range when stage 3 inserts more fences than stage 2 removed
        // instructions (an already-minimal test case).
        let fences: usize =
            tc.blocks().iter().map(|b| b.instrs.iter().filter(|i| i.is_fence()).count()).sum();
        MinimizedViolation {
            removed_instructions: original_instrs + fences - tc.instruction_count(),
            removed_inputs: original_inputs - inputs.len(),
            test_case: tc,
            inputs,
            leaking_region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuzzerConfig;
    use crate::gadgets;
    use crate::targets::Target;
    use rvz_gen::InputGenerator;
    use rvz_model::Contract;

    fn v1_fuzzer() -> Revizor<rvz_uarch::SpecCpu> {
        let target = Target::target5();
        let config = FuzzerConfig::for_target(&target, Contract::ct_seq());
        Revizor::new(target.cpu(), config).with_target(target)
    }

    #[test]
    fn minimizes_a_spectre_v1_counterexample() {
        let mut fuzzer = v1_fuzzer();
        let tc = gadgets::spectre_v1();
        let inputs = InputGenerator::new(2).generate(&tc, 11, 24);
        let outcome = fuzzer.test_with_inputs(&tc, &inputs).unwrap();
        assert!(outcome.confirmed_violation.is_some(), "gadget must violate CT-SEQ before minimizing");

        let minimized = Postprocessor::new().minimize(&mut fuzzer, &tc, &inputs);
        // The violation still reproduces on the minimized artifact.
        let check = fuzzer.test_with_inputs(&minimized.test_case, &minimized.inputs).unwrap();
        assert!(check.confirmed_violation.is_some());
        // The input sequence shrank (24 random inputs are far more than
        // needed to prime a single branch).
        assert!(minimized.inputs.len() < inputs.len());
        assert!(minimized.removed_inputs > 0);
        // The leaking region is non-empty and lies on the speculative path
        // (block 1 of the gadget), mirroring Figure 4.
        assert!(!minimized.leaking_region.is_empty());
        assert!(minimized.leaking_region.iter().any(|&(b, _)| b == 1));
        // Fences were inserted somewhere outside the leaking region.
        let fences: usize = minimized
            .test_case
            .blocks()
            .iter()
            .map(|b| b.instrs.iter().filter(|i| i.is_fence()).count())
            .sum();
        assert!(fences > 0, "stage 3 must have inserted at least one LFENCE");
    }

    #[test]
    fn minimizing_an_already_minimal_test_case_does_not_underflow() {
        // A stripped V1 gadget: every instruction is load-bearing, so stage 2
        // removes nothing, while stage 3 can still fence positions outside
        // the speculative path.  `removed_instructions` must come out as 0 —
        // computing it as `original - final + fences` would underflow.
        let tc = rvz_isa::builder::TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(rvz_isa::Reg::Rax, 128);
                b.jcc(rvz_isa::Cond::B, "in", "done");
            })
            .block("in", |b| {
                b.load(rvz_isa::Reg::Rcx, rvz_isa::Reg::R14, rvz_isa::Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build();
        let original = tc.instruction_count();

        let mut fuzzer = v1_fuzzer();
        let inputs = InputGenerator::new(2).generate(&tc, 11, 24);
        let outcome = fuzzer.test_with_inputs(&tc, &inputs).unwrap();
        assert!(outcome.confirmed_violation.is_some(), "minimal gadget must violate CT-SEQ");

        let minimized = Postprocessor::new().minimize(&mut fuzzer, &tc, &inputs);
        assert_eq!(minimized.removed_instructions, 0, "nothing removable in a minimal gadget");
        let fences: usize = minimized
            .test_case
            .blocks()
            .iter()
            .map(|b| b.instrs.iter().filter(|i| i.is_fence()).count())
            .sum();
        assert!(fences > 0, "stage 3 must fence the non-leaking prefix");
        assert_eq!(minimized.test_case.instruction_count(), original + fences);
        assert!(!minimized.leaking_region.is_empty());
    }

    #[test]
    fn static_window_covers_the_leaking_region() {
        // The leaking region found dynamically (positions whose fence kills
        // the violation) must lie inside the static over-approximation that
        // stage 3 uses to order its placements — otherwise the window-first
        // ordering would demote the decisive checks to the tail of the
        // budget.
        let mut fuzzer = v1_fuzzer();
        let tc = gadgets::spectre_v1();
        let inputs = InputGenerator::new(2).generate(&tc, 11, 24);
        let minimized = Postprocessor::new().minimize(&mut fuzzer, &tc, &inputs);
        assert!(!minimized.leaking_region.is_empty());

        // `leaking_region` uses pre-fence coordinates: strip the stage-3
        // fences to recover the test case the window was computed on.
        let mut stripped = minimized.test_case.clone();
        for block in stripped.blocks_mut() {
            block.instrs.retain(|i| !i.is_fence());
        }
        let window = crate::staticanalysis::analyze(&stripped).window;
        for pos in &minimized.leaking_region {
            assert!(
                window.contains(pos),
                "leaking position {pos:?} outside the static speculation window {window:?}"
            );
        }
    }

    #[test]
    fn minimization_respects_check_budget() {
        let mut fuzzer = v1_fuzzer();
        let tc = gadgets::spectre_v1();
        let inputs = InputGenerator::new(2).generate(&tc, 11, 16);
        let pp = Postprocessor { max_checks: 0 };
        // With an exhausted budget nothing reproduces, so nothing shrinks
        // structurally; the call still terminates quickly and returns.
        let m = pp.minimize(&mut fuzzer, &tc, &inputs);
        assert_eq!(m.inputs.len(), inputs.len());
    }
}
