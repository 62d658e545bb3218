//! Data-flow timing model.
//!
//! A lightweight scoreboard: every register and the flags have a
//! *ready cycle*; an instruction issues when its sources are ready and its
//! result becomes ready after its latency.  This is not a cycle-accurate
//! pipeline model — it only needs to order events well enough to reproduce
//! the races the paper describes: how long a mispredicted path runs before
//! the squash, and whether a dependent load can issue inside that window
//! (§6.3, Figure 5).

use rvz_isa::{Reg, RegSet};
use serde::{Deserialize, Serialize};

/// Scoreboard of register/flag readiness plus the current issue cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timing {
    cycle: u64,
    reg_ready: [u64; 16],
    flags_ready: u64,
}

impl Timing {
    /// Fresh scoreboard at cycle zero with everything ready.
    pub fn new() -> Timing {
        Timing { cycle: 0, reg_ready: [0; 16], flags_ready: 0 }
    }

    /// Current issue cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycle at which a register's value is available.
    pub fn reg_ready(&self, r: Reg) -> u64 {
        self.reg_ready[r.index()]
    }

    /// Cycle at which the flags are available.
    pub fn flags_ready(&self) -> u64 {
        self.flags_ready
    }

    /// Mark a register as becoming ready at `cycle`.
    pub fn set_reg_ready(&mut self, r: Reg, cycle: u64) {
        self.reg_ready[r.index()] = cycle;
    }

    /// Earliest cycle at which an instruction reading `sources` (and the
    /// flags if `reads_flags`) can issue, assuming one instruction issues
    /// per cycle.
    pub fn issue_cycle(&self, sources: RegSet, reads_flags: bool) -> u64 {
        let mut ready = self.cycle + 1;
        for r in sources.iter() {
            ready = ready.max(self.reg_ready(r));
        }
        if reads_flags {
            ready = ready.max(self.flags_ready);
        }
        ready
    }

    /// Record that an instruction issued at `issue` with latency `latency`,
    /// writing `dests` (and the flags if `writes_flags`).  Returns the
    /// completion cycle.
    ///
    /// The dispatch counter advances by one per instruction regardless of
    /// the issue cycle, modelling an out-of-order core where independent
    /// younger instructions are not delayed by a stalled older one.  This is
    /// what allows a quickly resolving branch to race a slow division
    /// (Figure 5 of the paper).
    pub fn retire(
        &mut self,
        issue: u64,
        latency: u64,
        dests: RegSet,
        writes_flags: bool,
    ) -> u64 {
        let done = issue + latency;
        for r in dests.iter() {
            self.set_reg_ready(r, done);
        }
        if writes_flags {
            self.flags_ready = done;
        }
        self.cycle += 1;
        done
    }

    /// Execute a full serialization (LFENCE/MFENCE): the next instruction
    /// cannot issue before everything currently in flight has completed.
    pub fn barrier(&mut self) {
        let max = self
            .reg_ready
            .iter()
            .copied()
            .chain(std::iter::once(self.flags_ready))
            .max()
            .unwrap_or(self.cycle);
        self.cycle = self.cycle.max(max);
    }

    /// Advance the issue cycle to at least `cycle` (used when re-issuing an
    /// instruction after an assist or squash).
    pub fn advance_to(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_instructions_issue_back_to_back() {
        let mut t = Timing::new();
        let i1 = t.issue_cycle(RegSet::EMPTY, false);
        t.retire(i1, 1, RegSet::of(&[Reg::Rax]), true);
        let i2 = t.issue_cycle(RegSet::EMPTY, false);
        assert_eq!(i2, i1 + 1);
    }

    #[test]
    fn dependent_instruction_waits_for_source() {
        let mut t = Timing::new();
        let i1 = t.issue_cycle(RegSet::EMPTY, false);
        let done = t.retire(i1, 40, RegSet::of(&[Reg::Rax]), false); // slow load into RAX
        let i2 = t.issue_cycle(RegSet::of(&[Reg::Rax]), false);
        assert_eq!(i2, done);
        let i3 = t.issue_cycle(RegSet::of(&[Reg::Rbx]), false);
        assert!(i3 < i2, "independent instruction need not wait");
    }

    #[test]
    fn flags_dependency_tracked() {
        let mut t = Timing::new();
        let i1 = t.issue_cycle(RegSet::EMPTY, false);
        t.retire(i1, 12, RegSet::EMPTY, true); // e.g. a CMP fed by a slow value
        let br = t.issue_cycle(RegSet::EMPTY, true);
        assert_eq!(br, i1 + 12);
    }

    #[test]
    fn serialize_waits_for_everything() {
        let mut t = Timing::new();
        let i1 = t.issue_cycle(RegSet::EMPTY, false);
        t.retire(i1, 100, RegSet::of(&[Reg::Rcx]), false);
        t.barrier();
        assert!(t.cycle() >= i1 + 100);
        let next = t.issue_cycle(RegSet::EMPTY, false);
        assert!(next > i1 + 100);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut t = Timing::new();
        t.advance_to(50);
        assert_eq!(t.cycle(), 50);
        t.advance_to(10);
        assert_eq!(t.cycle(), 50);
    }

    #[test]
    fn clone_is_an_independent_checkpoint() {
        let mut t = Timing::new();
        let i = t.issue_cycle(RegSet::EMPTY, false);
        t.retire(i, 5, RegSet::of(&[Reg::Rax]), false);
        let snapshot = t.clone();
        t.retire(10, 5, RegSet::of(&[Reg::Rbx]), false);
        assert_ne!(t, snapshot);
        assert_eq!(snapshot.reg_ready(Reg::Rbx), 0);
    }
}
