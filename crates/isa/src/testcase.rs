//! Test cases: DAGs of basic blocks plus the sandbox layout they run in.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::sandbox::SandboxLayout;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A complete test case (the "program" of Definition 1).
///
/// Blocks are stored in topological order; block `0` is the entry.  Generated
/// test cases are DAGs (terminators only jump forward), which matches the
/// paper's loop-free generation strategy (§5.1).  Handwritten gadgets may use
/// `Call`/`Ret` but must still be acyclic in the static successor relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestCase {
    blocks: Vec<BasicBlock>,
    sandbox: SandboxLayout,
    /// Free-form origin note ("generated seed=42", "gadget:spectre-v1", ...).
    origin: String,
}

/// Errors produced by [`TestCase::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The test case has no blocks.
    Empty,
    /// A terminator refers to a block that does not exist.
    DanglingTarget {
        /// Block containing the bad terminator.
        from: BlockId,
        /// Missing target.
        to: BlockId,
    },
    /// A terminator jumps backwards or to itself, which could form a loop.
    BackwardEdge {
        /// Block containing the terminator.
        from: BlockId,
        /// Backward target.
        to: BlockId,
    },
    /// Block ids are not dense and in order.
    MisnumberedBlock {
        /// Position in the vector.
        expected: usize,
        /// Actual id found.
        found: BlockId,
    },
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Empty => write!(f, "test case has no basic blocks"),
            TestCaseError::DanglingTarget { from, to } => {
                write!(f, "terminator of {from} targets non-existent block {to}")
            }
            TestCaseError::BackwardEdge { from, to } => {
                write!(f, "terminator of {from} jumps backwards to {to}")
            }
            TestCaseError::MisnumberedBlock { expected, found } => {
                write!(f, "block at position {expected} has id {found}")
            }
        }
    }
}

impl std::error::Error for TestCaseError {}

impl TestCase {
    /// Create a test case from blocks and a sandbox layout.
    ///
    /// Use [`TestCase::validate`] to check structural invariants.
    pub fn new(blocks: Vec<BasicBlock>, sandbox: SandboxLayout) -> TestCase {
        TestCase { blocks, sandbox, origin: String::new() }
    }

    /// Attach an origin note.
    pub fn with_origin(mut self, origin: impl Into<String>) -> TestCase {
        self.origin = origin.into();
        self
    }

    /// The origin note.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The basic blocks in topological order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Mutable access to the blocks (used by the postprocessor/minimizer).
    pub fn blocks_mut(&mut self) -> &mut Vec<BasicBlock> {
        &mut self.blocks
    }

    /// The sandbox layout.
    pub fn sandbox(&self) -> SandboxLayout {
        self.sandbox
    }

    /// The entry block.
    pub fn entry(&self) -> &BasicBlock {
        &self.blocks[0]
    }

    /// Look up a block by id.
    pub fn block(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// Total number of instructions (bodies plus terminators).
    pub fn instruction_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Number of memory-accessing instructions.
    pub fn memory_access_count(&self) -> usize {
        self.blocks.iter().map(|b| b.memory_access_count()).sum()
    }

    /// Number of conditional-branch terminators.
    pub fn conditional_branch_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.terminator.is_conditional()).count()
    }

    /// Number of indirect-jump terminators (the sites a BTB predicts).
    pub fn indirect_branch_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.terminator, Terminator::IndirectJmp { .. }))
            .count()
    }

    /// Number of return terminators (the sites an RSB predicts).
    pub fn return_count(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.terminator, Terminator::Ret)).count()
    }

    /// Number of variable-latency instructions.
    pub fn variable_latency_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.instrs.iter().filter(|i| i.is_variable_latency()).count())
            .sum()
    }

    /// Check structural invariants: non-empty, dense block numbering, no
    /// dangling targets and no backward edges for plain jumps/branches.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TestCaseError> {
        if self.blocks.is_empty() {
            return Err(TestCaseError::Empty);
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(TestCaseError::MisnumberedBlock { expected: i, found: b.id });
            }
        }
        let n = self.blocks.len();
        for b in &self.blocks {
            for succ in b.terminator.successors() {
                if succ.index() >= n {
                    return Err(TestCaseError::DanglingTarget { from: b.id, to: succ });
                }
                // Call targets may be placed anywhere; plain jumps must go
                // forward so generated programs stay loop-free.
                let is_call = matches!(b.terminator, Terminator::Call { .. });
                if !is_call && succ.index() <= b.id.index() {
                    return Err(TestCaseError::BackwardEdge { from: b.id, to: succ });
                }
            }
        }
        Ok(())
    }

    /// Blocks reachable from the entry following static successors.
    pub fn reachable_blocks(&self) -> HashSet<BlockId> {
        let mut seen = HashSet::new();
        let mut stack = vec![BlockId::ENTRY];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                continue;
            }
            if let Some(block) = self.block(b) {
                stack.extend(block.terminator.successors());
            }
        }
        seen
    }

    /// Render the test case in the assembly-like format used by the paper's
    /// figures (Figure 3 / Figure 4).
    pub fn to_asm(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for TestCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.origin.is_empty() {
            writeln!(f, "; origin: {}", self.origin)?;
        }
        writeln!(f, "; sandbox: {} page(s), mask {:#b}", self.sandbox.data_pages, self.sandbox.address_mask())?;
        for b in &self.blocks {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, Instr};
    use crate::operand::Operand;
    use crate::reg::Reg;

    fn simple_tc() -> TestCase {
        let mut b0 = BasicBlock::new(BlockId(0));
        b0.instrs.push(Instr::Alu {
            op: AluOp::And,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(0b111111000000),
            lock: false,
        });
        b0.terminator =
            Terminator::CondJmp { cond: Cond::Ns, taken: BlockId(1), not_taken: BlockId(2) };
        let b1 = BasicBlock::new(BlockId(1));
        let mut b1 = b1;
        b1.terminator = Terminator::Jmp { target: BlockId(2) };
        let b2 = BasicBlock::new(BlockId(2));
        TestCase::new(vec![b0, b1, b2], SandboxLayout::one_page()).with_origin("test")
    }

    #[test]
    fn validate_accepts_simple_dag() {
        assert_eq!(simple_tc().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_empty() {
        let tc = TestCase::new(vec![], SandboxLayout::one_page());
        assert_eq!(tc.validate(), Err(TestCaseError::Empty));
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut tc = simple_tc();
        tc.blocks_mut()[1].terminator = Terminator::Jmp { target: BlockId(9) };
        assert!(matches!(tc.validate(), Err(TestCaseError::DanglingTarget { .. })));
    }

    #[test]
    fn validate_rejects_backward_edge() {
        let mut tc = simple_tc();
        tc.blocks_mut()[2].terminator = Terminator::Jmp { target: BlockId(0) };
        assert!(matches!(tc.validate(), Err(TestCaseError::BackwardEdge { .. })));
    }

    #[test]
    fn validate_rejects_misnumbered_blocks() {
        let b0 = BasicBlock::new(BlockId(1));
        let tc = TestCase::new(vec![b0], SandboxLayout::one_page());
        assert!(matches!(tc.validate(), Err(TestCaseError::MisnumberedBlock { .. })));
    }

    #[test]
    fn counters() {
        let tc = simple_tc();
        assert_eq!(tc.instruction_count(), 4);
        assert_eq!(tc.conditional_branch_count(), 1);
        assert_eq!(tc.memory_access_count(), 0);
        assert_eq!(tc.variable_latency_count(), 0);
        assert_eq!(tc.origin(), "test");
    }

    #[test]
    fn reachability() {
        let tc = simple_tc();
        let r = tc.reachable_blocks();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn display_contains_blocks_and_sandbox() {
        let s = simple_tc().to_asm();
        assert!(s.contains(".bb0"));
        assert!(s.contains("AND RAX, 4032"));
        assert!(s.contains("sandbox"));
    }

    #[test]
    fn error_display() {
        let e = TestCaseError::DanglingTarget { from: BlockId(0), to: BlockId(7) };
        assert!(format!("{e}").contains(".bb7"));
    }
}
