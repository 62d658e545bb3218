//! Basic blocks and control-flow terminators.

use crate::inst::{Cond, Instr};
use crate::reg::{Reg, RegSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a basic block within a [`TestCase`](crate::TestCase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The entry block of every test case.
    pub const ENTRY: BlockId = BlockId(0);

    /// Index into the block vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".bb{}", self.0)
    }
}

/// The control-flow terminator of a basic block.
///
/// Generated programs form a DAG (§5.1): terminators only ever target blocks
/// with a strictly larger id, which rules out loops by construction.
/// Handwritten gadgets additionally use `Call`/`Ret`/indirect jumps for the
/// Spectre V2 / V5-ret experiments (Table 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// End of the test case.
    Exit,
    /// Unconditional jump.
    Jmp {
        /// Target block.
        target: BlockId,
    },
    /// Conditional jump: if `cond` holds go to `taken`, otherwise fall
    /// through to `not_taken`.
    CondJmp {
        /// Condition code (reads flags).
        cond: Cond,
        /// Block executed when the condition holds.
        taken: BlockId,
        /// Block executed when the condition does not hold.
        not_taken: BlockId,
    },
    /// Indirect jump through a register.  The register value is interpreted
    /// modulo `table.len()` as an index into `table` (a jump table), which
    /// keeps arbitrary register values from escaping the test case while
    /// still exercising the branch-target buffer.
    IndirectJmp {
        /// Register holding the target selector.
        src: Reg,
        /// Possible targets.
        table: Vec<BlockId>,
    },
    /// Call: push the return block onto the in-sandbox stack and jump to
    /// `target`; the matching [`Terminator::Ret`] pops it.
    Call {
        /// Callee block.
        target: BlockId,
        /// Block to return to.
        return_to: BlockId,
    },
    /// Return: pop the return target from the in-sandbox stack.
    Ret,
}

impl Terminator {
    /// Blocks that this terminator may transfer control to (statically),
    /// without allocating: decode-time validation walks them for every
    /// generated test case.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (pair, table): ([Option<BlockId>; 2], &[BlockId]) = match self {
            Terminator::Exit | Terminator::Ret => ([None, None], &[]),
            Terminator::Jmp { target } => ([Some(*target), None], &[]),
            Terminator::CondJmp { taken, not_taken, .. } => ([Some(*taken), Some(*not_taken)], &[]),
            Terminator::IndirectJmp { table, .. } => ([None, None], table),
            Terminator::Call { target, return_to } => ([Some(*target), Some(*return_to)], &[]),
        };
        pair.into_iter().flatten().chain(table.iter().copied())
    }

    /// Is this a conditional branch (the `CB` instruction class)?
    pub fn is_conditional(&self) -> bool {
        matches!(self, Terminator::CondJmp { .. })
    }

    /// Is this an indirect control transfer (BTB/RSB-predicted)?
    pub fn is_indirect(&self) -> bool {
        matches!(self, Terminator::IndirectJmp { .. } | Terminator::Ret)
    }

    /// Does the terminator read the status flags?
    pub fn reads_flags(&self) -> bool {
        self.is_conditional()
    }

    /// Registers read by the terminator.
    pub fn reads_regs(&self) -> Vec<Reg> {
        match self {
            Terminator::IndirectJmp { src, .. } => vec![*src],
            Terminator::Call { .. } | Terminator::Ret => vec![Reg::Rsp],
            _ => vec![],
        }
    }

    /// [`Terminator::reads_regs`] as a set, built without allocating.
    pub fn reads_set(&self) -> RegSet {
        match self {
            Terminator::IndirectJmp { src, .. } => RegSet::of(&[*src]),
            Terminator::Call { .. } | Terminator::Ret => RegSet::of(&[Reg::Rsp]),
            _ => RegSet::EMPTY,
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Exit => write!(f, "EXIT"),
            Terminator::Jmp { target } => write!(f, "JMP {target}"),
            Terminator::CondJmp { cond, taken, not_taken } => {
                write!(f, "J{} {}   ; else fall through to {}", cond.suffix(), taken, not_taken)
            }
            Terminator::IndirectJmp { src, table } => {
                write!(f, "JMP {src}  ; table:")?;
                for t in table {
                    write!(f, " {t}")?;
                }
                Ok(())
            }
            Terminator::Call { target, return_to } => {
                write!(f, "CALL {target}  ; returns to {return_to}")
            }
            Terminator::Ret => write!(f, "RET"),
        }
    }
}

/// A basic block: a straight-line instruction sequence plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Identifier of this block.
    pub id: BlockId,
    /// Optional human-readable label (used by the builder and printer).
    pub label: Option<String>,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Control-flow terminator.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Create an empty block that simply exits.
    pub fn new(id: BlockId) -> BasicBlock {
        BasicBlock { id, label: None, instrs: Vec::new(), terminator: Terminator::Exit }
    }

    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.instrs.len() + 1
    }

    /// A block is never empty because it always has a terminator.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of memory-accessing instructions in the body.
    pub fn memory_access_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.accesses_mem()).count()
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(l) => writeln!(f, "{} ({}):", self.id, l)?,
            None => writeln!(f, "{}:", self.id)?,
        }
        for i in &self.instrs {
            writeln!(f, "    {i}")?;
        }
        writeln!(f, "    {}", self.terminator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Operand;
    use crate::AluOp;

    #[test]
    fn block_id_display() {
        assert_eq!(format!("{}", BlockId(3)), ".bb3");
        assert_eq!(BlockId::ENTRY.index(), 0);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondJmp { cond: Cond::Ns, taken: BlockId(1), not_taken: BlockId(2) };
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(2)]);
        assert!(t.is_conditional());
        assert!(t.reads_flags());
        assert!(!t.is_indirect());

        let t = Terminator::IndirectJmp { src: Reg::Rax, table: vec![BlockId(1), BlockId(3)] };
        assert!(t.is_indirect());
        assert_eq!(t.reads_regs(), vec![Reg::Rax]);
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(3)]);

        assert_eq!(Terminator::Exit.successors().count(), 0);
        assert_eq!(Terminator::Ret.successors().count(), 0);
        assert!(Terminator::Ret.is_indirect());
    }

    #[test]
    fn call_successors_include_return_block() {
        let t = Terminator::Call { target: BlockId(5), return_to: BlockId(2) };
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(5), BlockId(2)]);
        assert_eq!(t.reads_regs(), vec![Reg::Rsp]);
    }

    #[test]
    fn block_len_counts_terminator() {
        let mut b = BasicBlock::new(BlockId(0));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        b.instrs.push(Instr::Alu {
            op: AluOp::Add,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(1),
            lock: false,
        });
        assert_eq!(b.len(), 2);
        assert_eq!(b.memory_access_count(), 0);
    }

    #[test]
    fn block_display_contains_label() {
        let mut b = BasicBlock::new(BlockId(1));
        b.label = Some("spec_path".to_string());
        let s = format!("{b}");
        assert!(s.contains(".bb1"));
        assert!(s.contains("spec_path"));
        assert!(s.contains("EXIT"));
    }
}
