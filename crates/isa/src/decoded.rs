//! Pre-decoded test cases: the dense program representation stepped by the
//! measurement inner loops.
//!
//! Every verdict Revizor produces is computed by stepping the emulator (and
//! the uarch simulator on top of it) over every `(test case, input, rep)`
//! triple.  Re-walking the [`Instr`] AST per input means re-deriving operand
//! widths, register read/write sets and memory-operand lists — all of which
//! are static properties of the *program* — millions of times per campaign.
//!
//! [`DecodedProgram::decode`] resolves a [`TestCase`] once into a flat array
//! of [`DecodedInstr`]s: operands lowered to [`SrcOp`]/[`DstOp`] with use
//! widths fixed, branch targets validated, and per-instruction static
//! metadata (register sets, flag/memory behaviour, memory operands)
//! precomputed into bitmasks and inline arrays, so decoding allocates
//! nothing per instruction.  Decoding is a pure representation change:
//! executing the decoded form is observably byte-identical to walking the
//! original AST — the differential property tests in `revizor` enforce this.
//!
//! Decode also *validates*: malformed programs (dangling branch targets,
//! empty jump tables, immediates used as destinations, bad index scales) are
//! rejected with a [`DecodeError`] up front instead of panicking in the
//! middle of a measurement.

use crate::block::{BlockId, Terminator};
use crate::inst::{AluOp, Cond, Instr, ShiftOp, UnaryOp};
use crate::operand::{MemOperand, Operand};
use crate::reg::{Reg, RegSet, Width};
use crate::sandbox::SandboxLayout;
use crate::testcase::TestCase;
use std::fmt;

/// A source operand with its access width resolved at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcOp {
    /// Register read at the given width.
    Reg(Reg, Width),
    /// Immediate, already converted to its unsigned 64-bit representation.
    Imm(u64),
    /// Memory read at the given width.
    Mem(MemOperand, Width),
}

/// A destination operand (immediates are rejected at decode time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DstOp {
    /// Register written at the given width.
    Reg(Reg, Width),
    /// Memory written at the given width.
    Mem(MemOperand, Width),
}

impl DstOp {
    /// The access width of the destination.
    #[inline]
    pub fn width(self) -> Width {
        match self {
            DstOp::Reg(_, w) | DstOp::Mem(_, w) => w,
        }
    }
}

/// A straight-line instruction in decoded form.
///
/// Mirrors [`Instr`] with operand use-widths resolved (`width` is the width
/// the operation computes at, matching what the AST walk derives from
/// `dest.width()` / `a.width()` / `src.width()` per instruction).
/// `LFENCE`/`MFENCE` collapse to [`DecodedOp::Fence`]: nothing downstream
/// distinguishes them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecodedOp {
    Alu { op: AluOp, width: Width, dest: DstOp, src: SrcOp },
    Mov { width: Width, dest: DstOp, src: SrcOp },
    Cmov { cond: Cond, dest: Reg, width: Width, src: SrcOp },
    Setcc { cond: Cond, dest: Reg },
    Cmp { width: Width, a: SrcOp, b: SrcOp },
    Test { width: Width, a: SrcOp, b: SrcOp },
    Shift { op: ShiftOp, width: Width, dest: DstOp, amount: SrcOp },
    Unary { op: UnaryOp, width: Width, dest: DstOp },
    Div { width: Width, src: SrcOp },
    Imul { dest: Reg, src: SrcOp },
    Lea { dest: Reg, addr: MemOperand },
    Bswap { dest: Reg },
    Xchg { dest: Reg, width: Width, src: DstOp },
    Fence,
    Nop,
}

/// A control-flow terminator in decoded form, targets validated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecodedTerm {
    Exit,
    Jmp { target: BlockId },
    CondJmp { cond: Cond, taken: BlockId, not_taken: BlockId },
    IndirectJmp { src: Reg, table: Box<[BlockId]> },
    Call { target: BlockId, return_to: BlockId },
    Ret,
}

/// The memory operands `(operand, width, is_write)` of one instruction,
/// stored inline: an instruction has at most two, so decoding one never
/// allocates.  Dereferences to the operand slice.
#[derive(Debug, Clone, Copy)]
pub struct MemOps {
    ops: [(MemOperand, Width, bool); 2],
    len: u8,
}

impl Default for MemOps {
    fn default() -> MemOps {
        MemOps { ops: [(MemOperand::base(Reg::Rax), Width::Qword, false); 2], len: 0 }
    }
}

impl std::ops::Deref for MemOps {
    type Target = [(MemOperand, Width, bool)];

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.ops[..usize::from(self.len)]
    }
}

impl PartialEq for MemOps {
    fn eq(&self, other: &MemOps) -> bool {
        **self == **other
    }
}

impl Eq for MemOps {}

impl Extend<(MemOperand, Width, bool)> for MemOps {
    /// # Panics
    /// Panics past two operands, which no instruction has.
    fn extend<T: IntoIterator<Item = (MemOperand, Width, bool)>>(&mut self, iter: T) {
        for op in iter {
            self.ops[usize::from(self.len)] = op;
            self.len += 1;
        }
    }
}

/// A decoded body instruction plus its precomputed static metadata.
///
/// The metadata fields are computed by calling the corresponding [`Instr`]
/// methods exactly once at decode time.  Register sets are bitmasks and
/// memory operands are inline, so decoding allocates nothing per
/// instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The operation.
    pub op: DecodedOp,
    /// Index of the instruction within its basic block.
    pub index: u32,
    /// Registers read ([`Instr::reads_regs`] as a set).
    pub reads_set: RegSet,
    /// Registers written ([`Instr::writes_regs`] as a set).
    pub writes_set: RegSet,
    /// Does the instruction read the status flags?
    pub reads_flags: bool,
    /// Does the instruction write the status flags?
    pub writes_flags: bool,
    /// Does the instruction read memory?
    pub reads_mem: bool,
    /// Does the instruction write memory?
    pub writes_mem: bool,
    /// Is this a speculation barrier?
    pub is_fence: bool,
    /// Is this a variable-latency instruction (the `VAR` class)?
    pub is_var_latency: bool,
    /// Memory operands in the same order as [`Instr::mem_operands`].
    pub mem_ops: MemOps,
}

/// A decoded terminator plus its precomputed static metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTerminator {
    /// The terminator.
    pub term: DecodedTerm,
    /// Registers read ([`Terminator::reads_regs`] as a set).
    pub reads_set: RegSet,
    /// Does the terminator read the status flags?
    pub reads_flags: bool,
}

/// Errors rejected once at decode time.
///
/// Each variant corresponds to a malformation that would previously surface
/// as a mid-measurement panic or out-of-range indexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The test case has no basic blocks.
    Empty,
    /// Block ids are not dense and in order.
    MisnumberedBlock {
        /// Position in the block vector.
        expected: usize,
        /// Actual id found there.
        found: BlockId,
    },
    /// A terminator targets a block that does not exist.
    DanglingTarget {
        /// Block containing the bad terminator.
        from: BlockId,
        /// The missing target.
        to: BlockId,
    },
    /// An indirect jump has an empty target table (the selector would be
    /// reduced modulo zero).
    EmptyJumpTable {
        /// Block containing the indirect jump.
        block: BlockId,
    },
    /// An immediate operand is used as a destination.
    ImmediateDestination {
        /// Block containing the instruction.
        block: BlockId,
        /// Index of the instruction within the block.
        index: usize,
    },
    /// A scaled-index memory operand uses a scale other than 1, 2, 4 or 8.
    BadScale {
        /// Block containing the instruction.
        block: BlockId,
        /// Index of the instruction within the block.
        index: usize,
        /// The offending scale.
        scale: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "test case has no basic blocks"),
            DecodeError::MisnumberedBlock { expected, found } => {
                write!(f, "block at position {expected} has id {found}")
            }
            DecodeError::DanglingTarget { from, to } => {
                write!(f, "terminator of {from} targets non-existent block {to}")
            }
            DecodeError::EmptyJumpTable { block } => {
                write!(f, "indirect jump in {block} has an empty target table")
            }
            DecodeError::ImmediateDestination { block, index } => {
                write!(f, "instruction {index} of {block} uses an immediate as destination")
            }
            DecodeError::BadScale { block, index, scale } => {
                write!(
                    f,
                    "instruction {index} of {block} uses index scale {scale} (must be 1, 2, 4 or 8)"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A test case decoded once into a dense, validated form.
///
/// Body instructions of all blocks live in one flat array; block `b`'s body
/// is `instrs[block_starts[b] .. block_starts[b + 1]]`.  Terminators are
/// stored per block alongside their static metadata.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    source: TestCase,
    sandbox: SandboxLayout,
    instrs: Vec<DecodedInstr>,
    block_starts: Vec<u32>,
    terms: Vec<DecodedTerminator>,
}

impl DecodedProgram {
    /// Decode and validate a test case.
    ///
    /// # Errors
    /// Returns the first [`DecodeError`] found.
    pub fn decode(tc: &TestCase) -> Result<DecodedProgram, DecodeError> {
        let blocks = tc.blocks();
        if blocks.is_empty() {
            return Err(DecodeError::Empty);
        }
        for (i, b) in blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(DecodeError::MisnumberedBlock { expected: i, found: b.id });
            }
        }
        let n = blocks.len();
        let total: usize = blocks.iter().map(|b| b.instrs.len()).sum();
        let mut instrs = Vec::with_capacity(total);
        let mut block_starts = Vec::with_capacity(n + 1);
        let mut terms = Vec::with_capacity(n);
        for b in blocks {
            block_starts.push(instrs.len() as u32);
            for (idx, ins) in b.instrs.iter().enumerate() {
                instrs.push(decode_instr(ins, b.id, idx)?);
            }
            terms.push(decode_terminator(&b.terminator, b.id, n)?);
        }
        block_starts.push(instrs.len() as u32);
        Ok(DecodedProgram {
            source: tc.clone(),
            sandbox: tc.sandbox(),
            instrs,
            block_starts,
            terms,
        })
    }

    /// The test case this program was decoded from.
    #[inline]
    pub fn source(&self) -> &TestCase {
        &self.source
    }

    /// The sandbox layout.
    #[inline]
    pub fn sandbox(&self) -> SandboxLayout {
        self.sandbox
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.terms.len()
    }

    /// The decoded body of a block.
    #[inline]
    pub fn body(&self, b: BlockId) -> &[DecodedInstr] {
        let i = b.index();
        &self.instrs[self.block_starts[i] as usize..self.block_starts[i + 1] as usize]
    }

    /// The decoded terminator of a block.
    #[inline]
    pub fn terminator(&self, b: BlockId) -> &DecodedTerminator {
        &self.terms[b.index()]
    }

    /// Total number of body instructions across all blocks.
    #[inline]
    pub fn body_len(&self) -> usize {
        self.instrs.len()
    }
}

fn check_mem(m: &MemOperand, block: BlockId, index: usize) -> Result<(), DecodeError> {
    if m.index.is_some() && !matches!(m.scale, 1 | 2 | 4 | 8) {
        return Err(DecodeError::BadScale { block, index, scale: m.scale });
    }
    Ok(())
}

fn lower_src(op: &Operand, block: BlockId, index: usize) -> Result<SrcOp, DecodeError> {
    match op {
        Operand::Reg(r, w) => Ok(SrcOp::Reg(*r, *w)),
        Operand::Imm(v) => Ok(SrcOp::Imm(*v as u64)),
        Operand::Mem(m, w) => {
            check_mem(m, block, index)?;
            Ok(SrcOp::Mem(*m, *w))
        }
    }
}

fn lower_dst(op: &Operand, block: BlockId, index: usize) -> Result<DstOp, DecodeError> {
    match op {
        Operand::Reg(r, w) => Ok(DstOp::Reg(*r, *w)),
        Operand::Imm(_) => Err(DecodeError::ImmediateDestination { block, index }),
        Operand::Mem(m, w) => {
            check_mem(m, block, index)?;
            Ok(DstOp::Mem(*m, *w))
        }
    }
}

fn decode_instr(ins: &Instr, block: BlockId, index: usize) -> Result<DecodedInstr, DecodeError> {
    let op = match ins {
        Instr::Alu { op, dest, src, .. } => {
            let d = lower_dst(dest, block, index)?;
            DecodedOp::Alu { op: *op, width: d.width(), dest: d, src: lower_src(src, block, index)? }
        }
        Instr::Mov { dest, src } => {
            let d = lower_dst(dest, block, index)?;
            DecodedOp::Mov { width: d.width(), dest: d, src: lower_src(src, block, index)? }
        }
        Instr::Cmov { cond, dest, src, width } => DecodedOp::Cmov {
            cond: *cond,
            dest: *dest,
            width: *width,
            src: lower_src(src, block, index)?,
        },
        Instr::Setcc { cond, dest } => DecodedOp::Setcc { cond: *cond, dest: *dest },
        Instr::Cmp { a, b } => DecodedOp::Cmp {
            width: a.width(),
            a: lower_src(a, block, index)?,
            b: lower_src(b, block, index)?,
        },
        Instr::Test { a, b } => DecodedOp::Test {
            width: a.width(),
            a: lower_src(a, block, index)?,
            b: lower_src(b, block, index)?,
        },
        Instr::Shift { op, dest, amount } => {
            let d = lower_dst(dest, block, index)?;
            DecodedOp::Shift {
                op: *op,
                width: d.width(),
                dest: d,
                amount: lower_src(amount, block, index)?,
            }
        }
        Instr::Unary { op, dest } => {
            let d = lower_dst(dest, block, index)?;
            DecodedOp::Unary { op: *op, width: d.width(), dest: d }
        }
        Instr::Div { src } => {
            DecodedOp::Div { width: src.width(), src: lower_src(src, block, index)? }
        }
        Instr::Imul { dest, src } => {
            DecodedOp::Imul { dest: *dest, src: lower_src(src, block, index)? }
        }
        Instr::Lea { dest, addr } => {
            check_mem(addr, block, index)?;
            DecodedOp::Lea { dest: *dest, addr: *addr }
        }
        Instr::Bswap { dest } => DecodedOp::Bswap { dest: *dest },
        Instr::Xchg { dest, src } => {
            // `src` is both read and written, so it takes the destination
            // lowering (which also rejects immediates, as the AST walk's
            // write would have panicked).
            let s = lower_dst(src, block, index)?;
            DecodedOp::Xchg { dest: *dest, width: s.width(), src: s }
        }
        Instr::Lfence | Instr::Mfence => DecodedOp::Fence,
        Instr::Nop => DecodedOp::Nop,
    };
    let mut mem_ops = MemOps::default();
    ins.extend_mem_operands(&mut mem_ops);
    Ok(DecodedInstr {
        op,
        index: index as u32,
        reads_set: ins.reads_set(),
        writes_set: ins.writes_set(),
        reads_flags: ins.reads_flags(),
        writes_flags: ins.writes_flags(),
        reads_mem: ins.reads_mem(),
        writes_mem: ins.writes_mem(),
        is_fence: ins.is_fence(),
        is_var_latency: ins.is_variable_latency(),
        mem_ops,
    })
}

fn decode_terminator(
    term: &Terminator,
    block: BlockId,
    num_blocks: usize,
) -> Result<DecodedTerminator, DecodeError> {
    let check = |to: BlockId| {
        if to.index() >= num_blocks {
            Err(DecodeError::DanglingTarget { from: block, to })
        } else {
            Ok(to)
        }
    };
    let t = match term {
        Terminator::Exit => DecodedTerm::Exit,
        Terminator::Jmp { target } => DecodedTerm::Jmp { target: check(*target)? },
        Terminator::CondJmp { cond, taken, not_taken } => DecodedTerm::CondJmp {
            cond: *cond,
            taken: check(*taken)?,
            not_taken: check(*not_taken)?,
        },
        Terminator::IndirectJmp { src, table } => {
            if table.is_empty() {
                return Err(DecodeError::EmptyJumpTable { block });
            }
            let table: Box<[BlockId]> =
                table.iter().map(|t| check(*t)).collect::<Result<_, _>>()?;
            DecodedTerm::IndirectJmp { src: *src, table }
        }
        Terminator::Call { target, return_to } => {
            DecodedTerm::Call { target: check(*target)?, return_to: check(*return_to)? }
        }
        Terminator::Ret => DecodedTerm::Ret,
    };
    Ok(DecodedTerminator {
        term: t,
        reads_set: term.reads_set(),
        reads_flags: term.reads_flags(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BasicBlock;
    use crate::builder::TestCaseBuilder;

    fn v1_tc() -> TestCase {
        TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.cmp_imm(Reg::Rcx, 10);
                b.jcc(Cond::B, "in_bounds", "done");
            })
            .block("in_bounds", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rdx, Reg::R14, Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| {
                b.exit();
            })
            .build()
    }

    #[test]
    fn decode_layout_matches_source() {
        let tc = v1_tc();
        let p = DecodedProgram::decode(&tc).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.body(BlockId(0)).len(), 3);
        assert_eq!(p.body(BlockId(1)).len(), 2);
        assert_eq!(p.body(BlockId(2)).len(), 0);
        assert_eq!(p.body_len(), 5);
        assert!(matches!(p.terminator(BlockId(0)).term, DecodedTerm::CondJmp { .. }));
        assert!(matches!(p.terminator(BlockId(2)).term, DecodedTerm::Exit));
        assert_eq!(p.sandbox(), tc.sandbox());
        assert_eq!(p.source(), &tc);
    }

    #[test]
    fn decoded_metadata_matches_ast_walk() {
        let tc = v1_tc();
        let p = DecodedProgram::decode(&tc).unwrap();
        for b in tc.blocks() {
            for (i, ins) in b.instrs.iter().enumerate() {
                let d = &p.body(b.id)[i];
                assert_eq!(d.index as usize, i);
                assert_eq!(d.reads_set, RegSet::of(&ins.reads_regs()));
                assert_eq!(d.writes_set, RegSet::of(&ins.writes_regs()));
                assert_eq!(d.reads_flags, ins.reads_flags());
                assert_eq!(d.writes_flags, ins.writes_flags());
                assert_eq!(d.reads_mem, ins.reads_mem());
                assert_eq!(d.writes_mem, ins.writes_mem());
                assert_eq!(d.is_fence, ins.is_fence());
                assert_eq!(d.is_var_latency, ins.is_variable_latency());
                assert_eq!(&*d.mem_ops, &ins.mem_operands()[..]);
            }
            let t = p.terminator(b.id);
            assert_eq!(t.reads_set, RegSet::of(&b.terminator.reads_regs()));
            assert_eq!(t.reads_flags, b.terminator.reads_flags());
        }
    }

    #[test]
    fn rejects_empty_program() {
        let tc = TestCase::new(vec![], SandboxLayout::one_page());
        assert!(matches!(DecodedProgram::decode(&tc), Err(DecodeError::Empty)));
    }

    #[test]
    fn rejects_misnumbered_blocks() {
        let tc = TestCase::new(vec![BasicBlock::new(BlockId(3))], SandboxLayout::one_page());
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::MisnumberedBlock { expected: 0, found: BlockId(3) })
        ));
    }

    #[test]
    fn rejects_dangling_branch_target() {
        let mut tc = v1_tc();
        tc.blocks_mut()[1].terminator = Terminator::Jmp { target: BlockId(9) };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::DanglingTarget { from: BlockId(1), to: BlockId(9) })
        ));
    }

    #[test]
    fn rejects_dangling_jump_table_entry() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0].terminator =
            Terminator::IndirectJmp { src: Reg::Rax, table: vec![BlockId(2), BlockId(7)] };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::DanglingTarget { from: BlockId(0), to: BlockId(7) })
        ));
    }

    #[test]
    fn rejects_empty_jump_table() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0].terminator = Terminator::IndirectJmp { src: Reg::Rax, table: vec![] };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::EmptyJumpTable { block: BlockId(0) })
        ));
    }

    #[test]
    fn rejects_dangling_call_return_block() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0].terminator =
            Terminator::Call { target: BlockId(1), return_to: BlockId(5) };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::DanglingTarget { from: BlockId(0), to: BlockId(5) })
        ));
    }

    #[test]
    fn rejects_immediate_destination() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0]
            .instrs
            .push(Instr::Mov { dest: Operand::imm(3), src: Operand::reg(Reg::Rax) });
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::ImmediateDestination { block: BlockId(0), index: 3 })
        ));
        let mut tc = v1_tc();
        tc.blocks_mut()[1].instrs[0] =
            Instr::Xchg { dest: Reg::Rax, src: Operand::imm(1) };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::ImmediateDestination { block: BlockId(1), index: 0 })
        ));
    }

    #[test]
    fn rejects_bad_index_scale() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0].instrs[1] = Instr::Mov {
            dest: Operand::reg(Reg::Rbx),
            src: Operand::mem(MemOperand::full(Reg::R14, Reg::Rax, 3, 0)),
        };
        assert!(matches!(
            DecodedProgram::decode(&tc),
            Err(DecodeError::BadScale { block: BlockId(0), index: 1, scale: 3 })
        ));
    }

    #[test]
    fn accepts_scale_without_index() {
        // A degenerate scale is harmless when there is no index register;
        // the AST walk ignores it, so decode must too.
        let mut tc = v1_tc();
        tc.blocks_mut()[0].instrs[1] = Instr::Mov {
            dest: Operand::reg(Reg::Rbx),
            src: Operand::mem(MemOperand { base: Reg::R14, index: None, scale: 3, disp: 0 }),
        };
        assert!(DecodedProgram::decode(&tc).is_ok());
    }

    #[test]
    fn fences_collapse() {
        let mut tc = v1_tc();
        tc.blocks_mut()[0].instrs = vec![Instr::Lfence, Instr::Mfence, Instr::Nop];
        let p = DecodedProgram::decode(&tc).unwrap();
        assert_eq!(p.body(BlockId(0))[0].op, DecodedOp::Fence);
        assert_eq!(p.body(BlockId(0))[1].op, DecodedOp::Fence);
        assert_eq!(p.body(BlockId(0))[2].op, DecodedOp::Nop);
        assert!(p.body(BlockId(0))[0].is_fence);
    }

    #[test]
    fn error_display() {
        let e = DecodeError::EmptyJumpTable { block: BlockId(2) };
        assert!(format!("{e}").contains(".bb2"));
        let e = DecodeError::BadScale { block: BlockId(0), index: 4, scale: 5 };
        assert!(format!("{e}").contains("scale 5"));
    }
}
