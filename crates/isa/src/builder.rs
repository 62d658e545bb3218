//! Ergonomic construction of handwritten test cases (gadgets).
//!
//! The paper's Table 5 measures detection speed on manually written test
//! cases representing known vulnerabilities; this builder is how such
//! gadgets are written in the reproduction.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{AluOp, Cond, Instr, ShiftOp, UnaryOp};
use crate::operand::{MemOperand, Operand};
use crate::reg::{Reg, Width};
use crate::sandbox::SandboxLayout;
use crate::testcase::TestCase;
use std::collections::HashMap;

/// Builder for a [`TestCase`].
///
/// Blocks are referenced by string labels; labels are resolved to
/// [`BlockId`]s in declaration order when [`TestCaseBuilder::build`] is
/// called.
///
/// # Example
/// ```
/// use rvz_isa::builder::TestCaseBuilder;
/// use rvz_isa::Reg;
/// let tc = TestCaseBuilder::new()
///     .block("entry", |b| {
///         b.mov_imm(Reg::Rax, 64);
///         b.exit();
///     })
///     .build();
/// assert_eq!(tc.instruction_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TestCaseBuilder {
    blocks: Vec<(String, BlockBuilder)>,
    sandbox: Option<SandboxLayout>,
    origin: String,
}

/// Builder for a single basic block; obtained through
/// [`TestCaseBuilder::block`].
#[derive(Debug, Default)]
pub struct BlockBuilder {
    instrs: Vec<Instr>,
    terminator: Option<PendingTerminator>,
}

#[derive(Debug, Clone)]
enum PendingTerminator {
    Exit,
    Jmp(String),
    CondJmp { cond: Cond, taken: String, not_taken: String },
    IndirectJmp { src: Reg, table: Vec<String> },
    Call { target: String, return_to: String },
    Ret,
}

impl TestCaseBuilder {
    /// Create an empty builder.
    pub fn new() -> TestCaseBuilder {
        TestCaseBuilder::default()
    }

    /// Use a specific sandbox layout (default: one page).
    pub fn sandbox(mut self, layout: SandboxLayout) -> TestCaseBuilder {
        self.sandbox = Some(layout);
        self
    }

    /// Set the origin note.
    pub fn origin(mut self, origin: impl Into<String>) -> TestCaseBuilder {
        self.origin = origin.into();
        self
    }

    /// Add a block with the given label, configured by `f`.  The first added
    /// block is the entry block.
    ///
    /// # Panics
    /// Panics if a block with the same label already exists.
    pub fn block(mut self, label: impl Into<String>, f: impl FnOnce(&mut BlockBuilder)) -> Self {
        let label = label.into();
        assert!(
            !self.blocks.iter().any(|(l, _)| *l == label),
            "duplicate block label {label:?}"
        );
        let mut bb = BlockBuilder::default();
        f(&mut bb);
        self.blocks.push((label, bb));
        self
    }

    /// Resolve labels and produce the test case.
    ///
    /// # Panics
    /// Panics if a terminator refers to an unknown label or a block has no
    /// terminator.
    pub fn build(self) -> TestCase {
        let mut ids: HashMap<String, BlockId> = HashMap::new();
        for (i, (label, _)) in self.blocks.iter().enumerate() {
            ids.insert(label.clone(), BlockId(i));
        }
        let resolve = |label: &str| -> BlockId {
            *ids.get(label).unwrap_or_else(|| panic!("unknown block label {label:?}"))
        };
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, (label, bb)) in self.blocks.into_iter().enumerate() {
            let terminator = match bb
                .terminator
                .unwrap_or_else(|| panic!("block {label:?} has no terminator"))
            {
                PendingTerminator::Exit => Terminator::Exit,
                PendingTerminator::Jmp(t) => Terminator::Jmp { target: resolve(&t) },
                PendingTerminator::CondJmp { cond, taken, not_taken } => Terminator::CondJmp {
                    cond,
                    taken: resolve(&taken),
                    not_taken: resolve(&not_taken),
                },
                PendingTerminator::IndirectJmp { src, table } => Terminator::IndirectJmp {
                    src,
                    table: table.iter().map(|t| resolve(t)).collect(),
                },
                PendingTerminator::Call { target, return_to } => Terminator::Call {
                    target: resolve(&target),
                    return_to: resolve(&return_to),
                },
                PendingTerminator::Ret => Terminator::Ret,
            };
            blocks.push(BasicBlock {
                id: BlockId(i),
                label: Some(label),
                instrs: bb.instrs,
                terminator,
            });
        }
        TestCase::new(blocks, self.sandbox.unwrap_or_else(SandboxLayout::one_page))
            .with_origin(self.origin)
    }
}

impl BlockBuilder {
    /// Append an arbitrary instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    // --- moves --------------------------------------------------------------

    /// `MOV dst, imm`.
    pub fn mov_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Mov { dest: Operand::reg(dst), src: Operand::imm(imm) })
    }

    /// `MOV dst, src` (register to register).
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov { dest: Operand::reg(dst), src: Operand::reg(src) })
    }

    /// Load: `MOV dst, qword ptr [base + index]`.
    pub fn load(&mut self, dst: Reg, base: Reg, index: Reg) -> &mut Self {
        self.push(Instr::Mov {
            dest: Operand::reg(dst),
            src: Operand::mem(MemOperand::base_index(base, index)),
        })
    }

    /// Load with displacement: `MOV dst, qword ptr [base + disp]`.
    pub fn load_disp(&mut self, dst: Reg, base: Reg, disp: i64) -> &mut Self {
        self.push(Instr::Mov {
            dest: Operand::reg(dst),
            src: Operand::mem(MemOperand::base_disp(base, disp)),
        })
    }

    /// Store: `MOV qword ptr [base + index], src`.
    pub fn store(&mut self, base: Reg, index: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov {
            dest: Operand::mem(MemOperand::base_index(base, index)),
            src: Operand::reg(src),
        })
    }

    /// Store with displacement: `MOV qword ptr [base + disp], src`.
    pub fn store_disp(&mut self, base: Reg, disp: i64, src: Reg) -> &mut Self {
        self.push(Instr::Mov {
            dest: Operand::mem(MemOperand::base_disp(base, disp)),
            src: Operand::reg(src),
        })
    }

    // --- arithmetic ----------------------------------------------------------

    /// `ADD dst, src`.
    pub fn add(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.alu(AluOp::Add, dst, src)
    }

    /// `SUB dst, src`.
    pub fn sub(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.alu(AluOp::Sub, dst, src)
    }

    /// `XOR dst, src`.
    pub fn xor(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.alu(AluOp::Xor, dst, src)
    }

    /// Generic register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Alu {
            op,
            dest: Operand::reg(dst),
            src: Operand::reg(src),
            lock: false,
        })
    }

    /// Generic register-immediate ALU operation.
    pub fn alu_imm(&mut self, op: AluOp, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Alu { op, dest: Operand::reg(dst), src: Operand::imm(imm), lock: false })
    }

    /// `AND dst, imm` — the sandbox-masking idiom.
    pub fn and_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.alu_imm(AluOp::And, dst, imm)
    }

    /// `ADD dst, imm`.
    pub fn add_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.alu_imm(AluOp::Add, dst, imm)
    }

    /// `SHL dst, imm`.
    pub fn shl_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Shift {
            op: ShiftOp::Shl,
            dest: Operand::reg(dst),
            amount: Operand::imm(imm),
        })
    }

    /// `CMP a, imm`.
    pub fn cmp_imm(&mut self, a: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Cmp { a: Operand::reg(a), b: Operand::imm(imm) })
    }

    /// `CMP a, b`.
    pub fn cmp(&mut self, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Cmp { a: Operand::reg(a), b: Operand::reg(b) })
    }

    /// `IMUL dst, imm`.
    pub fn imul_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Imul { dest: dst, src: Operand::imm(imm) })
    }

    /// `NEG dst`.
    pub fn neg(&mut self, dst: Reg) -> &mut Self {
        self.push(Instr::Unary { op: UnaryOp::Neg, dest: Operand::reg(dst) })
    }

    /// `DIV src` (RDX:RAX / src).
    pub fn div(&mut self, src: Reg) -> &mut Self {
        self.push(Instr::Div { src: Operand::reg(src) })
    }

    /// `CMOVcc dst, src`.
    pub fn cmov(&mut self, cond: Cond, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Cmov { cond, dest: dst, src: Operand::reg(src), width: Width::Qword })
    }

    /// `LFENCE`.
    pub fn lfence(&mut self) -> &mut Self {
        self.push(Instr::Lfence)
    }

    /// `NOP`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    // --- terminators ----------------------------------------------------------

    /// End the test case here.
    pub fn exit(&mut self) {
        self.terminator = Some(PendingTerminator::Exit);
    }

    /// Unconditional jump to `target`.
    pub fn jmp(&mut self, target: impl Into<String>) {
        self.terminator = Some(PendingTerminator::Jmp(target.into()));
    }

    /// Conditional jump: to `taken` if `cond`, else to `not_taken`.
    pub fn jcc(&mut self, cond: Cond, taken: impl Into<String>, not_taken: impl Into<String>) {
        self.terminator = Some(PendingTerminator::CondJmp {
            cond,
            taken: taken.into(),
            not_taken: not_taken.into(),
        });
    }

    /// Indirect jump through `src`, restricted to the given label table.
    pub fn jmp_indirect(&mut self, src: Reg, table: Vec<&str>) {
        self.terminator = Some(PendingTerminator::IndirectJmp {
            src,
            table: table.into_iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Call `target`, returning to `return_to`.
    pub fn call(&mut self, target: impl Into<String>, return_to: impl Into<String>) {
        self.terminator =
            Some(PendingTerminator::Call { target: target.into(), return_to: return_to.into() });
    }

    /// Return through the in-sandbox stack.
    pub fn ret(&mut self) {
        self.terminator = Some(PendingTerminator::Ret);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_dag() {
        let tc = TestCaseBuilder::new()
            .origin("unit-test")
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.cmp_imm(Reg::Rbx, 4);
                b.jcc(Cond::B, "spec", "end");
            })
            .block("spec", |b| {
                b.load(Reg::Rcx, Reg::R14, Reg::Rax);
                b.jmp("end");
            })
            .block("end", |b| b.exit())
            .build();
        assert_eq!(tc.blocks().len(), 3);
        assert_eq!(tc.validate(), Ok(()));
        assert_eq!(tc.origin(), "unit-test");
        assert_eq!(tc.conditional_branch_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown block label")]
    fn unknown_label_panics() {
        let _ = TestCaseBuilder::new()
            .block("entry", |b| b.jmp("nowhere"))
            .build();
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn missing_terminator_panics() {
        let _ = TestCaseBuilder::new()
            .block("entry", |b| {
                b.nop();
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate block label")]
    fn duplicate_label_panics() {
        let _ = TestCaseBuilder::new()
            .block("a", |b| b.exit())
            .block("a", |b| b.exit())
            .build();
    }

    #[test]
    fn call_ret_structure() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| b.call("callee", "after"))
            .block("callee", |b| b.ret())
            .block("after", |b| b.exit())
            .build();
        assert!(matches!(tc.blocks()[0].terminator, Terminator::Call { .. }));
        assert!(matches!(tc.blocks()[1].terminator, Terminator::Ret));
    }

    #[test]
    fn indirect_jump_table_resolved() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| b.jmp_indirect(Reg::Rax, vec!["t1", "t2"]))
            .block("t1", |b| b.exit())
            .block("t2", |b| b.exit())
            .build();
        match &tc.blocks()[0].terminator {
            Terminator::IndirectJmp { table, .. } => {
                assert_eq!(table, &vec![BlockId(1), BlockId(2)])
            }
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn builder_helpers_emit_expected_instructions() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.mov_imm(Reg::Rax, 1);
                b.add(Reg::Rax, Reg::Rbx);
                b.store_disp(Reg::R14, 64, Reg::Rax);
                b.div(Reg::Rcx);
                b.lfence();
                b.exit();
            })
            .build();
        let instrs = &tc.blocks()[0].instrs;
        assert_eq!(instrs.len(), 5);
        assert!(instrs[2].writes_mem());
        assert!(instrs[3].is_variable_latency());
        assert!(instrs[4].is_fence());
    }
}
