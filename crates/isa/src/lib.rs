//! # rvz-isa
//!
//! Instruction-set definition for the Revizor reproduction.
//!
//! The paper tests real x86 CPUs and therefore uses the full x86 ISA (via the
//! nanoBench ISA description) for test-case generation and Unicorn for the
//! contract model.  This reproduction substitutes a compact x86-flavoured ISA
//! that is rich enough to express every leak class the paper evaluates:
//!
//! * `AR`  — in-register arithmetic, logic, bitwise and conditional moves;
//! * `MEM` — loads, stores and memory operands;
//! * `VAR` — variable-latency operations (division);
//! * `CB`  — conditional branches;
//! * `IND` — indirect jumps, calls and returns (needed for the handwritten
//!   Spectre V2 / V5-ret gadgets of Table 5).
//!
//! The crate provides:
//!
//! * [`Reg`], [`Flag`], [`Width`], [`Operand`], [`MemOperand`] — the register
//!   file and operand model;
//! * [`Instr`], [`Terminator`], [`BasicBlock`], [`TestCase`] — programs as a
//!   DAG of basic blocks (§5.1 of the paper);
//! * [`catalog`] — the instruction catalog used by the test-case generator,
//!   playing the role of nanoBench's `base.xml`;
//! * [`sandbox`] — the memory-sandbox layout (§5.1, "mask memory addresses to
//!   confine them within a dedicated memory region");
//! * [`builder`] — an ergonomic builder for handwritten gadgets (Table 5).
//!
//! # Example
//!
//! ```
//! use rvz_isa::builder::TestCaseBuilder;
//! use rvz_isa::{Reg, Cond};
//!
//! // A tiny Spectre-V1-shaped program: a bounds check followed by a
//! // dependent memory access.
//! let tc = TestCaseBuilder::new()
//!     .block("entry", |b| {
//!         b.and_imm(Reg::Rax, 0b111111000000);
//!         b.load(Reg::Rbx, Reg::R14, Reg::Rax);
//!         b.cmp_imm(Reg::Rcx, 10);
//!         b.jcc(Cond::B, "in_bounds", "done");
//!     })
//!     .block("in_bounds", |b| {
//!         b.and_imm(Reg::Rbx, 0b111111000000);
//!         b.load(Reg::Rdx, Reg::R14, Reg::Rbx);
//!         b.jmp("done");
//!     })
//!     .block("done", |b| {
//!         b.exit();
//!     })
//!     .build();
//! assert_eq!(tc.blocks().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod catalog;
pub mod decoded;
pub mod input;
pub mod inst;
pub mod operand;
pub mod reg;
pub mod sandbox;
pub mod testcase;

pub use block::{BasicBlock, BlockId, Terminator};
pub use builder::TestCaseBuilder;
pub use catalog::{InstrClass, InstrSpec, IsaSubset};
pub use decoded::{
    DecodeError, DecodedInstr, DecodedOp, DecodedProgram, DecodedTerm, DecodedTerminator, DstOp,
    MemOps, SrcOp,
};
pub use input::Input;
pub use inst::{AluOp, Cond, Instr, ShiftOp, UnaryOp};
pub use operand::{MemOperand, Operand};
pub use reg::{Flag, FlagSet, Reg, RegSet, Width};
pub use sandbox::SandboxLayout;
pub use testcase::TestCase;
