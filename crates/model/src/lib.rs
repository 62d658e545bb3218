//! # rvz-model
//!
//! Executable speculation contracts (the *Model* of MRT, §5.4).
//!
//! A speculation contract specifies, for every instruction, the information
//! an attacker may legitimately learn (*observation clause*) and the
//! speculation the CPU may legitimately perform (*execution clause*).  The
//! model executes a test case on the architectural emulator ([`rvz_emu`]),
//! follows the execution clause by exploring speculative paths with a
//! checkpoint/rollback mechanism, and records the observation clause into a
//! **contract trace**.
//!
//! Supported observation clauses (§2.3): [`ObservationClause::Mem`],
//! [`ObservationClause::Ct`], [`ObservationClause::Arch`].
//! Supported execution clauses: [`ExecutionClause::Seq`],
//! [`ExecutionClause::Cond`], [`ExecutionClause::Bpas`],
//! [`ExecutionClause::CondBpas`], plus the §6.4 variant in which speculative
//! stores are not permitted to leak
//! ([`Contract::without_speculative_store_exposure`]).
//!
//! # Example
//!
//! ```
//! use rvz_isa::{builder::TestCaseBuilder, Input, Reg, Cond};
//! use rvz_model::{Contract, ContractModel};
//!
//! // Figure 1 of the paper: z = array1[x]; if (y < 10) z = array2[y].
//! let tc = TestCaseBuilder::new()
//!     .block("entry", |b| {
//!         b.and_imm(Reg::Rax, 0b111111000000);
//!         b.load(Reg::Rbx, Reg::R14, Reg::Rax);
//!         b.cmp_imm(Reg::Rcx, 10);
//!         b.jcc(Cond::B, "then", "end");
//!     })
//!     .block("then", |b| {
//!         b.and_imm(Reg::Rcx, 0b111111000000);
//!         b.load(Reg::Rdx, Reg::R14, Reg::Rcx);
//!         b.jmp("end");
//!     })
//!     .block("end", |b| b.exit())
//!     .build();
//!
//! let mut input = Input::zeroed(tc.sandbox());
//! input.set_reg(Reg::Rax, 0x100);
//! input.set_reg(Reg::Rcx, 20); // branch not taken architecturally
//!
//! let seq = ContractModel::new(Contract::mem_seq()).collect(&tc, &input).unwrap();
//! let cond = ContractModel::new(Contract::mem_cond()).collect(&tc, &input).unwrap();
//! // MEM-COND additionally exposes the access on the mispredicted path.
//! assert!(cond.trace.len() > seq.trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod ctrace;
pub mod model;

pub use contract::{Contract, ExecutionClause, ObservationClause};
pub use ctrace::{CTrace, InputClass, Observation};
pub use model::{
    ContractModel, ExecutedInstr, ExecutionInfo, InstrKind, MemAddrs, ModelOutput, SlateScratch,
};
