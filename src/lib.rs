//! # revizor-suite
//!
//! Umbrella crate for the Revizor reproduction: it re-exports every
//! workspace crate under one roof so that the examples in `examples/` and
//! the integration tests in `tests/` can exercise the whole system through a
//! single dependency.
//!
//! The individual crates are:
//!
//! * [`isa`] (`rvz-isa`) — the instruction set, test cases and inputs;
//! * [`emu`] (`rvz-emu`) — the architectural emulator (Unicorn substitute);
//! * [`cache`] (`rvz-cache`) — the L1D model and cache side channels;
//! * [`uarch`] (`rvz-uarch`) — the speculative CPU under test;
//! * [`model`] (`rvz-model`) — speculation contracts and contract traces;
//! * [`executor`] (`rvz-executor`) — hardware-trace collection with priming;
//! * [`gen`] (`rvz-gen`) — test-case and input generation;
//! * [`analyzer`] (`rvz-analyzer`) — the relational analysis;
//! * [`revizor`] — the campaign matrix, the single-test-case harness,
//!   targets, gadgets, minimizer and detection harnesses;
//! * [`bench`] (`rvz-bench`) — experiment regeneration, the hand-rolled
//!   JSON tree and the report export/import codecs;
//! * [`store`] (`rvz-store`) — the indexed violation store
//!   (`revizor-query`);
//! * [`service`] (`rvz-service`) — the campaign service
//!   (`revizor-serve` / `revizor-submit`).
//!
//! ```
//! use revizor_suite::prelude::*;
//!
//! let found = detection::inputs_to_violation(
//!     &Target::target5(),
//!     Contract::ct_seq(),
//!     &gadgets::spectre_v1(),
//!     1,
//!     64,
//! );
//! assert!(found.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rvz_analyzer as analyzer;
pub use rvz_cache as cache;
pub use rvz_emu as emu;
pub use rvz_executor as executor;
pub use rvz_gen as gen;
pub use rvz_isa as isa;
pub use rvz_model as model;
pub use rvz_uarch as uarch;

pub use revizor;
pub use rvz_bench as bench;
pub use rvz_service as service;
pub use rvz_store as store;

/// Convenient single import for examples and integration tests.
pub mod prelude {
    pub use revizor::campaign;
    pub use revizor::detection;
    pub use revizor::gadgets;
    pub use revizor::orchestrator::{CampaignMatrix, MatrixRun};
    pub use revizor::targets::Target;
    pub use rvz_service::{JobPhase, JobSpec, ServiceConfig, ServiceHandle, Worker, WorkerConfig};
    pub use revizor::{
        CellEvent, FuzzerConfig, Postprocessor, ProgressObserver, Revizor, RoundEvent, VulnClass,
    };
    pub use rvz_analyzer::Analyzer;
    pub use rvz_emu::Runner;
    pub use rvz_executor::{Executor, ExecutorConfig, HTrace, MeasurementMode};
    pub use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
    pub use rvz_isa::{builder::TestCaseBuilder, Input, IsaSubset, Reg, TestCase};
    pub use rvz_model::{Contract, ContractModel};
    pub use rvz_uarch::{CpuUnderTest, RunOptions, SpecCpu, UarchConfig};
}
