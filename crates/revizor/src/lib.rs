//! # revizor
//!
//! A Rust reproduction of **Revizor** (Oleksenko, Fetzer, Köpf, Silberstein —
//! *"Revizor: Testing Black-Box CPUs against Speculation Contracts"*,
//! ASPLOS 2022): Model-based Relational Testing (MRT) of black-box CPUs
//! against speculation contracts.
//!
//! The crate ties the substrates together into the end-to-end fuzzing flow
//! of Figure 2:
//!
//! ```text
//!  test-case generator ──┐
//!  input generator ──────┼──► contract Model ──► contract traces ──┐
//!                        │                                         ├─► relational
//!                        └──► Executor (CPU under test) ─► htraces ┘    Analyzer
//!                                                                        │
//!            diversity analysis ◄── pattern coverage                 violation?
//!            (reconfigure generator)                                    │
//!                                                              postprocessor (minimize)
//! ```
//!
//! Main entry points:
//!
//! * [`orchestrator`] — [`CampaignMatrix`], the campaign driver: a matrix
//!   of (target, contract) cells (one cell, or all of Table 3) run in rounds
//!   of test-case generation, trace collection and relational analysis over
//!   one set of worker threads, with cross-contract trace sharing, per-cell
//!   early stop and optional diversity feedback (§5.6);
//! * [`campaign`] — the reusable per-test-case pipeline: evaluate one test
//!   case against a whole *slate* of contracts, collecting hardware traces
//!   once (plus the [`ProgressObserver`] live-progress hook);
//! * [`Revizor`] — the single-test-case harness the postprocessor and
//!   violation replays drive;
//! * [`targets`] — the eight experimental setups of Table 2;
//! * [`gadgets`] — handwritten test cases for the known vulnerabilities of
//!   Table 5 and the paper's figures;
//! * [`minimize`] — the postprocessor that shrinks counterexamples (§5.7);
//! * [`detection`] — harnesses that reproduce the detection-time and
//!   inputs-to-violation measurements (Tables 4 and 5).
//!
//! # Example: detect Spectre V1 as a CT-SEQ violation
//!
//! Compiled but not executed by `cargo test --doc` — it runs a full
//! (unoptimized) fuzzing campaign; the same property is exercised by the
//! `tests/pipeline.rs` integration tests in release-speed test runs.
//!
//! ```no_run
//! use revizor::detection::detection_time;
//! use revizor::targets::Target;
//! use rvz_model::Contract;
//!
//! // Target 5 of the paper: Skylake, AR+MEM+CB, Prime+Probe.
//! let outcome = detection_time(&Target::target5(), Contract::ct_seq(), 9, 60);
//! assert!(outcome.found, "CT-SEQ must be violated by a Spectre-V1-capable CPU");
//! assert_eq!(outcome.vulnerability.as_deref(), Some("V1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod classify;
pub mod config;
pub mod detection;
pub mod diversity;
pub mod fuzzer;
pub mod gadgets;
pub mod minimize;
pub mod orchestrator;
pub mod staticanalysis;
pub mod targets;
mod workers;

pub use campaign::{CellEvent, ContractOutcome, NoopObserver, ProgressObserver, RoundEvent};
pub use classify::VulnClass;
pub use config::FuzzerConfig;
pub use diversity::{Pattern, PatternCoverage};
pub use fuzzer::{Revizor, TestCaseOutcome, ViolationReport};
pub use minimize::Postprocessor;
pub use orchestrator::{
    CampaignMatrix, CellProgress, CellReport, GroupProgress, MatrixCheckpoint, MatrixReport,
    MatrixRun,
};
pub use staticanalysis::{GadgetSignature, SourceKind, TaintReport, TransmitterKind};
pub use targets::Target;
// Part of the public API through `CellReport`/`GroupProgress`.
pub use rvz_analyzer::EffectivenessStats;
