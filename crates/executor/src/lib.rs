//! # rvz-executor
//!
//! Hardware-trace collection on the CPU under test (the *Executor* of MRT,
//! §5.3).
//!
//! The executor has three tasks:
//!
//! 1. **Collect hardware traces** by running each test case with each input
//!    and observing the cache through a side channel (Prime+Probe,
//!    Flush+Reload or Evict+Reload, optionally with microcode assists);
//! 2. **Set the microarchitectural context** through *priming*: inputs are
//!    executed in sequence so that earlier inputs deterministically train
//!    the predictors for later ones, and suspected violations are re-checked
//!    by swapping the two diverging inputs in the priming sequence;
//! 3. **Eliminate measurement noise** by warming up, repeating every
//!    measurement, discarding one-off traces and merging the rest by union.
//!
//! The real tool does this in a kernel module on bare metal; here the CPU is
//! the [`rvz_uarch`] simulator, and an optional noise model injects the same
//! kinds of disturbances (one-off outliers, SMI-polluted samples) so the
//! filtering machinery is exercised.
//!
//! The simulator is deterministic, so the schedule of `warmup_rounds +
//! repetitions` passes over the inputs need not simulate every pass: once a
//! pass leaves the CPU's functional state
//! ([`CpuUnderTest::functional_state`](rvz_uarch::CpuUnderTest::functional_state))
//! where it found it, every later pass would repeat it, and its raw samples
//! are replayed instead ([`Executor::replayed_passes`] counts them).  Noise
//! is still drawn per pass and input, so the traces are exactly those of
//! the full schedule.  A CPU that cannot describe its state runs every pass.
//!
//! Measurements run inside a reusable session: the side channel (with its
//! precomputed attacker/victim address lists) and the per-input sample
//! buffers live across repetitions, inputs, and test cases, and
//! [`Executor::collect_htraces_batch`] measures a whole slate of test cases
//! through one session.  The §5.3 priming-swap check
//! ([`Executor::is_measurement_artifact`]) takes the already-collected
//! baseline traces, so it re-measures only the two swapped sequences.
//!
//! # Example
//!
//! ```
//! use rvz_executor::{Executor, ExecutorConfig, MeasurementMode};
//! use rvz_isa::{builder::TestCaseBuilder, Input, Reg};
//! use rvz_uarch::{SpecCpu, UarchConfig};
//!
//! let tc = TestCaseBuilder::new()
//!     .block("entry", |b| {
//!         b.and_imm(Reg::Rax, 0b111111000000);
//!         b.load(Reg::Rbx, Reg::R14, Reg::Rax);
//!         b.exit();
//!     })
//!     .build();
//! let cpu = SpecCpu::new(UarchConfig::skylake());
//! let mut executor = Executor::new(cpu, ExecutorConfig::fast(MeasurementMode::prime_probe()));
//! let mut a = Input::zeroed(tc.sandbox());
//! a.set_reg(Reg::Rax, 0x80);
//! let mut b = Input::zeroed(tc.sandbox());
//! b.set_reg(Reg::Rax, 0x440);
//! let traces = executor.collect_htraces(&tc, &[a, b]).unwrap();
//! assert_ne!(traces[0], traces[1]); // different lines touched
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod htrace;
pub mod mode;

pub use executor::{Executor, ExecutorConfig, NoiseCheckpoint};
pub use htrace::HTrace;
pub use mode::{MeasurementMode, NoiseConfig, SideChannelKind};
