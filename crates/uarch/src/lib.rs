//! # rvz-uarch
//!
//! The **black-box CPU under test**.
//!
//! The paper measures real Intel Skylake and Coffee Lake parts through a
//! kernel-module executor.  This reproduction substitutes a deterministic
//! speculative micro-architecture simulator that contains the same leak
//! mechanisms the paper's targets contain, behind the same black-box
//! interface the executor uses (run a binary with an input, then observe the
//! cache through a side channel):
//!
//! * an L1D cache (from [`rvz_cache`]) observable via Prime+Probe etc.;
//! * a conditional-branch predictor, BTB and RSB (Spectre V1/V2/V5-ret);
//! * a store buffer with speculative store-bypass (Spectre V4) and a
//!   microcode-patch toggle (SSBD);
//! * a line-fill buffer with microcode-assist forwarding (MDS) and
//!   zero-injection on MDS-patched parts (LVI-Null);
//! * variable-latency division and a data-flow timing model, which together
//!   produce the latency races behind the paper's novel V1-var/V4-var
//!   findings (§6.3);
//! * per-CPU presets ([`UarchConfig::skylake`], [`UarchConfig::coffee_lake`])
//!   including the Coffee Lake behaviour where speculative stores already
//!   modify the cache (§6.4).
//!
//! Revizor itself never looks inside this crate's state: it only compares
//! hardware traces to hardware traces, exactly as MRT prescribes.
//!
//! # Example
//!
//! ```
//! use rvz_isa::{builder::TestCaseBuilder, Input, Reg};
//! use rvz_uarch::{CpuUnderTest, RunOptions, SpecCpu, UarchConfig};
//!
//! let tc = TestCaseBuilder::new()
//!     .block("entry", |b| {
//!         b.and_imm(Reg::Rax, 0b111111000000);
//!         b.load(Reg::Rbx, Reg::R14, Reg::Rax);
//!         b.exit();
//!     })
//!     .build();
//! let mut cpu = SpecCpu::new(UarchConfig::skylake());
//! let mut input = Input::zeroed(tc.sandbox());
//! input.set_reg(Reg::Rax, 0x80);
//! let outcome = cpu.run(&tc, &input, &RunOptions::default()).unwrap();
//! assert!(outcome.executed_instructions > 0);
//! assert!(cpu.cache_mut().is_cached(tc.sandbox().base + 0x80));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod predictors;
pub mod store_buffer;
pub mod timing;

pub use config::UarchConfig;
pub use cpu::{RunOptions, RunOutcome, SpecCpu};
pub use predictors::{
    BranchPredictor, Btb, CyclicRsb, DirectionKind, DirectionPredictor, LoopPredictor,
    PredictorConfig, ReturnKind, ReturnPredictor, Rsb, SetAssocBtb, Tage, TargetKind,
    TargetPredictor,
};
pub use store_buffer::{StoreBuffer, StoreBufferEntry};
pub use timing::Timing;

use rvz_cache::Cache;
use rvz_emu::Fault;
use rvz_isa::{DecodedProgram, Input, TestCase};

/// The black-box interface of a CPU under test, as seen by the executor.
///
/// Microarchitectural state (cache, predictors, buffers) persists across
/// [`CpuUnderTest::run`] calls until [`CpuUnderTest::reset_uarch`] is called;
/// this persistence is exactly what the executor's *priming* technique
/// exploits to set the context deterministically (§5.3).
pub trait CpuUnderTest {
    /// Human-readable name of the part, e.g. `"Skylake (V4 patch off)"`.
    fn name(&self) -> String;

    /// Execute the test case with the given input in the current
    /// microarchitectural context.
    ///
    /// # Errors
    /// Returns a [`Fault`] if the program faults architecturally; generated
    /// test cases never do.
    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault>;

    /// Execute a pre-decoded program in the current microarchitectural
    /// context.  The executor decodes each test case once and reuses the
    /// program across warm-up, repetitions and inputs; implementations that
    /// step the decoded representation directly (like [`SpecCpu`]) override
    /// this to skip the per-run AST walk.
    ///
    /// # Errors
    /// Same as [`CpuUnderTest::run`].
    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        self.run(prog.source(), input, opts)
    }

    /// The L1D cache, which the executor's side channel primes and probes.
    fn cache_mut(&mut self) -> &mut Cache;

    /// Reset every microarchitectural structure to power-on state, which
    /// is the state the CPU's constructor builds.  The executor calls this
    /// before every collection.
    fn reset_uarch(&mut self);

    /// Append the CPU's *functional* microarchitectural state outside its
    /// cache to `out` in canonical form and return `true`, or return
    /// `false` if the CPU cannot describe its state (the default).
    ///
    /// The state is everything besides the cache that a later run reads:
    /// two CPUs that append the same words and whose caches hold the same
    /// lines produce the same outcomes and observations for every future
    /// run sequence.  State every run re-initializes is left out.  The
    /// cache has its owner describe it: the executor takes its snapshots
    /// right after the side channel prepared the cache, and the channel
    /// describes what it prepared
    /// ([`SideChannel::describe_prepared`](rvz_cache::SideChannel::describe_prepared));
    /// the decoded-vs-reference checks compare this state and
    /// [`Cache::functional_state`] after every run.
    fn functional_state(&self, out: &mut Vec<u64>) -> bool {
        let _ = out;
        false
    }
}
