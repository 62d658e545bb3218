//! The executor: priming, repeated measurement and noise filtering.

use crate::htrace::HTrace;
use crate::mode::{MeasurementMode, NoiseConfig, SideChannelKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rvz_cache::{EvictReload, FlushReload, PrimeProbe, SetVector, SideChannel};
use rvz_emu::Fault;
use rvz_isa::{DecodedProgram, Input, TestCase};
use rvz_uarch::{CpuUnderTest, RunOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Measurement mode (cache attack + assists).
    pub mode: MeasurementMode,
    /// Number of measurement rounds per input sequence (the paper repeats
    /// each measurement 50 times).
    pub repetitions: usize,
    /// Warm-up rounds executed before recording starts.
    pub warmup_rounds: usize,
    /// Minimum number of occurrences for a distinct trace to be kept; the
    /// paper discards traces observed only once ("one-off traces").
    pub outlier_min_count: usize,
    /// Reset the microarchitectural state before each test case (but not
    /// between the inputs of one test case — priming relies on the state
    /// carrying over between inputs).
    pub reset_between_test_cases: bool,
    /// Synthetic noise injection.
    pub noise: NoiseConfig,
}

impl ExecutorConfig {
    /// The paper's configuration: 50 repetitions, a few warm-up rounds,
    /// one-off traces discarded.
    pub fn paper(mode: MeasurementMode) -> ExecutorConfig {
        ExecutorConfig {
            mode,
            repetitions: 50,
            warmup_rounds: 3,
            outlier_min_count: 2,
            reset_between_test_cases: true,
            noise: NoiseConfig::none(),
        }
    }

    /// A fast configuration for unit tests and benchmarks on the (noise-free
    /// by default) simulator: fewer repetitions, same structure.
    pub fn fast(mode: MeasurementMode) -> ExecutorConfig {
        ExecutorConfig {
            mode,
            repetitions: 3,
            warmup_rounds: 1,
            outlier_min_count: 2,
            reset_between_test_cases: true,
            noise: NoiseConfig::none(),
        }
    }

    /// Replace the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> ExecutorConfig {
        self.noise = noise;
        self
    }

    /// Replace the repetition count.
    pub fn with_repetitions(mut self, repetitions: usize) -> ExecutorConfig {
        self.repetitions = repetitions.max(1);
        self
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::fast(MeasurementMode::prime_probe())
    }
}

/// Reusable per-executor measurement state: the side channel and the
/// per-input sample buffers.
///
/// Constructing a boxed channel and growing fresh sample vectors for every
/// single measurement used to dominate `collect_htraces`; the session is
/// built once and reused across all repetitions, inputs and — as long as the
/// channel key (attack kind + victim sandbox) stays the same — across whole
/// test cases and batches.
#[derive(Debug)]
struct MeasurementSession {
    /// What the channel was built for: the attack kind plus the victim
    /// sandbox `(base, size)` it monitors.
    key: (SideChannelKind, u64, u64),
    channel: Box<dyn SideChannel>,
    /// Per-input sample buffers, cleared (but not deallocated) per
    /// collection.
    samples: Vec<Vec<SetVector>>,
    /// Per-input raw (noise-free) samples of the latest simulated pass,
    /// which a replayed pass reuses.
    raw: Vec<SetVector>,
    /// The CPU's functional state at the start of the checked pass, and at
    /// its end.
    before: Vec<u64>,
    after: Vec<u64>,
}

impl MeasurementSession {
    /// Session key for a measurement of `tc` under `kind`.  Prime+Probe
    /// never reads the victim sandbox, so its sessions are shared across
    /// all test cases; the reload channels monitor the sandbox and are
    /// keyed by it.
    fn key_for(kind: SideChannelKind, tc: &TestCase) -> (SideChannelKind, u64, u64) {
        match kind {
            SideChannelKind::PrimeProbe => (kind, 0, 0),
            SideChannelKind::FlushReload | SideChannelKind::EvictReload => {
                let sandbox = tc.sandbox();
                (kind, sandbox.base, sandbox.size())
            }
        }
    }

    fn new(kind: SideChannelKind, tc: &TestCase) -> MeasurementSession {
        let sandbox = tc.sandbox();
        let channel: Box<dyn SideChannel> = match kind {
            SideChannelKind::PrimeProbe => Box::new(PrimeProbe::new()),
            SideChannelKind::FlushReload => Box::new(FlushReload::new(sandbox.base, sandbox.size())),
            SideChannelKind::EvictReload => Box::new(EvictReload::new(sandbox.base, sandbox.size())),
        };
        MeasurementSession {
            key: Self::key_for(kind, tc),
            channel,
            samples: Vec::new(),
            raw: Vec::new(),
            before: Vec::new(),
            after: Vec::new(),
        }
    }

    /// Clear the sample buffers for a fresh collection over `inputs` inputs,
    /// keeping their allocations.
    fn begin_collection(&mut self, inputs: usize) {
        self.channel.reset();
        self.samples.resize_with(inputs, Vec::new);
        for s in &mut self.samples {
            s.clear();
        }
        self.raw.clear();
        self.raw.resize(inputs, SetVector::EMPTY);
    }
}

/// Opaque snapshot of the executor's synthetic-noise stream, taken with
/// [`Executor::noise_checkpoint`].
///
/// Restoring it rewinds the noise PRNG to the snapshot position without
/// touching the seed configuration.  The campaign pipeline uses this to
/// check one collected set of hardware traces against a whole contract
/// slate: each contract's false-positive filters re-measure (priming swap,
/// §5.3) starting from the stream position right after the shared baseline
/// collection — exactly where an independent single-contract evaluation
/// would stand — so verdicts do not depend on the slate's composition.
#[derive(Debug, Clone)]
pub struct NoiseCheckpoint {
    rng: SmallRng,
}

/// The executor: collects hardware traces from a [`CpuUnderTest`].
#[derive(Debug)]
pub struct Executor<C: CpuUnderTest> {
    cpu: C,
    config: ExecutorConfig,
    noise_rng: SmallRng,
    session: Option<MeasurementSession>,
    collections: u64,
    replayed_passes: u64,
}

impl<C: CpuUnderTest> Executor<C> {
    /// Create an executor around a CPU under test.
    pub fn new(cpu: C, config: ExecutorConfig) -> Executor<C> {
        Executor {
            cpu,
            config,
            noise_rng: SmallRng::seed_from_u64(config.noise.seed),
            session: None,
            collections: 0,
            replayed_passes: 0,
        }
    }

    /// The CPU under test.
    pub fn cpu(&self) -> &C {
        &self.cpu
    }

    /// Mutable access to the CPU under test.
    pub fn cpu_mut(&mut self) -> &mut C {
        &mut self.cpu
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Number of [`collect_htraces`](Executor::collect_htraces) sequence
    /// collections performed so far (each collection runs the full
    /// warm-up + repetition schedule over one priming sequence).
    pub fn collection_count(&self) -> u64 {
        self.collections
    }

    /// Number of measurement passes (warm-up or measured) replayed from a
    /// fixed point instead of simulated, over all collections so far.
    ///
    /// A pass that leaves the CPU's functional state where it found it
    /// (see [`CpuUnderTest::functional_state`]) would repeat exactly, so
    /// its raw samples stand for every later pass of that collection.
    pub fn replayed_passes(&self) -> u64 {
        self.replayed_passes
    }

    /// Replace the noise model and restart its stream from the new seed.
    ///
    /// Campaign round workers derive one noise stream per test case (see
    /// [`NoiseConfig::for_test_case_seed`]) so that a measurement never
    /// depends on which worker — or in which order — it runs; this hook lets
    /// the sequential replay APIs do the same on a long-lived executor.
    pub fn reseed_noise(&mut self, noise: NoiseConfig) {
        self.config.noise = noise;
        self.noise_rng = SmallRng::seed_from_u64(noise.seed);
    }

    /// Snapshot the current position of the synthetic-noise stream.
    pub fn noise_checkpoint(&self) -> NoiseCheckpoint {
        NoiseCheckpoint { rng: self.noise_rng.clone() }
    }

    /// Rewind the synthetic-noise stream to a snapshot taken with
    /// [`Executor::noise_checkpoint`] on this (or an identically seeded)
    /// executor.  The noise configuration itself is left untouched.
    pub fn restore_noise_checkpoint(&mut self, checkpoint: &NoiseCheckpoint) {
        self.noise_rng = checkpoint.rng.clone();
    }

    /// Take (or build) the measurement session for this test case.
    fn session_for(&mut self, tc: &TestCase) -> MeasurementSession {
        let key = MeasurementSession::key_for(self.config.mode.channel, tc);
        match self.session.take() {
            Some(session) if session.key == key => session,
            _ => MeasurementSession::new(self.config.mode.channel, tc),
        }
    }

    fn run_options(&self) -> RunOptions {
        RunOptions { enable_assists: self.config.mode.assists }
    }

    /// Perform a single raw measurement of one input: prepare the side
    /// channel, run the test case, probe.
    fn measure_raw(
        &mut self,
        channel: &mut dyn SideChannel,
        prog: &DecodedProgram,
        input: &Input,
    ) -> Result<SetVector, Fault> {
        channel.prepare(self.cpu.cache_mut());
        let opts = self.run_options();
        self.cpu.run_decoded(prog, input, &opts)?;
        Ok(channel.measure(self.cpu.cache_mut()))
    }

    /// Apply the synthetic noise model to a raw sample: one SMI draw, then
    /// (if the sample survives) one one-off draw.  Returns `None` when the
    /// sample is discarded (simulated SMI pollution).
    fn apply_noise(&mut self, mut sets: SetVector) -> Option<SetVector> {
        if self.config.noise.is_enabled() {
            if self.noise_rng.gen_bool(self.config.noise.smi_probability) {
                // An SMI polluted the measurement; the executor detects it
                // via the SMI counter and discards the sample (§5.3).
                return None;
            }
            if self.noise_rng.gen_bool(self.config.noise.one_off_probability) {
                let spurious = self.noise_rng.gen_range(0..SetVector::SETS);
                sets = sets.union(SetVector::from_sets([spurious]));
            }
        }
        Some(sets)
    }

    /// Collect one merged hardware trace per input (§5.3).
    ///
    /// The inputs are executed in sequence (priming), the whole sequence is
    /// repeated after warm-up rounds, one-off traces are discarded, and the
    /// remaining traces of each input are merged by union.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    ///
    /// # Panics
    /// Panics if the test case fails decode-time validation.
    pub fn collect_htraces(&mut self, tc: &TestCase, inputs: &[Input]) -> Result<Vec<HTrace>, Fault> {
        let prog =
            DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
        self.collect_htraces_decoded(&prog, inputs)
    }

    /// [`Executor::collect_htraces`] over a pre-decoded program.
    ///
    /// The decode cost is paid once and amortized over the whole warm-up +
    /// repetition schedule (at most `(warmup + repetitions) × inputs` runs,
    /// fewer once the schedule reaches its fixed point); callers that
    /// re-measure the same test case — the priming-swap artifact check, the
    /// campaign's nesting re-check — reuse the program across collections
    /// too.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    pub fn collect_htraces_decoded(
        &mut self,
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Result<Vec<HTrace>, Fault> {
        self.collections += 1;
        if self.config.reset_between_test_cases {
            self.cpu.reset_uarch();
        }
        let mut session = self.session_for(prog.source());
        session.begin_collection(inputs.len());
        let result = self.collect_into_session(&mut session, prog, inputs);
        let traces = result.map(|()| {
            session.samples.iter().map(|s| self.merge_samples(s)).collect()
        });
        // Keep the session (channel caches, buffers) for the next collection
        // even on a faulting test case.
        self.session = Some(session);
        traces
    }

    /// The warm-up + repetition schedule of one collection, filling the
    /// session's per-input sample buffers.
    ///
    /// The CPU is deterministic, so a pass that ends in the functional
    /// state it started from repeats exactly forever after.  After each
    /// pass beyond the first that has passes after it, the state is
    /// compared with a snapshot taken at the pass's start; on a match, the
    /// pass's raw samples stand for every remaining pass.  The noise draws
    /// stay per (pass, input) in schedule order, so the samples — noisy or
    /// not — are exactly those of the full schedule.  A CPU that cannot
    /// describe its state runs every pass.
    fn collect_into_session(
        &mut self,
        session: &mut MeasurementSession,
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Result<(), Fault> {
        let warmup = self.config.warmup_rounds;
        let passes = warmup + self.config.repetitions.max(1);
        let mut replaying = false;
        for pass in 0..passes {
            let checked = !replaying && pass > 0 && pass + 1 < passes && {
                session.before.clear();
                self.cpu.functional_state(&mut session.before)
            };
            for (i, input) in inputs.iter().enumerate() {
                if !replaying {
                    session.raw[i] = self.measure_raw(session.channel.as_mut(), prog, input)?;
                }
                // Warm-up samples are drawn (to keep the noise stream in
                // step) and dropped.
                if let Some(sets) = self.apply_noise(session.raw[i]) {
                    if pass >= warmup {
                        session.samples[i].push(sets);
                    }
                }
            }
            if replaying {
                self.replayed_passes += 1;
            } else if checked {
                session.after.clear();
                self.cpu.functional_state(&mut session.after);
                replaying = session.after == session.before;
            }
        }
        Ok(())
    }

    /// Collect hardware traces for a batch of test cases in one call,
    /// reusing the measurement session (side channel and sample buffers)
    /// across the whole batch.
    ///
    /// The batch is measured in order and produces byte-identical traces to
    /// calling [`collect_htraces`](Executor::collect_htraces) once per entry
    /// on the same executor — including under synthetic noise, which draws
    /// from a single stream across the batch.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    pub fn collect_htraces_batch(
        &mut self,
        batch: &[(&TestCase, &[Input])],
    ) -> Result<Vec<Vec<HTrace>>, Fault> {
        let mut out = Vec::with_capacity(batch.len());
        for &(tc, inputs) in batch {
            out.push(self.collect_htraces(tc, inputs)?);
        }
        Ok(out)
    }

    /// Discard one-off traces and merge the rest by union.
    ///
    /// When every distinct sample falls below the outlier threshold, the
    /// most frequent sample is kept (ties broken toward the greater set
    /// vector, so the merge is a deterministic function of the sample
    /// multiset rather than of hash order).
    pub fn merge_samples(&self, samples: &[SetVector]) -> HTrace {
        if samples.is_empty() {
            return HTrace::empty();
        }
        let mut counts: HashMap<SetVector, usize> = HashMap::new();
        for s in samples {
            *counts.entry(*s).or_insert(0) += 1;
        }
        let threshold = if samples.len() >= self.config.outlier_min_count {
            self.config.outlier_min_count
        } else {
            1
        };
        let mut kept: Vec<SetVector> =
            counts.iter().filter(|(_, &c)| c >= threshold).map(|(s, _)| *s).collect();
        if kept.is_empty() {
            // Everything looked like noise; fall back to the most frequent
            // sample so the input still has a trace.  Ties are broken by the
            // set vector itself: `HashMap` iteration order must not leak
            // into the merged trace.
            kept = counts
                .iter()
                .max_by_key(|(s, &c)| (c, *s))
                .map(|(s, _)| vec![*s])
                .unwrap_or_default();
        }
        let mut merged = HTrace::empty();
        for s in kept {
            merged.merge(HTrace::from_sets(s));
        }
        merged
    }

    /// The priming-swap check of §5.3: given two inputs (by index) whose
    /// already-collected traces (`baseline`) diverge, swap them in the
    /// priming sequence and re-measure.  If each input reproduces the
    /// other's trace in the other's context, the divergence was caused by
    /// the microarchitectural context — a measurement artifact, not a leak.
    ///
    /// `baseline` must be the traces collected from the unswapped `inputs`
    /// (the caller already has them from the collection that surfaced the
    /// divergence).  Reusing them cuts the check from three sequence
    /// collections to two, and — under synthetic noise — keeps the verdict
    /// independent of measurement order: re-measuring the baseline would
    /// advance the noise stream, so the same divergence could produce
    /// different verdicts depending on how many checks ran before it.
    ///
    /// Returns `true` when the divergence is an artifact (false positive).
    ///
    /// # Panics
    /// If `i`/`j` are out of range or `baseline` does not cover `inputs`.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    pub fn is_measurement_artifact(
        &mut self,
        tc: &TestCase,
        inputs: &[Input],
        baseline: &[HTrace],
        i: usize,
        j: usize,
    ) -> Result<bool, Fault> {
        let prog =
            DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
        self.is_measurement_artifact_decoded(&prog, inputs, baseline, i, j)
    }

    /// [`Executor::is_measurement_artifact`] over a pre-decoded program.
    ///
    /// # Panics
    /// If `i`/`j` are out of range or `baseline` does not cover `inputs`.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    pub fn is_measurement_artifact_decoded(
        &mut self,
        prog: &DecodedProgram,
        inputs: &[Input],
        baseline: &[HTrace],
        i: usize,
        j: usize,
    ) -> Result<bool, Fault> {
        assert!(i < inputs.len() && j < inputs.len(), "input indices out of range");
        assert_eq!(baseline.len(), inputs.len(), "baseline must cover every input");

        // Data_j measured in Ctx_i.
        let mut seq_i = inputs.to_vec();
        seq_i[i] = inputs[j].clone();
        let swapped_i = self.collect_htraces_decoded(prog, &seq_i)?;

        // Data_i measured in Ctx_j.
        let mut seq_j = inputs.to_vec();
        seq_j[j] = inputs[i].clone();
        let swapped_j = self.collect_htraces_decoded(prog, &seq_j)?;

        let same_in_ctx_i = swapped_i[i].equivalent(&baseline[i]);
        let same_in_ctx_j = swapped_j[j].equivalent(&baseline[j]);
        Ok(same_in_ctx_i && same_in_ctx_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::builder::TestCaseBuilder;
    use rvz_isa::{Cond, Reg};
    use rvz_uarch::{SpecCpu, UarchConfig};

    fn direct_load_tc() -> TestCase {
        TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.exit();
            })
            .build()
    }

    fn v1_tc() -> TestCase {
        TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 8);
                b.jcc(Cond::B, "in", "out");
            })
            .block("in", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.jmp("out");
            })
            .block("out", |b| b.exit())
            .build()
    }

    fn input_with(tc: &TestCase, f: impl FnOnce(&mut Input)) -> Input {
        let mut i = Input::zeroed(tc.sandbox());
        f(&mut i);
        i
    }

    fn executor(config: ExecutorConfig) -> Executor<SpecCpu> {
        Executor::new(SpecCpu::new(UarchConfig::skylake()), config)
    }

    /// A [`SpecCpu`] that counts its runs and describes its state through
    /// `describe`: not at all (the full-schedule oracle), as the inner CPU
    /// does, or as a state that never repeats (the run count).
    struct Wrapped {
        cpu: SpecCpu,
        runs: u64,
        describe: fn(&Wrapped, &mut Vec<u64>) -> bool,
    }

    impl CpuUnderTest for Wrapped {
        fn name(&self) -> String {
            self.cpu.name()
        }

        fn run(
            &mut self,
            tc: &TestCase,
            input: &Input,
            opts: &RunOptions,
        ) -> Result<rvz_uarch::RunOutcome, Fault> {
            self.runs += 1;
            self.cpu.run(tc, input, opts)
        }

        fn run_decoded(
            &mut self,
            prog: &DecodedProgram,
            input: &Input,
            opts: &RunOptions,
        ) -> Result<rvz_uarch::RunOutcome, Fault> {
            self.runs += 1;
            self.cpu.run_decoded(prog, input, opts)
        }

        fn cache_mut(&mut self) -> &mut rvz_cache::Cache {
            self.cpu.cache_mut()
        }

        fn reset_uarch(&mut self) {
            self.cpu.reset_uarch();
        }

        fn functional_state(&self, out: &mut Vec<u64>) -> bool {
            (self.describe)(self, out)
        }
    }

    fn wrapped(
        config: ExecutorConfig,
        describe: fn(&Wrapped, &mut Vec<u64>) -> bool,
    ) -> Executor<Wrapped> {
        let cpu = Wrapped { cpu: SpecCpu::new(UarchConfig::skylake()), runs: 0, describe };
        Executor::new(cpu, config)
    }

    /// The full-schedule oracle: a CPU that cannot describe its state.
    fn opaque(config: ExecutorConfig) -> Executor<Wrapped> {
        wrapped(config, |_, _| false)
    }

    fn v1_priming_inputs(tc: &TestCase) -> Vec<Input> {
        let mut inputs: Vec<Input> = (0..5)
            .map(|k| {
                input_with(tc, |i| {
                    i.set_reg(Reg::Rax, 1);
                    i.set_reg(Reg::Rbx, 0x40 * k);
                })
            })
            .collect();
        inputs.push(input_with(tc, |i| {
            i.set_reg(Reg::Rax, 100);
            i.set_reg(Reg::Rbx, 0x7c0);
        }));
        inputs
    }

    #[test]
    fn different_addresses_give_different_traces() {
        let tc = direct_load_tc();
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let a = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80));
        let b = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x800));
        let traces = ex.collect_htraces(&tc, &[a, b]).unwrap();
        assert_ne!(traces[0], traces[1]);
        assert!(traces[0].sets().contains(2));
        assert!(traces[1].sets().contains(32));
    }

    #[test]
    fn collection_is_reproducible() {
        let tc = direct_load_tc();
        let inputs =
            vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x100)), input_with(&tc, |i| i.set_reg(Reg::Rax, 0x140))];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let t1 = ex.collect_htraces(&tc, &inputs).unwrap();
        let t2 = ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn flush_reload_matches_prime_probe_on_one_page() {
        let tc = direct_load_tc();
        let inputs = vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x240))];
        let mut pp = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let mut fr = executor(ExecutorConfig::fast(MeasurementMode::flush_reload()));
        let a = pp.collect_htraces(&tc, &inputs).unwrap();
        let b = fr.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(a[0].sets(), b[0].sets(), "§6.1: equivalent traces on a 4K sandbox");
    }

    #[test]
    fn priming_trains_the_predictor_for_later_inputs() {
        let tc = v1_tc();
        // Several in-bounds inputs followed by an out-of-bounds one: the
        // trained predictor speculates into the load for the last input.
        let mut inputs: Vec<Input> = (0..6)
            .map(|k| {
                input_with(&tc, |i| {
                    i.set_reg(Reg::Rax, 1);
                    i.set_reg(Reg::Rbx, 0x40 * k);
                })
            })
            .collect();
        inputs.push(input_with(&tc, |i| {
            i.set_reg(Reg::Rax, 100);
            i.set_reg(Reg::Rbx, 0x7c0);
        }));
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let traces = ex.collect_htraces(&tc, &inputs).unwrap();
        let victim = traces.last().unwrap();
        assert!(victim.sets().contains(31), "speculative access to line 0x7c0 (set 31) observed");

        // Without priming (victim alone after reset), no misprediction and
        // therefore no speculative trace.
        let alone = ex.collect_htraces(&tc, &inputs[6..]).unwrap();
        assert!(!alone[0].sets().contains(31));
    }

    #[test]
    fn one_off_noise_is_filtered_out() {
        let tc = direct_load_tc();
        let inputs = vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80))];
        let clean = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()))
            .collect_htraces(&tc, &inputs)
            .unwrap();
        let noisy_cfg = ExecutorConfig::fast(MeasurementMode::prime_probe())
            .with_repetitions(20)
            .with_noise(NoiseConfig { one_off_probability: 0.3, smi_probability: 0.0, seed: 7 });
        let noisy = executor(noisy_cfg).collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(clean[0].sets(), noisy[0].sets(), "one-off outliers are discarded");
    }

    #[test]
    fn smi_polluted_samples_are_discarded_but_trace_survives() {
        let tc = direct_load_tc();
        let inputs = vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80))];
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe())
            .with_repetitions(20)
            .with_noise(NoiseConfig { one_off_probability: 0.0, smi_probability: 0.5, seed: 3 });
        let traces = executor(cfg).collect_htraces(&tc, &inputs).unwrap();
        assert!(traces[0].sets().contains(2));
        assert!(traces[0].samples() > 0);
    }

    #[test]
    fn assists_mode_sets_run_options() {
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe_assist());
        let ex = executor(cfg);
        assert!(ex.run_options().enable_assists);
        let ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        assert!(!ex.run_options().enable_assists);
    }

    #[test]
    fn swap_check_reports_artifact_for_identical_inputs() {
        let tc = v1_tc();
        let a = input_with(&tc, |i| {
            i.set_reg(Reg::Rax, 1);
            i.set_reg(Reg::Rbx, 0x80);
        });
        let inputs = vec![a.clone(), a];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let baseline = ex.collect_htraces(&tc, &inputs).unwrap();
        assert!(ex.is_measurement_artifact(&tc, &inputs, &baseline, 0, 1).unwrap());
    }

    #[test]
    fn swap_check_performs_exactly_two_collections() {
        // §5.3 with baseline reuse: the check itself must only collect the
        // two swapped sequences — the unswapped baseline comes from the
        // caller.
        let tc = direct_load_tc();
        let a = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80));
        let b = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x800));
        let inputs = vec![a, b];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let baseline = ex.collect_htraces(&tc, &inputs).unwrap();
        let before = ex.collection_count();
        ex.is_measurement_artifact(&tc, &inputs, &baseline, 0, 1).unwrap();
        assert_eq!(ex.collection_count() - before, 2);
    }

    #[test]
    fn swap_check_confirms_genuine_input_dependent_leak() {
        let tc = direct_load_tc();
        // Two inputs whose architectural accesses differ: the difference is
        // carried by the inputs, so swapping contexts cannot explain it.
        let a = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80));
        let b = input_with(&tc, |i| i.set_reg(Reg::Rax, 0x800));
        let inputs = vec![a, b];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let baseline = ex.collect_htraces(&tc, &inputs).unwrap();
        assert!(!ex.is_measurement_artifact(&tc, &inputs, &baseline, 0, 1).unwrap());
    }

    #[test]
    fn batch_collection_matches_repeated_single_calls() {
        // The batch API must be byte-identical to sequential single calls on
        // one executor, including under synthetic noise (one shared stream).
        let v1 = v1_tc();
        let direct = direct_load_tc();
        let v1_inputs: Vec<Input> = (0..4)
            .map(|k| {
                input_with(&v1, |i| {
                    i.set_reg(Reg::Rax, 1);
                    i.set_reg(Reg::Rbx, 0x40 * k);
                })
            })
            .collect();
        let direct_inputs = vec![
            input_with(&direct, |i| i.set_reg(Reg::Rax, 0x80)),
            input_with(&direct, |i| i.set_reg(Reg::Rax, 0x800)),
        ];
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe())
            .with_repetitions(6)
            .with_noise(NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 21 });

        let mut single = executor(cfg);
        let expected = vec![
            single.collect_htraces(&v1, &v1_inputs).unwrap(),
            single.collect_htraces(&direct, &direct_inputs).unwrap(),
        ];
        let mut batched = executor(cfg);
        let got = batched
            .collect_htraces_batch(&[(&v1, &v1_inputs), (&direct, &direct_inputs)])
            .unwrap();
        assert_eq!(expected, got);
    }

    #[test]
    fn session_is_reused_across_collections() {
        // Back-to-back collections (and batches) must not rebuild the side
        // channel; the session key only changes with the sandbox or mode.
        let tc = direct_load_tc();
        let inputs = vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80))];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::flush_reload()));
        let t1 = ex.collect_htraces(&tc, &inputs).unwrap();
        let t2 = ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(ex.collection_count(), 2);
        assert!(ex.session.is_some(), "session survives between collections");
    }

    #[test]
    fn prime_probe_session_is_shared_across_sandboxes() {
        // P+P never reads the victim sandbox, so mixing sandbox sizes in a
        // batch must not rotate the session key (and with it the channel's
        // precomputed attacker tags).
        use rvz_isa::SandboxLayout;
        let one_page = direct_load_tc();
        let two_pages = TestCaseBuilder::new()
            .sandbox(SandboxLayout::two_pages())
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.exit();
            })
            .build();
        let inputs_one = vec![input_with(&one_page, |i| i.set_reg(Reg::Rax, 0x80))];
        let inputs_two = vec![input_with(&two_pages, |i| i.set_reg(Reg::Rax, 0x80))];
        let mut ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        ex.collect_htraces(&one_page, &inputs_one).unwrap();
        let key = ex.session.as_ref().unwrap().key;
        ex.collect_htraces(&two_pages, &inputs_two).unwrap();
        assert_eq!(ex.session.as_ref().unwrap().key, key, "P+P session key is sandbox-free");
    }

    #[test]
    fn noise_checkpoint_rewinds_the_stream() {
        // Two collections from the same stream position must draw identical
        // noise: checkpoint after the first, restore, repeat.
        let tc = direct_load_tc();
        let inputs = vec![input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80))];
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe())
            .with_repetitions(8)
            .with_noise(NoiseConfig { one_off_probability: 0.4, smi_probability: 0.2, seed: 5 });
        let mut ex = executor(cfg);
        let mark = ex.noise_checkpoint();
        let first = ex.collect_htraces(&tc, &inputs).unwrap();
        // Without the restore the stream has advanced and the raw samples
        // would differ; with it the collection replays exactly.
        ex.restore_noise_checkpoint(&mark);
        let replay = ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(first, replay);
    }

    #[test]
    fn converged_collection_replays_its_passes() {
        // The paper's schedule (3 warm-up + 50 measured passes) over a
        // priming sequence whose state settles after one pass: every pass
        // from the third on is replayed, and the traces — with and without
        // noise — are byte-identical to the full schedule's.
        let tc = v1_tc();
        let inputs = v1_priming_inputs(&tc);
        let noise = NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 9 };
        for cfg in [
            ExecutorConfig::paper(MeasurementMode::prime_probe()),
            ExecutorConfig::paper(MeasurementMode::prime_probe()).with_noise(noise),
        ] {
            let mut full = opaque(cfg);
            let mut fixed = wrapped(cfg, |w, out| w.cpu.functional_state(out));
            for round in 1..=2u64 {
                let expected = full.collect_htraces(&tc, &inputs).unwrap();
                assert_eq!(fixed.collect_htraces(&tc, &inputs).unwrap(), expected);
                assert_eq!(fixed.replayed_passes(), 51 * round);
                assert_eq!(fixed.cpu().runs, 2 * 6 * round, "two simulated passes per collection");
            }
            assert!(full.collection_count() == 2 && full.replayed_passes() == 0);
            assert_eq!(full.cpu().runs, 2 * 53 * 6);
        }
    }

    #[test]
    fn fixed_point_waits_for_the_predictor_to_settle() {
        // A load, then a branch whose two targets are empty: the branch
        // leaves no footprint, so the cache ends every pass alike, but its
        // 2-bit counter ends pass 0 at 2 and pass 1 at 3.  Pass 1 changed
        // the predictor, so only pass 2 is a fixed point.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.cmp_imm(Reg::Rcx, 8);
                b.jcc(Cond::B, "taken", "fallthrough");
            })
            .block("taken", |b| b.exit())
            .block("fallthrough", |b| b.exit())
            .build();
        let inputs = vec![input_with(&tc, |i| {
            i.set_reg(Reg::Rax, 0x80);
            i.set_reg(Reg::Rcx, 1);
        })];
        let cfg = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let mut ex = executor(cfg);
        let traces = ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(ex.replayed_passes(), 50);
        assert_eq!(traces, opaque(cfg).collect_htraces(&tc, &inputs).unwrap());
    }

    #[test]
    fn changing_state_runs_every_pass() {
        // A state that differs after every run never repeats: nothing is
        // replayed and every pass of every collection is simulated.
        let tc = direct_load_tc();
        let inputs = vec![
            input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80)),
            input_with(&tc, |i| i.set_reg(Reg::Rax, 0x800)),
        ];
        let cfg = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let mut ex = wrapped(cfg, |w, out| {
            out.push(w.runs);
            true
        });
        let traces = ex.collect_htraces(&tc, &inputs).unwrap();
        ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(ex.replayed_passes(), 0);
        assert_eq!(ex.cpu().runs, 2 * 53 * 2);
        assert_eq!(traces, opaque(cfg).collect_htraces(&tc, &inputs).unwrap());
    }

    #[test]
    fn empty_sample_handling() {
        let ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        assert!(ex.merge_samples(&[]).is_empty());
    }
}
