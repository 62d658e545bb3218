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
    /// Synthetic noise injection.
    pub noise: NoiseConfig,
}

impl ExecutorConfig {
    /// The paper's configuration (§5.3): 3 warm-up passes, 50 repetitions,
    /// one-off traces discarded.  Past the schedule's fixed point the extra
    /// passes are replays, so without noise they cost almost nothing.  No
    /// campaign measures with it (see [`ExecutorConfig::campaign`]); only
    /// `emu_throughput`'s executor section measures its cost.
    pub fn paper(mode: MeasurementMode) -> ExecutorConfig {
        ExecutorConfig {
            mode,
            repetitions: 50,
            warmup_rounds: 3,
            outlier_min_count: 2,
            noise: NoiseConfig::none(),
        }
    }

    /// The campaign's schedule: 1 warm-up pass, 2 repetitions, one-off
    /// traces discarded, no noise.  Every `CampaignMatrix` collection
    /// measures with it, and a reported violation replays under it.
    ///
    /// It departs from §5.3's 3 + 50 on purpose.  The paper warms up and
    /// repeats to beat noise on real silicon; the simulator's collections
    /// are noise-free, so the extra passes only train the predictors.  On
    /// the TAGE targets (zoo targets 9 and 13) that training removes real
    /// leaks: for every CT-SEQ violation they confirm under this schedule,
    /// its two inputs show different Prime+Probe footprints when both run
    /// from one cloned state at some measured run of the pair (a contract
    /// violation in Guarnieri et al.'s sense), while after 3 warm-up passes
    /// TAGE stops mispredicting there and the leak no longer shows.
    /// `crates/revizor/tests/fork.rs` checks the first half of that claim.
    pub fn campaign(mode: MeasurementMode) -> ExecutorConfig {
        ExecutorConfig {
            mode,
            repetitions: 2,
            warmup_rounds: 1,
            outlier_min_count: 2,
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

/// Reusable per-executor measurement state: the side channel and the
/// per-input sample buffers.
///
/// Constructing a boxed channel and growing fresh sample vectors for every
/// single measurement used to dominate `collect_htraces`; the session is
/// built once and reused across all repetitions, inputs and — as long as the
/// channel key (attack kind + victim sandbox) stays the same — across whole
/// test cases.
#[derive(Debug)]
struct MeasurementSession {
    /// What the channel was built for: the attack kind plus the victim
    /// sandbox `(base, size)` it monitors.
    key: (SideChannelKind, u64, u64),
    channel: Box<dyn SideChannel + Send>,
    /// Per-input sample buffers, cleared (but not deallocated) per
    /// collection.
    samples: Vec<Vec<SetVector>>,
    /// Per-input raw (noise-free) sample of the input's latest simulated
    /// run, which a replayed run reuses.
    raw: Vec<SetVector>,
    /// The state each checkpoint input (see [`checkpoint_slot`]) of the
    /// latest simulated pass started in, right after the channel's
    /// prepare, by slot.
    checkpoints: Vec<Vec<u64>>,
    /// The state at the current checkpoint input; swapped with its slot in
    /// `checkpoints` when it differs.
    scratch: Vec<u64>,
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
        let channel: Box<dyn SideChannel + Send> = match kind {
            SideChannelKind::PrimeProbe => Box::new(PrimeProbe::new()),
            SideChannelKind::FlushReload => Box::new(FlushReload::new(sandbox.base, sandbox.size())),
            SideChannelKind::EvictReload => Box::new(EvictReload::new(sandbox.base, sandbox.size())),
        };
        MeasurementSession {
            key: Self::key_for(kind, tc),
            channel,
            samples: Vec::new(),
            raw: Vec::new(),
            checkpoints: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// End a noise-free collection at its fixed point, reached at run
    /// `input` of `pass`, of `passes` passes whose first `warmup` are not
    /// recorded: every remaining run of the schedule would replay its
    /// input's raw sample, so append each input's sample for its remaining
    /// measured passes and return how many runs that skips.
    ///
    /// An input appends at most `outlier_min_count` copies (at least one),
    /// and [`merge_sorting`] still merges the full schedule's trace:
    /// - it keeps a sample exactly when its count reaches the threshold,
    ///   and a capped sample's count still reaches it;
    /// - the threshold (`outlier_min_count` once there are that many
    ///   samples) is unchanged, because a cap applies only when at least
    ///   that many copies remain;
    /// - the most-frequent fallback runs only when no sample reaches the
    ///   threshold, and then nothing was capped.
    fn finish_replay(
        &mut self,
        warmup: usize,
        passes: usize,
        pass: usize,
        input: usize,
        outlier_min_count: usize,
    ) -> u64 {
        let cap = outlier_min_count.max(1);
        for (j, (samples, &raw)) in self.samples.iter_mut().zip(&self.raw).enumerate() {
            // The first pass in which input `j` has yet to run.
            let next = if j < input { pass + 1 } else { pass };
            let measured = passes - next.max(warmup);
            samples.extend(std::iter::repeat_n(raw, measured.min(cap)));
        }
        ((passes - pass) * self.raw.len() - input) as u64
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
    replayed_runs: u64,
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
            replayed_runs: 0,
        }
    }

    /// The CPU under test.
    pub fn cpu(&self) -> &C {
        &self.cpu
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

    /// Number of scheduled runs (one input in one warm-up or measured
    /// pass) replayed from the schedule's fixed point instead of
    /// simulated, over all collections so far.
    ///
    /// Once the state a measurement starts in — the CPU's
    /// [`CpuUnderTest::functional_state`] and the channel's
    /// [`SideChannel::describe_prepared`] of the cache it just prepared —
    /// equals the state at the same input one pass earlier, every later
    /// run of the collection repeats its input's latest simulated run.
    pub fn replayed_runs(&self) -> u64 {
        self.replayed_runs
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

    /// Finish a single raw measurement of one input on a cache the side
    /// channel has prepared: run the test case, probe.
    fn measure_prepared(
        &mut self,
        channel: &mut dyn SideChannel,
        prog: &DecodedProgram,
        input: &Input,
    ) -> Result<SetVector, Fault> {
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
    /// Every collection starts from power-on state
    /// ([`CpuUnderTest::reset_uarch`]); the state carries over only between
    /// the inputs and passes of one collection, which is what priming
    /// relies on.  So a test case's traces never depend on what was
    /// measured before it: the campaign's slate invariance and the
    /// schedule's fixed point both rely on this.
    ///
    /// The decode cost is paid once and amortized over the whole warm-up +
    /// repetition schedule (at most `(warmup + repetitions) × inputs` runs);
    /// callers that re-measure the same test case — the priming-swap
    /// artifact check, the campaign's nesting re-check — reuse the program
    /// across collections too.
    ///
    /// Fewer runs are simulated once the schedule reaches its fixed point.
    /// A measurement depends only on the state it starts in, the program
    /// and its input.  The executor snapshots that state right after the
    /// side channel's prepare: the CPU describes its predictors and buffers
    /// ([`CpuUnderTest::functional_state`]) and the channel the cache it
    /// prepared ([`SideChannel::describe_prepared`]).  Prime+Probe and
    /// Evict+Reload describe nothing, because their prime leaves every
    /// cache in one canonical state (see [`PrimeProbe`]); Flush+Reload
    /// lists the whole cache.  When the state at input `k` of a pass
    /// equals the state at input `k` of the pass before, every later run
    /// repeats its input's latest simulated run and is replayed from that
    /// run's raw sample ([`Executor::replayed_runs`]).  The state is
    /// snapshotted at input 0 and every power-of-two input, and each
    /// snapshot is compared only with the same checkpoint of the
    /// immediately preceding pass: that
    /// pass's runs are the ones whose samples are kept, and it ran in full,
    /// because a replay never stops.  An earlier pass, or an earlier input
    /// of the same pass, would pair a state with samples that did not come
    /// from it.  Noise is still drawn per (pass, input), so the traces are
    /// exactly those of the full schedule.
    ///
    /// # Errors
    /// Propagates architectural faults from the CPU under test.
    pub fn collect_htraces_decoded(
        &mut self,
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Result<Vec<HTrace>, Fault> {
        let min_count = self.config.outlier_min_count;
        let session = self.collect(prog, inputs, None)?;
        Ok(session.samples.iter_mut().map(|s| merge_sorting(s, min_count)).collect())
    }

    /// One collection over `inputs` in priming order, leaving each input's
    /// samples in the session.  With `swap = Some((at, from))`, position
    /// `at` of the sequence runs `inputs[from]` (the §5.3 swapped
    /// sequences, measured without copying a single input).
    fn collect(
        &mut self,
        prog: &DecodedProgram,
        inputs: &[Input],
        swap: Option<(usize, usize)>,
    ) -> Result<&mut MeasurementSession, Fault> {
        self.collections += 1;
        self.cpu.reset_uarch();
        let mut session = self.session_for(prog.source());
        session.begin_collection(inputs.len());
        let result = self.collect_into_session(&mut session, prog, inputs, swap);
        // Keep the session (channel caches, buffers) for the next collection
        // even on a faulting test case.
        let session = self.session.insert(session);
        result.map(|()| session)
    }

    /// The warm-up + repetition schedule of one collection, filling the
    /// session's per-input sample buffers and replaying from the fixed
    /// point described at [`Executor::collect_htraces_decoded`].
    ///
    /// Every simulated run starts with the channel's prepare, and the
    /// snapshot at a checkpoint input is taken right after it.  Position
    /// `i` of every pass runs the same input, swapped or not.  So once the
    /// state at checkpoint input `k` of pass `p` equals the snapshot pass
    /// `p - 1` left in that slot, runs `k..` of pass `p` measure what pass
    /// `p - 1`'s did and leave states that measure alike, pass `p + 1`
    /// starts where pass `p` did, and `raw` holds every input's sample for
    /// the rest of the schedule.  The noise draws stay per (pass, input) in
    /// schedule order, so the samples — noisy or not — are exactly those of
    /// the full schedule.  A CPU that cannot describe its state runs every
    /// pass.  Without noise a replayed run draws nothing, so the fixed point
    /// ends the collection ([`MeasurementSession::finish_replay`]).
    fn collect_into_session(
        &mut self,
        session: &mut MeasurementSession,
        prog: &DecodedProgram,
        inputs: &[Input],
        swap: Option<(usize, usize)>,
    ) -> Result<(), Fault> {
        let warmup = self.config.warmup_rounds;
        let passes = warmup + self.config.repetitions.max(1);
        // With a single pass there is nothing to compare a snapshot with.
        let mut checking = passes > 1;
        let mut replaying = false;
        for pass in 0..passes {
            for (i, input) in inputs.iter().enumerate() {
                if !replaying {
                    session.channel.prepare(self.cpu.cache_mut());
                }
                if checking {
                    if let Some(slot) = checkpoint_slot(i) {
                        session.scratch.clear();
                        let described = self.cpu.functional_state(&mut session.scratch);
                        if described {
                            let cache = &*self.cpu.cache_mut();
                            session.channel.describe_prepared(cache, &mut session.scratch);
                        }
                        if slot == session.checkpoints.len() {
                            session.checkpoints.push(Vec::new());
                        }
                        let previous = &mut session.checkpoints[slot];
                        replaying = described && pass > 0 && *previous == session.scratch;
                        checking = described && !replaying;
                        std::mem::swap(previous, &mut session.scratch);
                        if replaying && !self.config.noise.is_enabled() {
                            let min_count = self.config.outlier_min_count;
                            self.replayed_runs +=
                                session.finish_replay(warmup, passes, pass, i, min_count);
                            return Ok(());
                        }
                    }
                }
                if replaying {
                    self.replayed_runs += 1;
                } else {
                    let input = match swap {
                        Some((at, from)) if at == i => &inputs[from],
                        _ => input,
                    };
                    session.raw[i] =
                        self.measure_prepared(session.channel.as_mut(), prog, input)?;
                }
                // Warm-up samples are drawn (to keep the noise stream in
                // step) and dropped.
                if let Some(sets) = self.apply_noise(session.raw[i]) {
                    if pass >= warmup {
                        session.samples[i].push(sets);
                    }
                }
            }
        }
        Ok(())
    }

    /// Discard one-off traces and merge the rest by union.
    ///
    /// When every distinct sample falls below the outlier threshold, the
    /// most frequent sample is kept (ties broken toward the greater set
    /// vector, so the merge is a deterministic function of the sample
    /// multiset).
    pub fn merge_samples(&self, samples: &[SetVector]) -> HTrace {
        merge_sorting(&mut samples.to_vec(), self.config.outlier_min_count)
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
        let min_count = self.config.outlier_min_count;

        // Data_j measured in Ctx_i.
        let session = self.collect(prog, inputs, Some((i, j)))?;
        let swapped_i = merge_sorting(&mut session.samples[i], min_count);

        // Data_i measured in Ctx_j.
        let session = self.collect(prog, inputs, Some((j, i)))?;
        let swapped_j = merge_sorting(&mut session.samples[j], min_count);

        let same_in_ctx_i = swapped_i.equivalent(&baseline[i]);
        let same_in_ctx_j = swapped_j.equivalent(&baseline[j]);
        Ok(same_in_ctx_i && same_in_ctx_j)
    }
}

/// The checkpoint slot of input `i`, if the schedule snapshots the state
/// it starts in: input 0 (slot 0, the pass-level fixed point) and every
/// power of two.  A collection of `n > 1` inputs keeps `log2(n - 1) + 2`
/// snapshots (rounded down), and a state that repeats at input `j`
/// repeats at every later input of the pass too, so the next checkpoint —
/// input `2j` at the latest, or the next pass's first — finds it.
fn checkpoint_slot(i: usize) -> Option<usize> {
    match i {
        0 => Some(0),
        _ if i.is_power_of_two() => Some(i.trailing_zeros() as usize + 1),
        _ => None,
    }
}

/// [`Executor::merge_samples`] over a buffer it may reorder.  Sorting
/// brings equal samples together, so each distinct sample's count is the
/// length of its run, and the merge allocates nothing.
fn merge_sorting(samples: &mut [SetVector], outlier_min_count: usize) -> HTrace {
    if samples.is_empty() {
        return HTrace::empty();
    }
    samples.sort_unstable();
    let threshold = if samples.len() >= outlier_min_count { outlier_min_count } else { 1 };
    let mut merged = HTrace::empty();
    let mut kept = 0;
    // The most frequent sample, ties broken toward the greater set vector.
    let mut most_frequent = (0, SetVector::EMPTY);
    for run in samples.chunk_by(|a, b| a == b) {
        if run.len() >= threshold {
            merged.merge(HTrace::from_sets(run[0]));
            kept += 1;
        }
        most_frequent = most_frequent.max((run.len(), run[0]));
    }
    if kept == 0 {
        // Everything looked like noise; fall back to the most frequent
        // sample so the input still has a trace.
        merged = HTrace::from_sets(most_frequent.1);
    }
    merged
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

    /// A [`SpecCpu`] that counts its runs and the calls describing its
    /// state, and describes it through `describe`: not at all (the
    /// full-schedule oracle), as the inner CPU does, or as a state that
    /// never repeats (the run count).
    struct Wrapped {
        cpu: SpecCpu,
        runs: u64,
        described: std::cell::Cell<u64>,
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
            self.described.set(self.described.get() + 1);
            (self.describe)(self, out)
        }
    }

    fn wrapped(
        config: ExecutorConfig,
        describe: fn(&Wrapped, &mut Vec<u64>) -> bool,
    ) -> Executor<Wrapped> {
        let cpu = Wrapped {
            cpu: SpecCpu::new(UarchConfig::skylake()),
            runs: 0,
            described: std::cell::Cell::new(0),
            describe,
        };
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
    fn every_collection_starts_from_power_on_state() {
        // One pass, no warm-up: the victim's trace is its first run, so a
        // predictor the previous collection trained would show as a leak.
        let tc = v1_tc();
        let inputs = v1_priming_inputs(&tc);
        let cfg = ExecutorConfig {
            warmup_rounds: 0,
            ..ExecutorConfig::fast(MeasurementMode::prime_probe()).with_repetitions(1)
        };
        let mut ex = executor(cfg);
        assert!(ex.collect_htraces(&tc, &inputs).unwrap()[5].sets().contains(31));
        let victim = ex.collect_htraces(&tc, &inputs[5..]).unwrap();
        assert!(!victim[0].sets().contains(31), "no training carried over");
        assert_eq!(victim, executor(cfg).collect_htraces(&tc, &inputs[5..]).unwrap());
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
    fn back_to_back_collections_match_the_full_schedule() {
        // Two different test cases back to back on one executor, under
        // noise (one shared stream): the fixed point, the reused session
        // and the state the first collection leaves behind must not show
        // in the traces of the full-schedule oracle.
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

        let mut full = opaque(cfg);
        let mut ex = executor(cfg);
        for (tc, inputs) in [(&v1, &v1_inputs), (&direct, &direct_inputs)] {
            assert_eq!(
                ex.collect_htraces(tc, inputs).unwrap(),
                full.collect_htraces(tc, inputs).unwrap()
            );
        }
    }

    #[test]
    fn session_is_reused_across_collections() {
        // Back-to-back collections must not rebuild the side channel; the
        // session key only changes with the sandbox or mode.
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
        // P+P never reads the victim sandbox, so mixing sandbox sizes across
        // collections must not rotate the session key (and with it the
        // channel's precomputed attacker tags).
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
        // priming sequence whose state settles early in the second pass:
        // its 2-bit counter reads the same at input 2 of pass 1 as at
        // input 2 of pass 0, so only pass 0 and two runs of pass 1
        // are simulated, and the traces — with and without noise, under
        // Prime+Probe and Evict+Reload, which describe no cache — are
        // byte-identical to the full schedule's.
        let tc = v1_tc();
        let inputs = v1_priming_inputs(&tc);
        let noise = NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 9 };
        let pp = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let er = ExecutorConfig::paper(MeasurementMode::evict_reload());
        for cfg in [pp, pp.with_noise(noise), er, er.with_noise(noise)] {
            let mut full = opaque(cfg);
            let mut fixed = wrapped(cfg, |w, out| w.cpu.functional_state(out));
            for round in 1..=2u64 {
                let expected = full.collect_htraces(&tc, &inputs).unwrap();
                assert_eq!(fixed.collect_htraces(&tc, &inputs).unwrap(), expected);
                assert_eq!(fixed.cpu().runs, (6 + 2) * round, "a pass and two runs");
                assert_eq!(fixed.replayed_runs(), (53 * 6 - 8) * round);
            }
            assert!(full.collection_count() == 2 && full.replayed_runs() == 0);
            assert_eq!(full.cpu().runs, 2 * 53 * 6);
        }
    }

    #[test]
    fn fixed_point_waits_for_the_predictor_to_settle() {
        // A load, then a branch whose two targets are empty: the branch
        // leaves no footprint, so the cache ends every pass alike, but its
        // 2-bit counter ends pass 0 at 2 and pass 1 at 3.  Pass 1 changed
        // the predictor, so only pass 2 starts where the pass before it
        // did: three passes of the one input are simulated.
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
        let mut ex = wrapped(cfg, |w, out| w.cpu.functional_state(out));
        let traces = ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(ex.cpu().runs, 3);
        assert_eq!(ex.replayed_runs(), 50);
        assert_eq!(traces, opaque(cfg).collect_htraces(&tc, &inputs).unwrap());
    }

    #[test]
    fn fixed_point_waits_for_the_btb() {
        // An indirect jump whose target follows the input: each run leaves
        // its target in the BTB, so the other input mispredicts and loads
        // the other target's line speculatively.  Pass 0 starts with an
        // empty BTB and pass 1 with input 1's target; nothing else tells
        // their first inputs apart (no conditional branch or call, and the
        // loads read a zeroed sandbox, so the fill buffer stays 0).  Only
        // the BTB keeps input 0 of pass 1 from replaying pass 0's run,
        // which did not speculate.  At input 1 the passes agree, so pass 0
        // and the first run of pass 1 are simulated.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| b.jmp_indirect(Reg::Rax, vec!["low", "high"]))
            .block("low", |b| {
                b.load_disp(Reg::Rbx, Reg::R14, 0x80);
                b.exit();
            })
            .block("high", |b| {
                b.load_disp(Reg::Rbx, Reg::R14, 0x800);
                b.exit();
            })
            .build();
        let inputs: Vec<Input> =
            (0..2).map(|k| input_with(&tc, |i| i.set_reg(Reg::Rax, k))).collect();
        let noise = NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 17 };
        let paper = ExecutorConfig::paper(MeasurementMode::prime_probe());
        for cfg in [paper, paper.with_noise(noise)] {
            assert_eq!(simulated_runs(cfg, &tc, &inputs), 3);
        }
        let traces = executor(paper).collect_htraces(&tc, &inputs).unwrap();
        assert!(traces[0].sets().contains(32), "the trained BTB sends input 0 to `high`");
        assert!(traces[1].sets().contains(2), "and input 1 to `low`");
    }

    #[test]
    fn changing_state_runs_every_pass() {
        // A state that differs after every run never repeats: nothing is
        // replayed, every run of every collection is simulated, and the
        // state is described once per checkpoint (inputs 0, 1, 2 and 4 of
        // five) per pass, never more.
        let tc = direct_load_tc();
        let inputs: Vec<Input> =
            (0..5).map(|k| input_with(&tc, |i| i.set_reg(Reg::Rax, 0x80 << k))).collect();
        let cfg = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let mut ex = wrapped(cfg, |w, out| {
            out.push(w.runs);
            true
        });
        let traces = ex.collect_htraces(&tc, &inputs).unwrap();
        ex.collect_htraces(&tc, &inputs).unwrap();
        assert_eq!(ex.replayed_runs(), 0);
        assert_eq!(ex.cpu().runs, 2 * 53 * 5);
        assert_eq!(ex.cpu().described.get(), 2 * 53 * 4, "one snapshot per checkpoint per pass");
        assert_eq!(traces, opaque(cfg).collect_htraces(&tc, &inputs).unwrap());
    }

    /// Inputs for [`direct_load_tc`] loading from the given offsets.
    fn loads_from(tc: &TestCase, offsets: &[u64]) -> Vec<Input> {
        offsets.iter().map(|&off| input_with(tc, |i| i.set_reg(Reg::Rax, off))).collect()
    }

    /// Collect `inputs` on a state-describing executor and on the
    /// full-schedule oracle, assert identical traces, and return the
    /// number of simulated runs.
    fn simulated_runs(cfg: ExecutorConfig, tc: &TestCase, inputs: &[Input]) -> u64 {
        let mut fixed = wrapped(cfg, |w, out| w.cpu.functional_state(out));
        let traces = fixed.collect_htraces(tc, inputs).unwrap();
        assert_eq!(traces, opaque(cfg).collect_htraces(tc, inputs).unwrap(), "{cfg:?}");
        let scheduled = ((cfg.warmup_rounds + cfg.repetitions) * inputs.len()) as u64;
        assert_eq!(fixed.cpu().runs + fixed.replayed_runs(), scheduled);
        fixed.cpu().runs
    }

    /// Inputs for [`v1_tc`], in bounds (the branch is taken) except where
    /// `out` is set.
    fn v1_pattern(tc: &TestCase, out: &[bool]) -> Vec<Input> {
        let input = |(k, &out): (usize, &bool)| {
            input_with(tc, |i| {
                i.set_reg(Reg::Rax, if out { 100 } else { 1 });
                i.set_reg(Reg::Rbx, 0x40 * k as u64);
            })
        };
        out.iter().enumerate().map(input).collect()
    }

    #[test]
    fn repeat_mid_pass_replays_the_rest() {
        // The branch's counter stops showing which pass it is in at input
        // `k` of pass 1: the state there equals the state at input `k`
        // of pass 0, so the first pass is simulated in full and pass 1 only
        // up to `k`.  A branch-free program's state repeats at pass 1's
        // first input.  The traces — with and without noise, of the §5.3
        // swapped sequences, and under Evict+Reload too — are the full
        // schedule's.
        let v1 = v1_tc();
        let direct = direct_load_tc();
        let noise = NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 13 };
        let (o, i) = (true, false);
        let cases: [(&TestCase, Vec<Input>, u64); 4] = [
            (&direct, loads_from(&direct, &[0x80, 0x800, 0x80, 0x800, 0x80]), 0),
            (&v1, v1_pattern(&v1, &[o, o, o, o]), 1),
            (&v1, v1_pattern(&v1, &[i, i, i, i]), 2),
            (&v1, v1_pattern(&v1, &[o, i, i, i, i]), 4),
        ];
        let pp = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let er = ExecutorConfig::paper(MeasurementMode::evict_reload());
        for (tc, inputs, k) in cases {
            let n = inputs.len() as u64;
            for cfg in [pp, pp.with_noise(noise), er, er.with_noise(noise)] {
                assert_eq!(simulated_runs(cfg, tc, &inputs), n + k, "k = {k}");

                let prog = DecodedProgram::decode(tc).unwrap();
                let mut fixed = wrapped(cfg, |w, out| w.cpu.functional_state(out));
                let mut full = opaque(cfg);
                let baseline = fixed.collect_htraces(tc, &inputs).unwrap();
                assert_eq!(baseline, full.collect_htraces(tc, &inputs).unwrap());
                for (i, j) in [(0, 1), (1, 2), (0, inputs.len() - 1)] {
                    let swapped = |ex: &mut Executor<Wrapped>| {
                        let session = ex.collect(&prog, &inputs, Some((i, j))).unwrap();
                        session.samples.iter_mut().map(|s| merge_sorting(s, 2)).collect::<Vec<_>>()
                    };
                    assert_eq!(swapped(&mut fixed), swapped(&mut full), "swap {i}<-{j}");
                    assert_eq!(
                        fixed.is_measurement_artifact(tc, &inputs, &baseline, i, j).unwrap(),
                        full.is_measurement_artifact(tc, &inputs, &baseline, i, j).unwrap()
                    );
                }
                assert!(fixed.replayed_runs() > 0);
            }
        }
    }

    #[test]
    fn noise_free_fixed_point_ends_the_collection() {
        // Without noise the fixed point ends the collection: the runs it
        // skips count as replayed, and each input's remaining samples are
        // capped at the outlier threshold.  The traces, of the §5.3 swapped
        // sequences too, are the full schedule's under the paper's 3 + 50
        // and a 1 + 2 schedule, at thresholds of 1, 2 and 3.
        let v1 = v1_tc();
        let direct = direct_load_tc();
        let (o, i) = (true, false);
        let cases = [
            (&v1, v1_priming_inputs(&v1)),
            (&v1, v1_pattern(&v1, &[o, i, i, i, i])),
            (&direct, loads_from(&direct, &[0x80, 0x800, 0x80])),
        ];
        let paper = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let short = ExecutorConfig { warmup_rounds: 1, ..paper.with_repetitions(2) };
        for base in [paper, short] {
            for outlier_min_count in [1, 2, 3] {
                let cfg = ExecutorConfig { outlier_min_count, ..base };
                for (tc, inputs) in &cases {
                    let prog = DecodedProgram::decode(tc).unwrap();
                    let scheduled = ((cfg.warmup_rounds + cfg.repetitions) * inputs.len()) as u64;
                    let mut fixed = wrapped(cfg, |w, out| w.cpu.functional_state(out));
                    let mut full = opaque(cfg);
                    for swap in [None, Some((0, inputs.len() - 1))] {
                        let traces = |ex: &mut Executor<Wrapped>| {
                            let session = ex.collect(&prog, inputs, swap).unwrap();
                            let merge = |s: &mut Vec<SetVector>| merge_sorting(s, outlier_min_count);
                            session.samples.iter_mut().map(merge).collect::<Vec<_>>()
                        };
                        let (runs, replayed) = (fixed.cpu().runs, fixed.replayed_runs());
                        assert_eq!(traces(&mut fixed), traces(&mut full), "{cfg:?}, swap {swap:?}");
                        let simulated = fixed.cpu().runs - runs;
                        assert!(simulated < scheduled, "the fixed point is reached");
                        assert_eq!(fixed.replayed_runs() - replayed, scheduled - simulated);
                    }
                }
            }
        }
    }

    #[test]
    fn passes_differing_only_in_line_order_replay() {
        // A load evicts the oldest attacker line of its set and the next
        // prime refills it at the end of the set, so from pass 1 on the
        // primed set holds the same lines as pass 0's cold prime in another
        // order.  No measurement can see the order: the runs repeat from
        // pass 1's first input, while a snapshot that also lists the
        // primed cache's lines waits until every set the loads touch has
        // been reordered (pass 2 for one input, input 2 of pass 1 for the
        // two sets of three).  Evict+Reload prepares with the same prime
        // and describes nothing either, so its runs repeat from pass 1's
        // first input too.  The traces are the full schedule's every time.
        let tc = direct_load_tc();
        let cfg = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let evict_reload = ExecutorConfig::paper(MeasurementMode::evict_reload());
        for (offsets, with_order) in [(&[0x80][..], 2), (&[0x80, 0x800, 0x80], 3 + 2)] {
            let inputs = loads_from(&tc, offsets);
            assert_eq!(simulated_runs(cfg, &tc, &inputs), inputs.len() as u64);
            assert_eq!(simulated_runs(evict_reload, &tc, &inputs), inputs.len() as u64);
            let mut ordered = wrapped(cfg, |w, out| {
                w.cpu.functional_state(out);
                w.cpu.cache().functional_state(out);
                true
            });
            let traces = ordered.collect_htraces(&tc, &inputs).unwrap();
            assert_eq!(traces, opaque(cfg).collect_htraces(&tc, &inputs).unwrap());
            assert_eq!(ordered.cpu().runs, with_order, "{offsets:x?}");
        }
    }

    #[test]
    fn fixed_point_edge_schedules() {
        // One input, no warm-up, a single measured pass: the traces are the
        // full schedule's, and a one-pass schedule never describes the state.
        let tc = direct_load_tc();
        let one = loads_from(&tc, &[0x80]);
        let three = loads_from(&tc, &[0x80, 0x800, 0x80]);
        let paper = ExecutorConfig::paper(MeasurementMode::prime_probe());
        let noisy = paper
            .with_noise(NoiseConfig { one_off_probability: 0.2, smi_probability: 0.1, seed: 4 });
        for cfg in [paper, noisy] {
            // One input: pass 1 starts where pass 0 did, so it replays.
            assert_eq!(simulated_runs(cfg, &tc, &one), 1);
            let no_warmup = ExecutorConfig { warmup_rounds: 0, ..cfg };
            assert_eq!(simulated_runs(no_warmup, &tc, &three), 3);
            let single = ExecutorConfig { warmup_rounds: 0, ..cfg.with_repetitions(1) };
            assert_eq!(simulated_runs(single, &tc, &three), 3);
            let two = ExecutorConfig { warmup_rounds: 1, ..cfg.with_repetitions(1) };
            assert_eq!(simulated_runs(two, &tc, &three), 3);
        }
        let single = ExecutorConfig { warmup_rounds: 0, ..paper.with_repetitions(1) };
        let mut ex = wrapped(single, |w, out| w.cpu.functional_state(out));
        ex.collect_htraces(&tc, &three).unwrap();
        assert_eq!(ex.cpu().described.get(), 0, "nothing to compare a single pass with");
    }

    #[test]
    fn empty_sample_handling() {
        let ex = executor(ExecutorConfig::fast(MeasurementMode::prime_probe()));
        assert!(ex.merge_samples(&[]).is_empty());
    }
}
