//! Multi-campaign orchestration: fuzz a whole matrix of (target, contract)
//! cells — e.g. the paper's Table 3 — over **one** set of worker threads,
//! with cross-contract trace sharing.
//!
//! Hardware traces depend only on (target, test case, inputs), never on the
//! contract, so all cells that test the same target form a *cell group*
//! that shares a single test-case stream: each test case is generated once,
//! measured once ([`Executor::collect_htraces`]), and the collected traces
//! are checked against every contract of the group
//! ([`campaign::evaluate_slate`]).  Since measurement dominates the cost of
//! a test case, a four-contract group costs barely more than a single
//! campaign:
//!
//! ```text
//!   CampaignMatrix ──┬── group(Target 1) ─ stream: tc₀ tc₁ tc₂ … ──► CT-SEQ
//!                    │                       (htraces shared)    ├─► CT-BPAS
//!                    │                                           ├─► CT-COND
//!                    │                                           └─► CT-COND-BPAS
//!                    ├── group(Target 2) ─ stream: tc₀ tc₁ … ────► …
//!                    ┆
//!                    └── one worker set: the calling thread + parallelism − 1 helpers
//! ```
//!
//! The scheduler interleaves (group, round) work units over the run's
//! worker set: the thread that drives the run plus `parallelism − 1`
//! helper threads, which live for the whole run.  Each thread evaluates
//! its units in place on a resident [`UnitContext`] it owns (an executor
//! per group, the input batch and the model's buffers).  It reduces each
//! unit to the few fields the merge reads (counts, per-contract statistics
//! and verdicts, and the test case only when it confirmed a violation),
//! hands the input batch back to its context and frees the rest itself, so
//! no thread frees another thread's allocations.
//!
//! There is no barrier between waves.  The calling thread evaluates units
//! of its wave alongside the helpers and merges as soon as the wave's last
//! result is in.  Meanwhile the helpers run *ahead*: without escalation a
//! group's next slate is the current one minus the cells that close in
//! this round, so each group's next round is queued as soon as its current
//! round is, and helpers take it once no unit of the current wave is left.
//! A unit run ahead merges with the cells of the slate it ran with, which
//! may still include cells that closed since: per-contract outcomes do not
//! depend on the rest of the slate, and the merge skips closed cells.  The
//! round a group queued ahead is dropped, never counted, when all of the
//! group's cells close.  Escalating groups never run ahead, since
//! escalation may change the generator at the round boundary.  Each unit
//! is a pure function of `(target, configuration, seed)` with the seed
//! derived from `(matrix seed, target id, test-case index)` alone, so:
//!
//! * results are identical for any `parallelism`, and
//! * a cell's verdict never changes when other cells are added to or
//!   removed from the matrix (per-contract outcomes are independent of the
//!   slate's composition — see the [`campaign`] module docs).
//!
//! Every cell stops early at its first confirmed violation; a group keeps
//! running until all of its cells have stopped or the per-group test-case
//! budget is exhausted.
//!
//! # Incremental driving and checkpoints
//!
//! [`CampaignMatrix::start`] returns a [`MatrixRun`]: the matrix as a
//! resumable state machine whose state *is* a plain-data
//! [`MatrixCheckpoint`].  Its `cells` are the finished cells' records,
//! written once when a cell finishes; its `groups` are the small mutable
//! progress part (stream position, counters, coverage, escalations).
//! [`MatrixRun::step`] evaluates one scheduling wave (one round per
//! unfinished group) and advances that state in place;
//! [`MatrixRun::checkpoint`] copies it, [`CampaignMatrix::resume`] adopts
//! a copy after validating it, and [`MatrixRun::finish`] builds the
//! report from it.  Because every work unit's seed derives from `(matrix
//! seed, target id, index)` alone, a resumed run replays the *identical*
//! stream suffix: the verdicts of an interrupted-and-resumed matrix are
//! byte-identical to an uninterrupted one (only wall-clock fields differ).
//! The campaign service (`rvz-service`) persists these checkpoints to its
//! spool between waves.  Units run ahead are a cache, not state: a
//! checkpoint never records them, and a resumed run evaluates them again.
//!
//! # Diversity escalation
//!
//! By default cell groups run a **fixed** generator configuration (the
//! mid-campaign parameters the detection harnesses use).  With
//! [`CampaignMatrix::with_escalation`] the §5.6 diversity feedback drives
//! each group: pattern coverage is measured on a dedicated CT-SEQ *coverage
//! probe* appended to every slate, so the escalation decisions — and with
//! them the shared test-case stream — depend only on the target, never on
//! which contracts happen to share the group.  Composition- and
//! parallelism-invariance are preserved (and tested) in both modes.
//!
//! [`Executor::collect_htraces`]: rvz_executor::Executor::collect_htraces
//! [`campaign`]: crate::campaign
//! [`campaign::evaluate_slate`]: crate::campaign::evaluate_slate

use crate::campaign::{
    CellEvent, ClassMembers, NoopObserver, ProgressObserver, RoundEvent, SeedEval, SlateChecks, SlateSpec,
    SlateUnit, UnitContext,
};
use crate::classify::{classify, VulnClass};
use crate::diversity::PatternCoverage;
use crate::fuzzer::ViolationReport;
use crate::staticanalysis;
use crate::targets::Target;
use crate::workers::{Job, Ticket, Tier, Workers};
use rvz_analyzer::{EffectivenessStats, Violation};
use rvz_executor::ExecutorConfig;
use rvz_gen::GeneratorConfig;
use rvz_isa::{Input, TestCase};
use rvz_model::{Contract, ExecutionInfo};
use rvz_uarch::SpecCpu;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cell of the testing matrix: a target fuzzed against a contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// The target (Table 2 column).
    pub target: Target,
    /// The contract the target is tested against.
    pub contract: Contract,
}

/// The result of one matrix cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's target.
    pub target: Target,
    /// The cell's contract.
    pub contract: Contract,
    /// The first confirmed violation, if any was found within the budget.
    pub violation: Option<ViolationReport>,
    /// Test cases of the group stream evaluated for this cell (up to and
    /// including the violating one, or the whole budget).
    pub test_cases: usize,
    /// Group-stream test cases the static speculation pre-filter discarded
    /// before this cell finished (0 when the filter is off).
    pub filtered: usize,
    /// Inputs executed across those test cases.
    pub total_inputs: usize,
    /// Input-effectiveness statistics summed over the cell's measured test
    /// cases (integer sums; per §5.2 the ratio is
    /// [`EffectivenessStats::effectiveness`]).
    pub effectiveness: EffectivenessStats,
    /// Evaluation time the cell's group had accumulated when this cell
    /// finished: the shared measurement cost attributed to the cell, i.e.
    /// the time an independent campaign for this cell would have needed
    /// *plus* the (small) per-contract analysis shared with its group —
    /// comparable to a per-cell detection time, and independent of how many
    /// *other* groups the matrix interleaves.  Wall clock for the whole
    /// matrix lives in [`MatrixReport::duration`]; wall-clock-since-start
    /// for live display is in [`CellEvent::elapsed`](crate::CellEvent).
    pub detection_time: Duration,
}

impl CellReport {
    /// Did the cell find a confirmed violation?
    pub fn found(&self) -> bool {
        self.violation.is_some()
    }

    /// Classification of the violation, if one was found.
    pub fn vulnerability(&self) -> Option<VulnClass> {
        self.violation.as_ref().map(|v| v.vulnerability)
    }
}

/// Summary of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Per-cell results, in the order the cells were added.
    pub cells: Vec<CellReport>,
    /// The matrix seed (per-cell streams derive from it, the target id and
    /// the test-case index).
    pub seed: u64,
    /// Unique (target, test case) evaluations across all cell groups — the
    /// measurement work actually performed.  The per-cell `test_cases`
    /// counters sum to more than this whenever groups share traces.
    pub test_cases: usize,
    /// Test cases generated across all cell groups, including ones the
    /// static pre-filter discarded before measurement.
    pub generated: usize,
    /// Test cases discarded by the static speculation pre-filter across all
    /// cell groups (0 when the filter is off).
    pub statically_filtered: usize,
    /// Wall-clock duration of the whole matrix run (of the final segment
    /// only, if the run was checkpoint-resumed).
    pub duration: Duration,
}

impl MatrixReport {
    /// The report of the cell for `(target_id, contract)`, if present.
    pub fn cell(&self, target_id: u8, contract: &Contract) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.target.id == target_id && c.contract == *contract)
    }
}

/// Checkpointed progress of one matrix cell (plain data, serializable by
/// `rvz_bench::report`).
#[derive(Debug, Clone, PartialEq)]
pub struct CellProgress {
    /// The confirmed violation that finished the cell.
    pub violation: Option<ViolationReport>,
    /// Test cases evaluated for the cell when it finished.
    pub test_cases: usize,
    /// Statically pre-filtered group-stream test cases when the cell
    /// finished.
    pub filtered: usize,
    /// Inputs executed across those test cases.
    pub total_inputs: usize,
    /// Summed input-effectiveness statistics of the cell's measured test
    /// cases.
    pub effectiveness: EffectivenessStats,
    /// Attributed group evaluation time when the cell finished.
    pub detection_time: Duration,
}

/// Checkpointed progress of one cell group (one target's shared stream).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProgress {
    /// Table 2 id of the group's target.
    pub target_id: u8,
    /// Next test-case index of the group stream.
    pub next_index: usize,
    /// Test cases evaluated so far.
    pub test_cases: usize,
    /// Test cases the static speculation pre-filter discarded so far.
    pub filtered: usize,
    /// Inputs executed so far.
    pub total_inputs: usize,
    /// Per-cell summed input-effectiveness statistics, one per cell of the
    /// group, indexed like the group's cells (discovery order); unfinished
    /// cells keep accumulating after a resume.
    pub effectiveness: Vec<EffectivenessStats>,
    /// Completed rounds.
    pub round: usize,
    /// Accumulated unit-evaluation time.
    pub work: Duration,
    /// Generator escalations so far (§5.6; 0 unless
    /// [`CampaignMatrix::with_escalation`] is on).
    pub escalations: usize,
    /// Current coverage goal level (1 = single patterns, 2+ = pairs).
    pub coverage_level: usize,
    /// Did coverage improve within the current round window?
    pub round_improved: bool,
    /// Accumulated pattern coverage of the group's coverage probe.
    pub coverage: PatternCoverage,
}

/// The state of a [`MatrixRun`]: everything needed to continue an
/// interrupted matrix with byte-identical verdicts.  The run steps it in
/// place; [`MatrixRun::checkpoint`] copies it out and
/// [`CampaignMatrix::resume`] adopts a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCheckpoint {
    /// Completed scheduling waves ([`MatrixRun::step`] calls that did
    /// work).  Purely informational for resume; the multi-host campaign
    /// service keys checkpoint replication by it (wave numbers of one job
    /// must arrive strictly increasing at the coordinator).
    pub wave: usize,
    /// The matrix seed (validated on resume).
    pub seed: u64,
    /// The per-group budget (validated on resume).
    pub budget: usize,
    /// The scheduling round size (validated on resume).
    pub round_size: usize,
    /// Whether diversity escalation was enabled (validated on resume).
    pub escalation: bool,
    /// Digest of everything else the stream depends on — generator size,
    /// inputs per test case, placement bias, the speculation pre-filter and
    /// the full (target, contract) cell list (validated on resume; resuming
    /// under a different configuration would silently break the
    /// byte-identical guarantee).
    pub config_digest: u64,
    /// The finished-cell records, indexed like [`CampaignMatrix::cells`]:
    /// `Some` for cells that already finished (found a violation), written
    /// once and never changed afterwards.
    pub cells: Vec<Option<CellProgress>>,
    /// The mutable progress part: per-group stream progress, in group
    /// discovery order.
    pub groups: Vec<GroupProgress>,
}

impl MatrixCheckpoint {
    /// A stable digest over **every** field of the checkpoint, for
    /// validating checkpoint replication across process boundaries: a
    /// worker host digests its snapshot before encoding it onto the wire,
    /// the coordinator re-digests the decoded snapshot, and a mismatch
    /// means the transfer codec dropped or distorted state (which would
    /// silently break the byte-identical resume guarantee).
    ///
    /// The digest is FNV-1a over the checkpoint's `Debug` rendering: total
    /// (new fields are covered automatically) and deterministic across
    /// processes of the same build — every constituent container is
    /// order-stable (`Vec`/`BTreeSet`), and there are no hash-ordered
    /// collections anywhere in the tree.  It is **not** meant to be stable
    /// across versions of this crate; both ends of a transfer must run the
    /// same build, which the campaign service's deployment story (one
    /// workspace, one binary pair) already guarantees.
    pub fn digest(&self) -> u64 {
        /// Folds formatted bytes straight into FNV-1a — checkpoints with
        /// violation reports render to hundreds of KB of `Debug` output,
        /// and this runs twice per wave (sender and receiver), so never
        /// materialize the string.
        struct FnvWriter(u64);
        impl std::fmt::Write for FnvWriter {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
        use std::fmt::Write;
        write!(w, "{self:?}").expect("FnvWriter never fails");
        w.0
    }
}

/// Orchestrates a matrix of fuzzing campaigns over one set of worker
/// threads with cross-contract trace sharing (see the module docs).
///
/// # Example
///
/// ```no_run
/// use revizor::orchestrator::CampaignMatrix;
///
/// // Regenerate Table 3: 8 targets × 4 CT-* contracts on 4 threads.
/// let report = CampaignMatrix::table3(3).with_budget(200).with_parallelism(4).run();
/// for cell in &report.cells {
///     println!("Target {} × {}: {}", cell.target.id, cell.contract, cell.found());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CampaignMatrix {
    cells: Vec<MatrixCell>,
    seed: u64,
    budget: usize,
    round_size: usize,
    parallelism: usize,
    inputs_per_test_case: usize,
    basic_blocks: usize,
    instructions: usize,
    branch_then_load_bias: bool,
    escalation: bool,
    speculation_filter: bool,
}

impl CampaignMatrix {
    /// An empty matrix.  The defaults mirror the detection harnesses of
    /// §6.5: mid-campaign generator parameters (4 basic blocks, 14
    /// instructions, 20 inputs per test case), a budget of 200 test cases
    /// per cell group, rounds of 10, a single worker thread, and no
    /// diversity escalation.  Every collection measures with
    /// [`ExecutorConfig::campaign`].
    pub fn new(seed: u64) -> CampaignMatrix {
        CampaignMatrix {
            cells: Vec::new(),
            seed,
            budget: 200,
            round_size: 10,
            parallelism: 1,
            inputs_per_test_case: 20,
            basic_blocks: 4,
            instructions: 14,
            branch_then_load_bias: true,
            escalation: false,
            speculation_filter: false,
        }
    }

    /// The full Table 3 matrix: every target of Table 2 against every CT-*
    /// contract.
    pub fn table3(seed: u64) -> CampaignMatrix {
        let mut matrix = CampaignMatrix::new(seed);
        for target in Target::all() {
            for contract in Contract::table3_contracts() {
                matrix = matrix.add_cell(target.clone(), contract);
            }
        }
        matrix
    }

    /// The extended Table 3 matrix: the Table 2 targets plus the predictor
    /// zoo (TAGE / loop-predictor fuzzing targets and the scenario-pinned
    /// BTB-aliasing, deep-RSB and predictor-state cells), each against
    /// every CT-* contract.  The first 32 cells are exactly [`Self::table3`],
    /// so the classic verdicts are unchanged.
    pub fn table3_zoo(seed: u64) -> CampaignMatrix {
        let mut matrix = CampaignMatrix::new(seed);
        for target in Target::catalog() {
            for contract in Contract::table3_contracts() {
                matrix = matrix.add_cell(target.clone(), contract);
            }
        }
        matrix
    }

    /// Add one (target, contract) cell.  Cells of the same target share one
    /// test-case stream and its hardware traces.
    pub fn add_cell(mut self, target: Target, contract: Contract) -> CampaignMatrix {
        self.cells.push(MatrixCell { target, contract });
        self
    }

    /// Add one target against several contracts.
    pub fn add_cells(
        mut self,
        target: Target,
        contracts: impl IntoIterator<Item = Contract>,
    ) -> CampaignMatrix {
        for contract in contracts {
            self = self.add_cell(target.clone(), contract);
        }
        self
    }

    /// Builder: maximum test cases per cell group.
    pub fn with_budget(mut self, budget: usize) -> CampaignMatrix {
        self.budget = budget.max(1);
        self
    }

    /// Builder: test cases per scheduling round.
    pub fn with_round_size(mut self, round_size: usize) -> CampaignMatrix {
        self.round_size = round_size.max(1);
        self
    }

    /// Builder: threads that evaluate work units, the calling thread
    /// included: a run evaluates units on the thread that drives it plus
    /// `parallelism − 1` helper threads (`0` and `1` both mean no helper).
    /// A run spawns its helpers on its first wave and joins them when it
    /// ends.  Results are identical for any value.
    pub fn with_parallelism(mut self, parallelism: usize) -> CampaignMatrix {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder: inputs generated per test case.
    pub fn with_inputs_per_test_case(mut self, n: usize) -> CampaignMatrix {
        self.inputs_per_test_case = n.max(2);
        self
    }

    /// Builder: generator size parameters (basic blocks, instructions).
    pub fn with_generator_size(mut self, basic_blocks: usize, instructions: usize) -> CampaignMatrix {
        self.basic_blocks = basic_blocks.max(1);
        self.instructions = instructions;
        self
    }

    /// Builder: enable or disable the branch-then-load placement bias of
    /// the generator (on by default — see
    /// [`GeneratorConfig::branch_then_load_bias`]).
    pub fn with_branch_then_load_bias(mut self, bias: bool) -> CampaignMatrix {
        self.branch_then_load_bias = bias;
        self
    }

    /// Builder: enable the §5.6 diversity escalation for every cell group
    /// (off by default).  Escalation decisions are driven by a CT-SEQ
    /// coverage probe shared by the whole group, so a group's test-case
    /// stream stays independent of which contracts it contains and of the
    /// thread count; [`RoundEvent::escalations`] reports the true
    /// per-group count either way.
    pub fn with_escalation(mut self, escalation: bool) -> CampaignMatrix {
        self.escalation = escalation;
        self
    }

    /// Builder: enable the static speculation pre-filter (off by default).
    /// Statically-leak-impossible test cases are discarded before the model
    /// and hardware measurements; the filter is sound, so every cell's
    /// verdict (and violating test case) is unchanged — only the number of
    /// *measured* test cases shrinks.  Filtered seeds still consume stream
    /// indices, so the shared streams stay aligned with the unfiltered run.
    pub fn with_speculation_filter(mut self, enabled: bool) -> CampaignMatrix {
        self.speculation_filter = enabled;
        self
    }

    /// The cells added so far.
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The matrix seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Digest of the verdict-relevant configuration beyond
    /// seed/budget/round size: the generator parameters, the speculation
    /// pre-filter and the exact cell list.  A checkpoint only resumes on a
    /// matrix with the same digest.
    fn config_digest(&self) -> u64 {
        let mut desc = format!(
            "{}|{}|{}|{}|{}",
            self.inputs_per_test_case,
            self.basic_blocks,
            self.instructions,
            self.branch_then_load_bias,
            self.speculation_filter,
        );
        for cell in &self.cells {
            use std::fmt::Write;
            let _ = write!(
                desc,
                "|{}#{}:{}:{}",
                cell.target,
                cell.contract.name(),
                cell.contract.speculation_window,
                cell.contract.nested_speculation,
            );
        }
        // FNV-1a: stable across processes and platforms (checkpoints cross
        // process boundaries through the service spool).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in desc.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The initial generator configuration of `target`'s cell group
    /// (escalation, if enabled, grows a group-local copy of this).  A
    /// violation found before any escalation replays from its
    /// [`test_case_seed`](ViolationReport::test_case_seed) with this
    /// generator.
    pub fn base_generator(&self, target: &Target) -> GeneratorConfig {
        let mut generator = GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(self.basic_blocks)
            .with_instructions(self.instructions)
            .with_branch_then_load_bias(self.branch_then_load_bias);
        generator.inputs_per_test_case = self.inputs_per_test_case;
        // Scenario-pinned targets fuzz input streams over a fixed gadget;
        // the scenario also appears in the target's Display form, so it is
        // already part of the config digest.
        generator.scenario = target.scenario.clone();
        generator
    }

    /// The matrix's cell groups, one per target in discovery order — the
    /// one cell walk behind runs, checkpoints, splits and merges.
    fn groups(&self) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        for (idx, cell) in self.cells.iter().enumerate() {
            match groups.iter_mut().find(|g| g.target == cell.target) {
                Some(g) => g.cells.push(idx),
                None => groups.push(Group {
                    generator: self.base_generator(&cell.target),
                    target: cell.target.clone(),
                    cells: vec![idx],
                }),
            }
        }
        groups
    }

    /// The slate `group`'s rounds run with while `cells` (group positions)
    /// are open.
    fn slate_spec(&self, group: &Group, cells: &[usize]) -> SlateSpec {
        let mut contracts: Vec<Contract> =
            cells.iter().map(|&k| self.cells[group.cells[k]].contract.clone()).collect();
        if self.escalation {
            // The coverage probe: pattern coverage is always measured on
            // CT-SEQ so escalation decisions depend only on the target,
            // never on the group's contract composition.
            contracts.push(Contract::ct_seq());
        }
        SlateSpec {
            generator: group.generator.clone(),
            executor: ExecutorConfig::campaign(group.target.mode),
            checks: SlateChecks::all(),
            contracts,
            speculation_filter: self.speculation_filter,
        }
    }

    /// Start an incremental run of the matrix (see [`MatrixRun`]): the run
    /// adopts [`Self::initial_checkpoint`] as its state.
    pub fn start(&self) -> MatrixRun<'_> {
        MatrixRun::adopt(self, self.initial_checkpoint())
    }

    /// Resume an incremental run from a [`MatrixCheckpoint`].  The
    /// checkpoint must come from a matrix with the same seed, budget,
    /// round size, escalation mode and cell list; the run adopts it as its
    /// state, so it replays the identical stream suffix and its verdicts
    /// are byte-identical to an uninterrupted run.
    ///
    /// # Errors
    /// Returns a message when the checkpoint does not match this matrix.
    pub fn resume(&self, checkpoint: &MatrixCheckpoint) -> Result<MatrixRun<'_>, String> {
        self.check_checkpoint(checkpoint)?;
        Ok(MatrixRun::adopt(self, checkpoint.clone()))
    }

    /// Check that `checkpoint` was taken from this matrix: same seed,
    /// budget, round size, escalation mode and configuration digest, the
    /// same cell and group layout with one effectiveness sum per cell of
    /// each group, and no escalations unless the matrix escalates.
    fn check_checkpoint(&self, checkpoint: &MatrixCheckpoint) -> Result<(), String> {
        if checkpoint.seed != self.seed {
            return Err(format!(
                "checkpoint seed {} does not match matrix seed {}",
                checkpoint.seed, self.seed
            ));
        }
        if checkpoint.budget != self.budget || checkpoint.round_size != self.round_size {
            return Err("checkpoint budget/round size does not match the matrix".to_string());
        }
        if checkpoint.escalation != self.escalation {
            return Err("checkpoint escalation mode does not match the matrix".to_string());
        }
        if checkpoint.config_digest != self.config_digest() {
            return Err(
                "checkpoint configuration (generator/measurement parameters or cell list) \
                 does not match the matrix"
                    .to_string(),
            );
        }
        if checkpoint.cells.len() != self.cells.len() {
            return Err(format!(
                "checkpoint has {} cells, matrix has {}",
                checkpoint.cells.len(),
                self.cells.len()
            ));
        }
        let groups = self.groups();
        if checkpoint.groups.len() != groups.len() {
            return Err(format!(
                "checkpoint has {} groups, matrix has {}",
                checkpoint.groups.len(),
                groups.len()
            ));
        }
        for (group, progress) in groups.iter().zip(&checkpoint.groups) {
            if group.target.id != progress.target_id {
                return Err(format!(
                    "checkpoint group targets {} where the matrix has {}",
                    progress.target_id, group.target.id
                ));
            }
            if progress.effectiveness.len() != group.cells.len() {
                return Err(format!(
                    "checkpoint group for target {} has {} effectiveness sums for {} cells",
                    group.target.id,
                    progress.effectiveness.len(),
                    group.cells.len()
                ));
            }
            if progress.escalations > 0 && !self.escalation {
                return Err(format!(
                    "checkpoint group for target {} records escalations on a \
                     non-escalating matrix",
                    group.target.id
                ));
            }
        }
        Ok(())
    }

    /// Split the matrix into one single-group sub-matrix per target, in
    /// group discovery order.  Each sub-matrix carries the same seed,
    /// budget and configuration, so its work units draw the *identical*
    /// seeds the full matrix would schedule for that group (a unit's seed
    /// depends only on the matrix seed, the target id and the stream
    /// index) — sub-runs are relocatable across hosts by construction.
    /// Drive them independently (possibly on different machines), then
    /// recombine their checkpoints with [`Self::merge_checkpoints`] and
    /// resume and finish the merged run once.
    pub fn group_matrices(&self) -> Vec<CampaignMatrix> {
        self.groups()
            .into_iter()
            .map(|group| {
                let mut sub = self.clone();
                sub.cells = group.cells.iter().map(|&i| self.cells[i].clone()).collect();
                sub
            })
            .collect()
    }

    /// A checkpoint of this matrix carrying the given progress.
    fn checkpoint_with(
        &self,
        wave: usize,
        cells: Vec<Option<CellProgress>>,
        groups: Vec<GroupProgress>,
    ) -> MatrixCheckpoint {
        MatrixCheckpoint {
            wave,
            seed: self.seed,
            budget: self.budget,
            round_size: self.round_size,
            escalation: self.escalation,
            config_digest: self.config_digest(),
            cells,
            groups,
        }
    }

    /// The checkpoint of a run that has not stepped yet: wave 0, no
    /// progress.  [`Self::start`] adopts it as the run's state; its
    /// `groups` name the matrix's target groups in discovery order.
    pub fn initial_checkpoint(&self) -> MatrixCheckpoint {
        let groups = self
            .groups()
            .iter()
            .map(|g| GroupProgress {
                target_id: g.target.id,
                next_index: 0,
                test_cases: 0,
                filtered: 0,
                total_inputs: 0,
                effectiveness: vec![EffectivenessStats::default(); g.cells.len()],
                round: 0,
                work: Duration::ZERO,
                escalations: 0,
                coverage_level: 1,
                round_improved: false,
                coverage: PatternCoverage::new(),
            })
            .collect();
        self.checkpoint_with(0, vec![None; self.cells.len()], groups)
    }

    /// Split a full-matrix checkpoint into one single-group checkpoint per
    /// target, each resumable on the corresponding [`Self::group_matrices`]
    /// sub-matrix: the group's finished cells (`cells`) and its stream
    /// progress (`groups`) move unchanged.  A sub-checkpoint's `wave` is
    /// its group's completed round count — exactly the wave count a
    /// standalone single-group run would have reached, since every wave of
    /// a single-group run is one round of its only group.
    ///
    /// # Errors
    /// Returns a message when the checkpoint does not match this matrix
    /// (same validation as [`Self::resume`]).
    pub fn split_checkpoint(
        &self,
        checkpoint: &MatrixCheckpoint,
    ) -> Result<Vec<MatrixCheckpoint>, String> {
        self.check_checkpoint(checkpoint)?;
        Ok(self
            .groups()
            .iter()
            .zip(self.group_matrices())
            .zip(&checkpoint.groups)
            .map(|((group, sub), progress)| {
                let cells = group.cells.iter().map(|&i| checkpoint.cells[i].clone()).collect();
                sub.checkpoint_with(progress.round, cells, vec![progress.clone()])
            })
            .collect())
    }

    /// Merge per-group sub-checkpoints (one per [`Self::group_matrices`]
    /// sub-matrix, in group order) back into a full-matrix checkpoint
    /// resumable on this matrix.  The merged `wave` is the sum of the
    /// sub-run waves (purely informational, like the field itself).
    /// Inverse of [`Self::split_checkpoint`]; sub-runs may have progressed
    /// unevenly in between.  Finished sub-runs merge into a finished run:
    /// resuming the merged checkpoint and finishing it yields the full
    /// matrix's report.
    ///
    /// # Errors
    /// Returns a message when the parts do not match this matrix's groups.
    pub fn merge_checkpoints(
        &self,
        parts: &[MatrixCheckpoint],
    ) -> Result<MatrixCheckpoint, String> {
        let groups = self.groups();
        if parts.len() != groups.len() {
            return Err(format!(
                "{} sub-checkpoints for a matrix with {} groups",
                parts.len(),
                groups.len()
            ));
        }
        let mut cells: Vec<Option<CellProgress>> = vec![None; self.cells.len()];
        let mut progress = Vec::with_capacity(parts.len());
        for ((group, sub), part) in groups.iter().zip(self.group_matrices()).zip(parts) {
            sub.check_checkpoint(part)
                .map_err(|e| format!("sub-checkpoint for target {}: {e}", group.target.id))?;
            progress.push(part.groups[0].clone());
            for (&full_idx, cell) in group.cells.iter().zip(&part.cells) {
                cells[full_idx] = cell.clone();
            }
        }
        Ok(self.checkpoint_with(parts.iter().map(|p| p.wave).sum(), cells, progress))
    }

    /// Run the matrix.
    pub fn run(&self) -> MatrixReport {
        self.run_with_observer(&mut NoopObserver)
    }

    /// Run the matrix, reporting live progress (completed rounds per cell
    /// group, finished cells) to `observer`.  Events are delivered from the
    /// driving thread in deterministic order and do not affect results.
    pub fn run_with_observer(&self, observer: &mut dyn ProgressObserver) -> MatrixReport {
        let mut run = self.start();
        while run.step(observer) {}
        run.finish(observer)
    }
}

/// A cell group: one target's shared test-case stream and the cells riding
/// it.  Everything here follows from the matrix except the generator,
/// which escalation grows; a group's progress lives in the run's
/// checkpoint.
struct Group {
    target: Target,
    /// Full-matrix indices of the group's cells, in insertion order.
    cells: Vec<usize>,
    /// Group-local generator configuration (grown by escalation).
    generator: GeneratorConfig,
}

impl Group {
    /// Positions (within the group) of the cells that have not finished.
    fn open_cells(&self, cells: &[Option<CellProgress>]) -> Vec<usize> {
        (0..self.cells.len()).filter(|&k| cells[self.cells[k]].is_none()).collect()
    }
}

/// An in-flight matrix run: the incremental (and checkpoint-resumable)
/// form of [`CampaignMatrix::run`].  The run's state *is* a
/// [`MatrixCheckpoint`], which [`MatrixRun::step`] advances in place.
///
/// ```no_run
/// use revizor::orchestrator::CampaignMatrix;
/// use revizor::campaign::NoopObserver;
///
/// let matrix = CampaignMatrix::table3(3).with_budget(60);
/// let mut run = matrix.start();
/// while run.step(&mut NoopObserver) {
///     let snapshot = run.checkpoint(); // persist between waves
///     let _ = snapshot;
/// }
/// let report = run.finish(&mut NoopObserver);
/// assert_eq!(report.cells.len(), 32);
/// ```
pub struct MatrixRun<'m> {
    matrix: &'m CampaignMatrix,
    groups: Vec<Group>,
    /// All progress: stream positions, counters, coverage and finished
    /// cells.
    state: MatrixCheckpoint,
    /// The calling thread and `parallelism − 1` helpers, each with its own
    /// resident [`UnitContext`].
    workers: Workers<UnitJob>,
    /// Per group, its next round if that is already queued ahead on the
    /// workers.  A cache, not state: a checkpoint never records it.
    ahead: Vec<Option<Round>>,
    start: Instant,
}

impl<'m> MatrixRun<'m> {
    /// A run whose state is `state`, already validated against `matrix`.
    fn adopt(matrix: &'m CampaignMatrix, state: MatrixCheckpoint) -> MatrixRun<'m> {
        let mut groups = matrix.groups();
        for (group, progress) in groups.iter_mut().zip(&state.groups) {
            // `GeneratorConfig::escalate` is a pure function of the
            // configuration that reaches a fixed point at its caps, so
            // replaying it until then recovers the exact generator the
            // checkpointed run had reached, in a bounded number of steps
            // whatever the recorded count.
            for _ in 0..progress.escalations {
                let before = group.generator.clone();
                group.generator.escalate();
                if group.generator == before {
                    break;
                }
            }
        }
        let cpus: Arc<[SpecCpu]> = groups.iter().map(|g| g.target.cpu()).collect();
        let job = UnitJob { cpus, escalation: matrix.escalation };
        let workers = Workers::new(job, matrix.parallelism);
        let ahead = groups.iter().map(|_| None).collect();
        MatrixRun { matrix, groups, state, workers, ahead, start: Instant::now() }
    }

    /// Completed scheduling waves: [`MatrixRun::step`] calls that found
    /// work (resumed runs continue the interrupted run's count).
    pub fn wave(&self) -> usize {
        self.state.wave
    }

    /// Is there any unfinished cell with remaining budget?
    pub fn has_work(&self) -> bool {
        self.groups.iter().zip(&self.state.groups).any(|(g, p)| {
            p.next_index < self.matrix.budget && !g.open_cells(&self.state.cells).is_empty()
        })
    }

    /// Evaluate one scheduling wave: one round of test cases for every
    /// group that still has unfinished cells and remaining budget.  Returns
    /// `false` once no work remains (the wave was empty).
    ///
    /// Events are delivered to `observer` from the calling thread in
    /// deterministic order.
    pub fn step(&mut self, observer: &mut dyn ProgressObserver) -> bool {
        let MatrixRun { matrix, groups, state, workers, ahead, start } = self;
        let matrix = *matrix;
        let round_size = matrix.round_size.max(1);
        // Without escalation a group's next slate is this round's minus
        // the cells that close in it, and a contract's outcome does not
        // depend on the rest of the slate: the next round can start now,
        // on this slate.  Escalation may change the generator at the round
        // boundary, so escalating groups never run ahead.
        let run_ahead = !matrix.escalation && workers.helpers() > 0;

        // Build the wave: one round of work units per eligible group.  The
        // slate (and with it the per-unit work) is fixed when a round is
        // queued, which keeps results independent of scheduling.
        let mut wave: Vec<(usize, Round)> = Vec::new();
        for (gi, (group, progress)) in groups.iter().zip(&state.groups).enumerate() {
            let active = group.open_cells(&state.cells);
            if active.is_empty() || progress.next_index >= matrix.budget {
                continue;
            }
            let spec = Arc::new(matrix.slate_spec(group, &active));
            let seeds = |indices: Range<usize>| {
                indices.map(|index| unit_seed(matrix.seed, group.target.id, index))
            };
            let end = (progress.next_index + round_size).min(matrix.budget);
            let round = match ahead[gi].take() {
                Some(round) => round,
                None => {
                    let units = seeds(progress.next_index..end);
                    Round::queue(workers, Tier::Current, gi, units, &spec, active.clone())
                }
            };
            if run_ahead && end < matrix.budget {
                let units = seeds(end..(end + round_size).min(matrix.budget));
                ahead[gi] = Some(Round::queue(workers, Tier::Ahead, gi, units, &spec, active));
            }
            wave.push((gi, round));
        }
        if wave.is_empty() {
            return false;
        }
        state.wave += 1;

        // Evaluate the wave on every thread of the set: each thread
        // evaluates its units on its own resident context and reduces each
        // to what the merge reads, so the rest of its memory stays with
        // that thread.  Per-unit time is recorded so cells can report
        // their group's attributed cost rather than matrix-wide wall
        // clock.
        let tickets: Vec<Range<Ticket>> = wave.iter().map(|(_, r)| r.tickets.clone()).collect();
        let mut units = workers.collect(&tickets).into_iter();

        // Merge in deterministic order: the wave lists each scheduled
        // group's units contiguously and in stream order.  A unit merges
        // with the cells of the slate it ran with: a round queued ahead
        // may still check cells that closed since, and skips them here.
        for (gi, round) in wave {
            let group = &mut groups[gi];
            let progress = &mut state.groups[gi];
            for (unit, unit_time) in units.by_ref().take(round.tickets.len()) {
                progress.next_index += 1;
                progress.work += unit_time;
                let unit = match unit {
                    // Statically leak-impossible: discarded unmeasured.
                    UnitResult::Filtered => {
                        progress.filtered += 1;
                        continue;
                    }
                    // Malformed test cases are skipped (never happens for
                    // generated code).
                    UnitResult::Faulted => continue,
                    UnitResult::Measured(unit) => unit,
                };
                progress.test_cases += 1;
                progress.total_inputs += unit.inputs;
                if let Some(class_members) = &unit.probe_members {
                    progress.round_improved |=
                        absorb_coverage(&mut progress.coverage, class_members);
                }
                for (outcome, &k) in unit.outcomes.into_iter().zip(&round.cells) {
                    let cell = &mut state.cells[group.cells[k]];
                    if cell.is_some() {
                        continue;
                    }
                    progress.effectiveness[k].merge(&outcome.stats);
                    let Some(confirmed) = outcome.confirmed else { continue };
                    let witness =
                        unit.witness.as_ref().expect("a confirmed unit keeps its test case");
                    // First confirmed violation for this cell: the cell
                    // finishes; later stream test cases no longer count
                    // toward it.
                    let contract = &matrix.cells[group.cells[k]].contract;
                    let vulnerability = classify(&group.target, contract, &witness.tc);
                    let gadget = staticanalysis::gadget_class(&witness.tc, Some(&group.target));
                    observer.cell_finished(&CellEvent {
                        target_id: group.target.id,
                        contract: contract.clone(),
                        found: true,
                        vulnerability: Some(vulnerability),
                        test_cases: progress.test_cases,
                        elapsed: start.elapsed(),
                    });
                    *cell = Some(CellProgress {
                        violation: Some(ViolationReport {
                            test_case: witness.tc.clone(),
                            inputs: witness.inputs.clone(),
                            violation: confirmed,
                            contract: contract.clone(),
                            test_case_seed: witness.seed,
                            vulnerability,
                            gadget,
                            test_cases_until_detection: progress.test_cases,
                            inputs_until_detection: progress.total_inputs,
                        }),
                        test_cases: progress.test_cases,
                        filtered: progress.filtered,
                        total_inputs: progress.total_inputs,
                        effectiveness: progress.effectiveness[k],
                        detection_time: progress.work,
                    });
                }
            }
            progress.round += 1;

            // Round boundary: diversity feedback (§5.6).  The generator is
            // escalated when the current coverage goal is met (all single
            // patterns, then all pattern pairs) or when a whole round went
            // by without improving coverage.  Only full rounds have a
            // boundary; a final partial round never escalates.
            if matrix.escalation && progress.next_index.is_multiple_of(round_size) {
                let isa = group.target.isa;
                let goal_met = match progress.coverage_level {
                    1 => progress.coverage.all_single_covered(isa),
                    _ => progress.coverage.all_pairs_covered(isa),
                };
                if goal_met || !progress.round_improved {
                    if goal_met {
                        progress.coverage_level += 1;
                    }
                    group.generator.escalate();
                    progress.escalations += 1;
                }
                progress.round_improved = false;
            }

            observer.round_completed(&RoundEvent {
                target_id: Some(group.target.id),
                round: progress.round,
                test_cases: progress.test_cases,
                filtered: progress.filtered,
                escalations: progress.escalations,
            });

            // A group whose cells all closed drops the round it queued
            // ahead: those units are never merged or counted.
            if group.open_cells(&state.cells).is_empty() {
                if let Some(stale) = ahead[gi].take() {
                    workers.cancel(stale.tickets);
                }
            }
        }
        true
    }

    /// Snapshot the run's progress for later [`CampaignMatrix::resume`]:
    /// a copy of the run's state.
    pub fn checkpoint(&self) -> MatrixCheckpoint {
        self.state.clone()
    }

    /// Close the run and assemble the report from its state.  Cells still
    /// open (budget exhausted, or the run was abandoned early) are
    /// reported without a violation, with a `cell_finished` event each.
    pub fn finish(self, observer: &mut dyn ProgressObserver) -> MatrixReport {
        let MatrixRun { matrix, groups, state, start, .. } = self;
        let mut finished = state.cells;
        let mut slots: Vec<Option<CellReport>> = vec![None; matrix.cells.len()];
        for (group, progress) in groups.iter().zip(&state.groups) {
            for (k, &idx) in group.cells.iter().enumerate() {
                let contract = matrix.cells[idx].contract.clone();
                let cell = finished[idx].take().unwrap_or_else(|| {
                    observer.cell_finished(&CellEvent {
                        target_id: group.target.id,
                        contract: contract.clone(),
                        found: false,
                        vulnerability: None,
                        test_cases: progress.test_cases,
                        elapsed: start.elapsed(),
                    });
                    CellProgress {
                        violation: None,
                        test_cases: progress.test_cases,
                        filtered: progress.filtered,
                        total_inputs: progress.total_inputs,
                        effectiveness: progress.effectiveness[k],
                        detection_time: progress.work,
                    }
                });
                slots[idx] = Some(CellReport {
                    target: group.target.clone(),
                    contract,
                    violation: cell.violation,
                    test_cases: cell.test_cases,
                    filtered: cell.filtered,
                    total_inputs: cell.total_inputs,
                    effectiveness: cell.effectiveness,
                    detection_time: cell.detection_time,
                });
            }
        }
        MatrixReport {
            cells: slots.into_iter().map(|s| s.expect("every cell closed")).collect(),
            seed: matrix.seed,
            test_cases: state.groups.iter().map(|g| g.test_cases).sum(),
            generated: state.groups.iter().map(|g| g.next_index).sum(),
            statically_filtered: state.groups.iter().map(|g| g.filtered).sum(),
            duration: start.elapsed(),
        }
    }
}

/// A work unit: one seed of a group's stream and the slate it runs with.
struct Unit {
    group: usize,
    seed: u64,
    spec: Arc<SlateSpec>,
}

/// A round of a group's stream queued on the workers.
struct Round {
    /// Its units' tickets, in stream order.
    tickets: Range<Ticket>,
    /// Group positions of the cells its slate checks, one per slate
    /// contract (the coverage probe aside).
    cells: Vec<usize>,
}

impl Round {
    /// Queue the units of `seeds` of group `group` in `tier`, on the slate
    /// `spec` for `cells`.
    fn queue(
        workers: &mut Workers<UnitJob>,
        tier: Tier,
        group: usize,
        seeds: impl Iterator<Item = u64>,
        spec: &Arc<SlateSpec>,
        cells: Vec<usize>,
    ) -> Round {
        let units = seeds.map(|seed| Unit { group, seed, spec: Arc::clone(spec) });
        Round { tickets: workers.submit(tier, units), cells }
    }
}

/// How the matrix's threads evaluate a [`Unit`]: on their resident
/// [`UnitContext`], reduced to a [`UnitResult`] and timed.
struct UnitJob {
    /// The cell groups' CPU templates, built once per run.
    cpus: Arc<[SpecCpu]>,
    escalation: bool,
}

impl Job for UnitJob {
    type Task = Unit;
    type Output = (UnitResult, Duration);
    type Context = UnitContext<SpecCpu>;

    fn context(&self) -> UnitContext<SpecCpu> {
        UnitContext::new(Arc::clone(&self.cpus))
    }

    fn run(&self, context: &mut UnitContext<SpecCpu>, unit: Unit) -> (UnitResult, Duration) {
        let t0 = Instant::now();
        // Build only the class members the reduction keeps.
        let members = if self.escalation { ClassMembers::Last } else { ClassMembers::None };
        let eval = context.evaluate_with(unit.group, &unit.spec, unit.seed, members);
        (UnitResult::reduce(eval, self.escalation, context), t0.elapsed())
    }
}

/// What the merge of [`MatrixRun::step`] reads of one evaluated work unit.
/// The worker that evaluated the unit builds it from the unit's
/// [`SeedEval`], hands the input batch back to its context and drops the
/// rest there.
enum UnitResult {
    /// See [`SeedEval::Filtered`].
    Filtered,
    /// See [`SeedEval::Faulted`].
    Faulted,
    /// A measured test case.
    Measured(MeasuredUnit),
}

/// The merged part of a measured unit.
struct MeasuredUnit {
    /// Inputs the test case ran.
    inputs: usize,
    /// One entry per slate contract, the coverage probe excluded.
    outcomes: Vec<OutcomeResult>,
    /// The coverage probe's effective-class members, with escalation on.
    probe_members: Option<Vec<Vec<ExecutionInfo>>>,
    /// The test case, kept only when some slate contract confirmed a
    /// violation on it.
    witness: Option<Witness>,
}

/// What the merge reads of one [`ContractOutcome`](campaign::ContractOutcome).
struct OutcomeResult {
    stats: EffectivenessStats,
    confirmed: Option<Violation>,
}

/// The test case a confirmed violation reproduces from.
struct Witness {
    seed: u64,
    tc: TestCase,
    inputs: Vec<Input>,
}

impl UnitResult {
    /// Keep what the merge reads of `eval`, and give its input batch back
    /// to `context` unless a confirmed violation needs it.  With
    /// `escalation` on, the slate's last contract is the coverage probe.
    fn reduce(eval: SeedEval, escalation: bool, context: &mut UnitContext<SpecCpu>) -> UnitResult {
        let unit = match eval {
            SeedEval::Filtered => return UnitResult::Filtered,
            SeedEval::Faulted => return UnitResult::Faulted,
            SeedEval::Measured(unit) => *unit,
        };
        let SlateUnit { seed, tc, inputs, mut outcomes } = unit;
        let probe_members = escalation.then(|| {
            outcomes.pop().expect("probe contract scheduled").class_members
        });
        let outcomes: Vec<OutcomeResult> = outcomes
            .into_iter()
            .map(|o| OutcomeResult { stats: o.analysis.stats, confirmed: o.confirmed_violation })
            .collect();
        let confirmed = outcomes.iter().any(|o| o.confirmed.is_some());
        let count = inputs.len();
        let witness = if confirmed {
            Some(Witness { seed, tc, inputs })
        } else {
            context.recycle(inputs);
            None
        };
        UnitResult::Measured(MeasuredUnit { inputs: count, outcomes, probe_members, witness })
    }
}

/// Feed one test case's effective-class execution metadata into a coverage
/// accumulator; returns whether coverage improved.
fn absorb_coverage(coverage: &mut PatternCoverage, class_members: &[Vec<ExecutionInfo>]) -> bool {
    let member_refs: Vec<Vec<&ExecutionInfo>> =
        class_members.iter().map(|c| c.iter().collect()).collect();
    coverage.update(&member_refs)
}

/// The campaign seed of one (target, test-case index) work unit: a
/// splitmix64-style mix of the matrix seed, the target id and the index.
/// Streams are deterministic per target regardless of `parallelism` and of
/// which other cells are in the matrix.
fn unit_seed(matrix_seed: u64, target_id: u8, index: usize) -> u64 {
    let mut x = matrix_seed
        ^ u64::from(target_id).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (index as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix(parallelism: usize) -> CampaignMatrix {
        CampaignMatrix::new(7)
            .with_budget(60)
            .with_parallelism(parallelism)
            .add_cells(Target::target5(), Contract::table3_contracts())
    }

    /// Everything except the wall-clock fields.
    fn verdicts(report: &MatrixReport) -> Vec<(u8, String, Option<u64>, usize, usize)> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.target.id,
                    c.contract.name(),
                    c.violation.as_ref().map(|v| v.test_case_seed),
                    c.test_cases,
                    c.total_inputs,
                )
            })
            .collect()
    }

    #[test]
    fn table3_matrix_has_32_cells() {
        let m = CampaignMatrix::table3(3);
        assert_eq!(m.cells().len(), 32);
    }

    #[test]
    fn target5_group_reproduces_its_table3_row() {
        let report = small_matrix(1).run();
        assert!(report.cell(5, &Contract::ct_seq()).unwrap().found(), "V1 violates CT-SEQ");
        assert!(report.cell(5, &Contract::ct_bpas()).unwrap().found(), "V1 violates CT-BPAS");
        assert!(!report.cell(5, &Contract::ct_cond()).unwrap().found());
        assert!(!report.cell(5, &Contract::ct_cond_bpas()).unwrap().found());
        let v = report.cell(5, &Contract::ct_seq()).unwrap().violation.as_ref().unwrap();
        assert_eq!(v.vulnerability, VulnClass::SpectreV1);
        // The four cells share one stream: the group's measurement count is
        // the longest cell's, not the sum.
        assert_eq!(report.test_cases, 60);
    }

    /// Two groups at seed 3: target 5's CT-SEQ cell closes at test case
    /// 12 and its CT-BPAS cell at 23, both mid-round, while target 1 runs
    /// its whole budget.  With helpers, target 5's round queued ahead of
    /// round 3 still checks the closed CT-SEQ cell, and the round queued
    /// ahead of round 4 goes stale.
    fn closing_matrix(parallelism: usize) -> CampaignMatrix {
        CampaignMatrix::new(3)
            .with_budget(60)
            .with_parallelism(parallelism)
            .add_cells(Target::target5(), [Contract::ct_seq(), Contract::ct_bpas()])
            .add_cell(Target::target1(), Contract::ct_seq())
    }

    #[test]
    fn matrix_results_are_parallelism_invariant() {
        let sequential = closing_matrix(1).run();
        let closed_at = |contract| sequential.cell(5, &contract).map(|c| c.test_cases);
        assert_eq!(closed_at(Contract::ct_seq()), Some(12));
        assert_eq!(closed_at(Contract::ct_bpas()), Some(23));
        for parallelism in [2usize, 3, 4] {
            let parallel = closing_matrix(parallelism).run();
            assert_eq!(full_cells(&sequential), full_cells(&parallel), "parallelism {parallelism}");
            assert_eq!(
                (sequential.test_cases, sequential.generated, sequential.statically_filtered),
                (parallel.test_cases, parallel.generated, parallel.statically_filtered),
                "parallelism {parallelism}"
            );
        }
    }

    /// Every field of every cell except the wall-clock `detection_time`,
    /// violation reports in full.
    type FullCell = (u8, Contract, Option<ViolationReport>, usize, usize, usize, EffectivenessStats);

    fn full_cells(report: &MatrixReport) -> Vec<FullCell> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.target.id,
                    c.contract.clone(),
                    c.violation.clone(),
                    c.test_cases,
                    c.filtered,
                    c.total_inputs,
                    c.effectiveness,
                )
            })
            .collect()
    }

    #[test]
    fn worker_side_reduction_keeps_full_reports() {
        // Workers hand the driving thread only what the merge reads; the
        // violation reports (test case, inputs, seed) must still come out
        // whole, whichever thread evaluated the violating unit.
        let run = |parallelism| {
            CampaignMatrix::table3(30).with_budget(40).with_parallelism(parallelism).run()
        };
        let sequential = run(1);
        let parallel = run(4);
        let found = sequential.cells.iter().filter(|c| c.found()).count();
        assert!(found >= 8, "only {found} cells found a violation: too few to compare reports");
        assert_eq!(full_cells(&sequential), full_cells(&parallel));
        assert_eq!(
            (sequential.test_cases, sequential.generated, sequential.statically_filtered),
            (parallel.test_cases, parallel.generated, parallel.statically_filtered)
        );
    }

    #[test]
    fn cell_verdicts_are_unchanged_by_unrelated_cells() {
        let alone = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        // Add cells of another target *and* more contracts of the same
        // target: neither may change the CT-SEQ cell's verdict.
        let crowded = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .add_cell(Target::target1(), Contract::ct_seq())
            .add_cells(Target::target5(), [Contract::ct_cond(), Contract::ct_bpas()])
            .run();
        let a = alone.cell(5, &Contract::ct_seq()).unwrap();
        let b = crowded.cell(5, &Contract::ct_seq()).unwrap();
        assert_eq!(a.found(), b.found());
        assert_eq!(a.test_cases, b.test_cases);
        assert_eq!(a.total_inputs, b.total_inputs);
        assert_eq!(
            a.violation.as_ref().map(|v| v.test_case_seed),
            b.violation.as_ref().map(|v| v.test_case_seed)
        );
    }

    #[test]
    fn speculation_filter_preserves_verdicts_and_reduces_measurements() {
        // The filter is sound: every violating cell keeps the exact same
        // violation (same seed, same counterexample), only the number of
        // *measured* test cases shrinks.  Target 1 generates AR-only
        // programs, which can never speculatively leak — its whole stream
        // is filtered.
        let build = |filter: bool| {
            CampaignMatrix::new(7)
                .with_budget(60)
                .add_cells(Target::target5(), Contract::table3_contracts())
                .add_cell(Target::target1(), Contract::ct_seq())
                .with_speculation_filter(filter)
                .run()
        };
        let unfiltered = build(false);
        let filtered = build(true);
        assert_eq!(unfiltered.statically_filtered, 0);
        assert!(filtered.statically_filtered > 0, "some test cases must be filtered");
        assert_eq!(unfiltered.generated, unfiltered.test_cases);
        assert_eq!(filtered.test_cases + filtered.statically_filtered, filtered.generated);

        for (a, b) in unfiltered.cells.iter().zip(&filtered.cells) {
            let cell = format!("target {} × {}", a.target.id, a.contract.name());
            assert_eq!(a.found(), b.found(), "{cell}: verdict must not change");
            assert!(b.test_cases <= a.test_cases, "{cell}: filtering cannot measure more");
            match (&a.violation, &b.violation) {
                (None, None) => {}
                (Some(va), Some(vb)) => {
                    // The counterexample itself is byte-identical; only the
                    // measured-work counters may shrink.
                    assert_eq!(va.test_case_seed, vb.test_case_seed, "{cell}");
                    assert_eq!(va.test_case, vb.test_case, "{cell}");
                    assert_eq!(va.inputs, vb.inputs, "{cell}");
                    assert_eq!(va.violation, vb.violation, "{cell}");
                    assert_eq!(va.vulnerability, vb.vulnerability, "{cell}");
                    assert_eq!(va.gadget, vb.gadget, "{cell}");
                    assert!(vb.test_cases_until_detection <= va.test_cases_until_detection);
                }
                _ => panic!("{cell}: verdicts diverged"),
            }
        }

        // The AR-only target shows the full reduction: nothing is measured.
        let t1 = filtered.cell(1, &Contract::ct_seq()).unwrap();
        assert_eq!(t1.test_cases, 0, "AR-only programs are all statically leak-impossible");
        assert_eq!(t1.filtered, 60);
        // And at least one *violating* cell measured strictly less.
        let a = unfiltered.cell(5, &Contract::ct_seq()).unwrap();
        let b = filtered.cell(5, &Contract::ct_seq()).unwrap();
        assert!(b.found());
        assert!(
            b.test_cases < a.test_cases || b.filtered > 0,
            "the violating group must show a measured reduction"
        );
    }

    #[test]
    fn observer_sees_rounds_and_cells() {
        struct Recorder {
            rounds: usize,
            cells: Vec<(u8, String, bool)>,
        }
        impl ProgressObserver for Recorder {
            fn round_completed(&mut self, _event: &RoundEvent) {
                self.rounds += 1;
            }
            fn cell_finished(&mut self, event: &CellEvent) {
                self.cells.push((event.target_id, event.contract.name(), event.found));
            }
        }
        let mut rec = Recorder { rounds: 0, cells: Vec::new() };
        let report = small_matrix(1).run_with_observer(&mut rec);
        assert!(rec.rounds >= 1);
        assert_eq!(rec.cells.len(), report.cells.len());
        assert_eq!(rec.cells.iter().filter(|(_, _, found)| *found).count(), 2);
    }

    #[test]
    fn empty_matrix_finishes_immediately() {
        let report = CampaignMatrix::new(1).run();
        assert!(report.cells.is_empty());
        assert_eq!(report.test_cases, 0);
    }

    #[test]
    fn unit_seed_streams_are_target_scoped() {
        // Different targets draw from disjoint-looking streams; the same
        // (target, index) always maps to the same seed.
        assert_eq!(unit_seed(3, 5, 0), unit_seed(3, 5, 0));
        assert_ne!(unit_seed(3, 5, 0), unit_seed(3, 5, 1));
        assert_ne!(unit_seed(3, 5, 0), unit_seed(3, 4, 0));
        assert_ne!(unit_seed(3, 5, 0), unit_seed(4, 5, 0));
    }

    #[test]
    fn stepped_run_matches_one_shot_run() {
        let matrix = small_matrix(1);
        let one_shot = matrix.run();
        let mut run = matrix.start();
        let mut waves = 0;
        while run.step(&mut NoopObserver) {
            waves += 1;
        }
        let stepped = run.finish(&mut NoopObserver);
        assert!(waves >= 2, "budget 60 / round 10 must take several waves");
        assert_eq!(verdicts(&one_shot), verdicts(&stepped));
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_wave_boundary() {
        // Interrupt the matrix after each wave in turn; the resumed run
        // must reproduce the uninterrupted verdicts exactly — including the
        // full violation reports.  Resuming any wave's checkpoint adopts it
        // unchanged.
        for parallelism in [1usize, 4] {
            let matrix = CampaignMatrix::new(7)
                .with_budget(40)
                .with_parallelism(parallelism)
                .add_cells(Target::target5(), Contract::table3_contracts())
                .add_cell(Target::target1(), Contract::ct_seq());
            let baseline = matrix.run();
            for interrupt_after in 1..=3usize {
                let mut run = matrix.start();
                for _ in 0..interrupt_after {
                    run.step(&mut NoopObserver);
                    assert_resume_adopts(&matrix, &run.checkpoint());
                }
                let snapshot = run.checkpoint();
                drop(run); // the "kill"

                let mut resumed = matrix.resume(&snapshot).expect("checkpoint matches");
                while resumed.step(&mut NoopObserver) {
                    assert_resume_adopts(&matrix, &resumed.checkpoint());
                }
                let report = resumed.finish(&mut NoopObserver);
                assert_eq!(
                    verdicts(&baseline),
                    verdicts(&report),
                    "parallelism {parallelism}, interrupted after {interrupt_after}"
                );
                for (a, b) in baseline.cells.iter().zip(&report.cells) {
                    assert_eq!(a.violation, b.violation, "violation reports must match exactly");
                }
            }
        }
    }

    /// `resume` adopts a checkpoint unchanged: the resumed run's state is
    /// the checkpoint it was given.
    fn assert_resume_adopts(matrix: &CampaignMatrix, cp: &MatrixCheckpoint) {
        let resumed = matrix.resume(cp).expect("checkpoint matches");
        assert!(resumed.checkpoint() == *cp, "resume must adopt wave {} unchanged", cp.wave);
    }

    #[test]
    fn wave_counter_advances_per_step_and_survives_resume() {
        let matrix = small_matrix(1);
        let mut run = matrix.start();
        assert_eq!(run.wave(), 0);
        assert!(run.step(&mut NoopObserver));
        assert!(run.step(&mut NoopObserver));
        assert_eq!(run.wave(), 2);
        let snapshot = run.checkpoint();
        assert_eq!(snapshot.wave, 2);
        drop(run);
        let mut resumed = matrix.resume(&snapshot).expect("checkpoint matches");
        assert_eq!(resumed.wave(), 2);
        if resumed.step(&mut NoopObserver) {
            assert_eq!(resumed.wave(), 3, "a resumed run continues the wave count");
        }
    }

    #[test]
    fn checkpoint_digest_is_stable_and_sensitive() {
        let matrix = small_matrix(1);
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        let snapshot = run.checkpoint();
        // Stable: digesting the same (or a cloned) snapshot agrees.
        assert_eq!(snapshot.digest(), snapshot.digest());
        assert_eq!(snapshot.digest(), snapshot.clone().digest());
        // Sensitive: any field change (here: progress counters, the wave,
        // the seed) moves the digest.
        let mut other = snapshot.clone();
        other.wave += 1;
        assert_ne!(snapshot.digest(), other.digest());
        let mut other = snapshot.clone();
        other.seed ^= 1;
        assert_ne!(snapshot.digest(), other.digest());
        let mut other = snapshot.clone();
        other.groups[0].next_index += 1;
        assert_ne!(snapshot.digest(), other.digest());
        // A later wave of the same run digests differently too.
        let mut run = matrix.resume(&snapshot).expect("resumes");
        run.step(&mut NoopObserver);
        assert_ne!(snapshot.digest(), run.checkpoint().digest());
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let matrix = small_matrix(1);
        let snapshot = matrix.start().checkpoint();
        assert!(matrix.resume(&snapshot).is_ok());
        let err = match small_matrix(1).with_budget(30).resume(&snapshot) {
            Err(e) => e,
            Ok(_) => panic!("mismatched budget must be rejected"),
        };
        assert!(err.contains("budget"), "{err}");
        let other_seed = CampaignMatrix::new(8)
            .with_budget(60)
            .add_cells(Target::target5(), Contract::table3_contracts());
        assert!(other_seed.resume(&snapshot).is_err());
        let fewer_cells = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq());
        assert!(fewer_cells.resume(&snapshot).is_err());
        let escalating = small_matrix(1).with_escalation(true);
        assert!(escalating.resume(&snapshot).is_err());
        // Same seed/budget/cell count, different stream-relevant knobs:
        // the configuration digest must catch each.
        assert!(small_matrix(1).with_generator_size(5, 14).resume(&snapshot).is_err());
        assert!(small_matrix(1).with_inputs_per_test_case(10).resume(&snapshot).is_err());
        // The pre-filter changes which seeds are measured, so an
        // unfiltered checkpoint must not resume on a filtering matrix.
        assert!(small_matrix(1).with_speculation_filter(true).resume(&snapshot).is_err());
        let swapped_contract = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cells(
                Target::target5(),
                [
                    Contract::ct_seq(),
                    Contract::ct_bpas(),
                    Contract::ct_cond(),
                    Contract::arch_seq(), // last contract differs
                ],
            );
        assert!(swapped_contract.resume(&snapshot).is_err());
        // Every checkpoint carries one effectiveness sum per group cell;
        // any other length is malformed, not an older format.
        let mut malformed = snapshot.clone();
        malformed.groups[0].effectiveness.pop();
        let err = match matrix.resume(&malformed) {
            Err(e) => e,
            Ok(_) => panic!("a short effectiveness list must be rejected"),
        };
        assert!(err.contains("effectiveness"), "{err}");
        malformed.groups[0].effectiveness.clear();
        assert!(matrix.resume(&malformed).is_err());
        assert!(matrix.split_checkpoint(&malformed).is_err());
        // A non-escalating matrix never escalates, so any recorded
        // escalation (a bounded or a hostile count) is malformed.
        for escalations in [1, usize::MAX] {
            let mut escalated = snapshot.clone();
            escalated.groups[0].escalations = escalations;
            let err = match matrix.resume(&escalated) {
                Err(e) => e,
                Ok(_) => panic!("escalations on a non-escalating matrix must be rejected"),
            };
            assert!(err.contains("escalations"), "{err}");
        }
    }

    #[test]
    fn partial_final_round_is_counted_without_escalation() {
        // Budget 10 with rounds of 4 runs rounds of 4, 4 and 2 test cases:
        // the final partial round counts toward `round` but has no
        // boundary, so it never escalates the generator.
        let final_progress = |budget: usize| {
            let matrix = CampaignMatrix::new(1)
                .with_budget(budget)
                .with_round_size(4)
                .with_escalation(true)
                .add_cell(Target::target1(), Contract::ct_seq());
            let mut run = matrix.start();
            while run.step(&mut NoopObserver) {}
            run.checkpoint().groups.remove(0)
        };
        let full = final_progress(8);
        let partial = final_progress(10);
        assert_eq!(full.round, 2);
        assert_eq!(partial.test_cases, 10);
        assert_eq!(partial.round, 3, "the final partial round must be counted");
        assert_eq!(
            partial.escalations, full.escalations,
            "a partial round has no boundary and must not escalate"
        );
        // A zero round size is clamped to 1, so the loop cannot stall.
        assert_eq!(CampaignMatrix::new(1).with_round_size(0).initial_checkpoint().round_size, 1);
    }

    /// Observer that records the escalation counter of every round event.
    struct EscalationRecorder(Vec<usize>);
    impl ProgressObserver for EscalationRecorder {
        fn round_completed(&mut self, event: &RoundEvent) {
            self.0.push(event.escalations);
        }
    }

    #[test]
    fn round_events_report_the_true_escalation_count() {
        // Without escalation the count is genuinely zero; with escalation
        // an AR-only target (whose coverage goal saturates almost
        // immediately) escalates within a few rounds, and the counter is
        // monotone.
        let fixed = CampaignMatrix::new(3)
            .with_budget(40)
            .add_cell(Target::target1(), Contract::ct_seq());
        let mut rec = EscalationRecorder(Vec::new());
        fixed.run_with_observer(&mut rec);
        assert!(!rec.0.is_empty() && rec.0.iter().all(|&e| e == 0));

        let escalating = fixed.clone().with_escalation(true);
        let mut rec = EscalationRecorder(Vec::new());
        escalating.run_with_observer(&mut rec);
        assert!(rec.0.windows(2).all(|w| w[0] <= w[1]), "monotone: {:?}", rec.0);
        assert!(
            *rec.0.last().unwrap() > 0,
            "AR coverage saturates, so the group must escalate: {:?}",
            rec.0
        );
    }

    #[test]
    fn escalating_matrix_is_parallelism_and_composition_invariant() {
        // The coverage probe makes escalation a function of the target
        // stream alone: verdicts stay identical across worker-pool sizes
        // and when unrelated cells join the matrix.
        let build = |parallelism: usize| {
            CampaignMatrix::new(7)
                .with_budget(60)
                .with_escalation(true)
                .with_parallelism(parallelism)
                .add_cells(Target::target5(), Contract::table3_contracts())
        };
        let sequential = build(1).run();
        for parallelism in [2usize, 4] {
            assert_eq!(
                verdicts(&sequential),
                verdicts(&build(parallelism).run()),
                "parallelism {parallelism}"
            );
        }

        let alone = CampaignMatrix::new(7)
            .with_budget(60)
            .with_escalation(true)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        let crowded = CampaignMatrix::new(7)
            .with_budget(60)
            .with_escalation(true)
            .add_cell(Target::target5(), Contract::ct_seq())
            .add_cell(Target::target1(), Contract::ct_seq())
            .add_cells(Target::target5(), [Contract::ct_cond(), Contract::ct_bpas()])
            .run();
        let a = alone.cell(5, &Contract::ct_seq()).unwrap();
        let b = crowded.cell(5, &Contract::ct_seq()).unwrap();
        assert_eq!(a.found(), b.found());
        assert_eq!(a.test_cases, b.test_cases);
        assert_eq!(
            a.violation.as_ref().map(|v| v.test_case_seed),
            b.violation.as_ref().map(|v| v.test_case_seed)
        );
    }

    /// Two groups with different stream lengths: target 5 finds violations
    /// early, target 1 runs its whole budget.
    fn two_group_matrix() -> CampaignMatrix {
        CampaignMatrix::new(7)
            .with_budget(40)
            .add_cells(Target::target5(), Contract::table3_contracts())
            .add_cell(Target::target1(), Contract::ct_seq())
    }

    #[test]
    fn groups_follow_cell_discovery_order() {
        let matrix = CampaignMatrix::new(1)
            .add_cell(Target::target5(), Contract::ct_seq())
            .add_cell(Target::target1(), Contract::ct_seq())
            .add_cell(Target::target5(), Contract::ct_bpas())
            .add_cell(Target::target4(), Contract::ct_seq());
        let targets: Vec<u8> =
            matrix.initial_checkpoint().groups.iter().map(|g| g.target_id).collect();
        assert_eq!(targets, vec![5, 1, 4]);
        // The sub-matrix split follows the same order.
        let sub_targets: Vec<u8> =
            matrix.group_matrices().iter().map(|m| m.cells()[0].target.id).collect();
        assert_eq!(targets, sub_targets);
    }

    #[test]
    fn initial_checkpoint_matches_an_unstepped_run() {
        let matrix = two_group_matrix();
        let fresh = matrix.start().checkpoint();
        assert_eq!(matrix.initial_checkpoint(), fresh);
        assert_eq!(matrix.initial_checkpoint().digest(), fresh.digest());
    }

    #[test]
    fn independently_driven_sub_runs_merge_into_the_exact_full_report() {
        let matrix = two_group_matrix();
        let baseline = matrix.run();

        // Drive each group on its own sub-matrix — as different fleet hosts
        // would — checkpointing after every wave like the service does.
        let subs = matrix.group_matrices();
        assert_eq!(subs.len(), 2);
        let mut parts = Vec::new();
        for sub in &subs {
            let first = sub.cells()[0].target.id;
            assert!(sub.cells().iter().all(|c| c.target.id == first), "one target per sub-matrix");
            let mut run = sub.start();
            let mut last = run.checkpoint();
            while run.step(&mut NoopObserver) {
                last = run.checkpoint();
            }
            drop(run); // the host never reports a MatrixReport, only checkpoints

            // A finished sub-run's final checkpoint IS its result.
            assert!(!sub.resume(&last).expect("final checkpoint matches").has_work());
            parts.push(last);
        }

        // The final checkpoints merge into a finished full-matrix run, and
        // finishing it with zero steps reproduces the exact report.
        let merged = matrix.merge_checkpoints(&parts).expect("parts match the matrix");
        let resumed = matrix.resume(&merged).expect("merged checkpoint matches");
        assert!(!resumed.has_work());
        let merged = resumed.finish(&mut NoopObserver);
        assert_eq!(verdicts(&baseline), verdicts(&merged));
        for (a, b) in baseline.cells.iter().zip(&merged.cells) {
            assert_eq!(a.violation, b.violation, "violation reports must match exactly");
        }
        assert_eq!(baseline.test_cases, merged.test_cases);
        assert_eq!(baseline.generated, merged.generated);
    }

    #[test]
    fn split_checkpoint_relocates_groups_mid_run() {
        // Start the full matrix in-process, interrupt it mid-run, split the
        // checkpoint and finish each group on its own sub-matrix (the
        // "units stolen by other hosts" shape).  Verdicts must be
        // byte-identical to the uninterrupted run.
        let matrix = two_group_matrix();
        let baseline = matrix.run();
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        let snapshot = run.checkpoint();
        drop(run);

        let subs = matrix.group_matrices();
        let split = matrix.split_checkpoint(&snapshot).expect("checkpoint matches");
        assert_eq!(split.len(), subs.len());
        // A sub-checkpoint's wave is its group's completed round count.
        for (part, progress) in split.iter().zip(&snapshot.groups) {
            assert_eq!(part.wave, progress.round);
        }
        let mut parts = Vec::new();
        for (sub, part) in subs.iter().zip(&split) {
            let mut run = sub.resume(part).expect("sub-checkpoint matches its sub-matrix");
            while run.step(&mut NoopObserver) {}
            parts.push(run.checkpoint());
        }
        let merged = matrix.merge_checkpoints(&parts).expect("parts match the matrix");
        let merged = matrix.resume(&merged).expect("merged checkpoint matches");
        let merged = merged.finish(&mut NoopObserver);
        assert_eq!(verdicts(&baseline), verdicts(&merged));
        for (a, b) in baseline.cells.iter().zip(&merged.cells) {
            assert_eq!(a.violation, b.violation);
        }
        assert_eq!(baseline.test_cases, merged.test_cases);
        assert_eq!(baseline.generated, merged.generated);
    }

    #[test]
    fn unevenly_progressed_sub_runs_merge_into_a_resumable_checkpoint() {
        // Split a fresh matrix, advance the groups by different amounts on
        // their sub-matrices, merge the sub-checkpoints and resume the
        // merged snapshot on the FULL matrix in one process.  This is the
        // coordinator's restart path: per-unit fleet progress folds back
        // into one job-level checkpoint.
        let matrix = two_group_matrix();
        let baseline = matrix.run();

        let subs = matrix.group_matrices();
        let split = matrix.split_checkpoint(&matrix.initial_checkpoint()).expect("fresh split");
        let mut advanced = Vec::new();
        for (gi, (sub, part)) in subs.iter().zip(&split).enumerate() {
            let mut run = sub.resume(part).expect("fresh sub-checkpoint matches");
            for _ in 0..gi * 2 {
                run.step(&mut NoopObserver); // group 0: untouched; group 1: 2 waves
            }
            advanced.push(run.checkpoint());
        }
        let merged = matrix.merge_checkpoints(&advanced).expect("parts match");
        assert_eq!(merged.wave, advanced.iter().map(|p| p.wave).sum::<usize>());

        let mut resumed = matrix.resume(&merged).expect("merged checkpoint matches");
        while resumed.step(&mut NoopObserver) {}
        let report = resumed.finish(&mut NoopObserver);
        assert_eq!(verdicts(&baseline), verdicts(&report));
        for (a, b) in baseline.cells.iter().zip(&report.cells) {
            assert_eq!(a.violation, b.violation);
        }
    }

    #[test]
    fn escalating_sub_runs_split_and_merge_byte_identically() {
        // Escalation state is per group, so it relocates with the
        // sub-checkpoint: a group stolen mid-escalation replays the same
        // generator growth on the new host.
        let matrix = CampaignMatrix::new(11)
            .with_budget(40)
            .with_escalation(true)
            .add_cells(Target::target5(), Contract::table3_contracts())
            .add_cell(Target::target1(), Contract::ct_seq());
        let baseline = matrix.run();
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        let snapshot = run.checkpoint();
        drop(run);

        let subs = matrix.group_matrices();
        let split = matrix.split_checkpoint(&snapshot).expect("checkpoint matches");
        let mut parts = Vec::new();
        for (sub, part) in subs.iter().zip(&split) {
            let mut run = sub.resume(part).expect("sub-checkpoint matches");
            while run.step(&mut NoopObserver) {}
            parts.push(run.checkpoint());
        }
        // Service shape: results travel as final checkpoints, and the
        // merged checkpoint resumes-and-finishes on the full matrix.
        let merged = matrix.merge_checkpoints(&parts).expect("parts match");
        let resumed = matrix.resume(&merged).expect("merged checkpoint matches");
        assert!(!resumed.has_work());
        let report = resumed.finish(&mut NoopObserver);
        assert_eq!(verdicts(&baseline), verdicts(&report));
        for (a, b) in baseline.cells.iter().zip(&report.cells) {
            assert_eq!(a.violation, b.violation);
        }
    }

    #[test]
    fn merge_rejects_mismatched_parts() {
        let matrix = two_group_matrix();
        let split = matrix.split_checkpoint(&matrix.initial_checkpoint()).expect("fresh split");

        // Wrong order: group digests are position-sensitive.
        let swapped: Vec<MatrixCheckpoint> = split.iter().rev().cloned().collect();
        assert!(matrix.merge_checkpoints(&swapped).is_err());
        // Wrong count.
        assert!(matrix.merge_checkpoints(&split[..1]).is_err());
        // Tampered seed.
        let mut bad = split.clone();
        bad[0].seed ^= 1;
        assert!(matrix.merge_checkpoints(&bad).is_err());
        // A foreign matrix's checkpoint cannot be split.
        let other = CampaignMatrix::new(8).add_cell(Target::target5(), Contract::ct_seq());
        assert!(matrix.split_checkpoint(&other.initial_checkpoint()).is_err());
        // Valid parts round-trip.
        let merged = matrix.merge_checkpoints(&split).expect("identity round-trip");
        assert_eq!(merged, matrix.initial_checkpoint());
    }

    #[test]
    fn escalating_checkpoint_resume_is_byte_identical() {
        // Escalation state (coverage, level, generator growth) survives
        // the checkpoint: resuming mid-campaign replays the same stream,
        // and resuming any wave's checkpoint adopts it unchanged.
        for parallelism in [1usize, 4] {
            let matrix = CampaignMatrix::new(11)
                .with_budget(40)
                .with_escalation(true)
                .with_parallelism(parallelism)
                .add_cells(Target::target5(), Contract::table3_contracts());
            let baseline = matrix.run();
            let mut run = matrix.start();
            for _ in 0..2 {
                run.step(&mut NoopObserver);
                assert_resume_adopts(&matrix, &run.checkpoint());
            }
            let snapshot = run.checkpoint();
            drop(run);
            let mut resumed = matrix.resume(&snapshot).expect("checkpoint matches");
            while resumed.step(&mut NoopObserver) {
                assert_resume_adopts(&matrix, &resumed.checkpoint());
            }
            let report = resumed.finish(&mut NoopObserver);
            assert_eq!(verdicts(&baseline), verdicts(&report), "parallelism {parallelism}");
            for (a, b) in baseline.cells.iter().zip(&report.cells) {
                assert_eq!(a.violation, b.violation);
            }

            // A hostile escalation count resumes promptly: the replay
            // stops at the generator's fixed point (its caps).
            let mut saturated = snapshot.clone();
            saturated.groups[0].escalations = usize::MAX;
            let t0 = Instant::now();
            let resumed = matrix.resume(&saturated).expect("escalating matrix accepts any count");
            assert!(t0.elapsed() < Duration::from_secs(1), "replay must be bounded");
            let mut capped = matrix.base_generator(&Target::target5());
            for _ in 0..1000 {
                capped.escalate();
            }
            assert_eq!(resumed.groups[0].generator, capped);
            assert!(resumed.checkpoint() == saturated);
        }
    }
}
