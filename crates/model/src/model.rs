//! Contract-trace collection by instrumented emulation.

use crate::contract::{Contract, ExecutionClause, ObservationClause};
use crate::ctrace::{CTrace, Observation};
use rvz_emu::{Emulator, EventBuf, Fault, MemEvent, MemEventKind, Runner};
use rvz_isa::{
    BlockId, DecodedInstr, DecodedOp, DecodedProgram, DecodedTerm, DecodedTerminator, Input, Instr,
    RegSet, Terminator, TestCase,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Base virtual address of the (synthetic) code layout used for program-
/// counter observations.
pub const CODE_BASE: u64 = 0x4000;

/// Maximum architecturally executed instructions per model run.
const MAX_ARCH_STEPS: usize = 4096;

/// Classification of an executed instruction, used by the diversity
/// (pattern-coverage) analysis (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrKind {
    /// Reads memory only.
    Load,
    /// Writes memory only.
    Store,
    /// Reads and writes memory (read-modify-write).
    LoadStore,
    /// Conditional branch terminator.
    CondBranch,
    /// Unconditional direct jump terminator.
    Jump,
    /// Indirect jump, call or return terminator.
    IndirectBranch,
    /// Variable-latency instruction (division).
    VarLatency,
    /// Register-only computation.
    Alu,
    /// Serializing fence.
    Fence,
    /// Anything else (NOP, exit).
    Other,
}

/// Addresses of the memory accesses one instruction performed, stored
/// inline: an instruction produces at most three memory events (read +
/// write for read-modify-write ops, plus the stack access of `CALL`/`RET`
/// terminators is a single event), so the record stays `Copy` and the
/// collection loop never heap-allocates per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemAddrs {
    addrs: [u64; 3],
    len: u8,
}

impl MemAddrs {
    /// Addresses from a batch of memory events.
    ///
    /// # Panics
    /// Panics if more than three events are passed — the emulator never
    /// produces that many for one instruction.
    pub fn from_events(events: &[MemEvent]) -> MemAddrs {
        let mut m = MemAddrs::default();
        for ev in events {
            m.addrs[m.len as usize] = ev.addr;
            m.len += 1;
        }
        m
    }

    /// Build from a plain list of addresses (test helper).
    ///
    /// # Panics
    /// Panics if more than three addresses are passed.
    pub fn of(addrs: &[u64]) -> MemAddrs {
        let mut m = MemAddrs::default();
        for &a in addrs {
            m.addrs[m.len as usize] = a;
            m.len += 1;
        }
        m
    }

    /// The recorded addresses.
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs[..self.len as usize]
    }

    /// Whether no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether any address is shared with another record.
    pub fn intersects(&self, other: &MemAddrs) -> bool {
        self.as_slice().iter().any(|a| other.as_slice().contains(a))
    }
}

/// Record of one architecturally executed instruction.
///
/// Deliberately `Copy`: one record is produced per executed instruction on
/// the measurement hot path, so the register sets are bitmasks and the
/// access addresses are stored inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedInstr {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index in the block body, or `None` for the terminator.
    pub index: Option<usize>,
    /// Kind of instruction.
    pub kind: InstrKind,
    /// Registers read.
    pub reads_regs: RegSet,
    /// Registers written.
    pub writes_regs: RegSet,
    /// Whether the flags are read.
    pub reads_flags: bool,
    /// Whether the flags are written.
    pub writes_flags: bool,
    /// Addresses of memory accesses performed.
    pub mem_addrs: MemAddrs,
}

/// Execution metadata collected alongside the contract trace; input to the
/// pattern-coverage analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionInfo {
    /// Architecturally executed instructions, in order.  The architectural
    /// pass is contract-independent, so the record is shared: every output
    /// of one [`ContractModel::collect_many`] call, and every clone of an
    /// info, points at the same slice.
    pub executed: Arc<[ExecutedInstr]>,
    /// Number of speculative paths explored by the execution clause.
    pub speculative_paths: usize,
    /// Number of observations recorded on speculative paths.
    pub speculative_observations: usize,
}

/// The result of running the model on one (test case, input) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelOutput {
    /// The contract trace.
    pub trace: CTrace,
    /// Execution metadata for diversity analysis.
    pub info: ExecutionInfo,
}

/// Synthetic program counter of an instruction (`index == body length`
/// denotes the terminator).
pub fn instr_pc(block: BlockId, index: usize) -> u64 {
    CODE_BASE + (block.index() as u64) * 0x100 + (index as u64) * 4
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    block: BlockId,
    idx: usize,
}

/// The executable contract model (§5.4): an emulator instrumented to follow
/// the contract's execution clause and record its observation clause.
#[derive(Debug, Clone)]
pub struct ContractModel {
    contract: Contract,
}

impl ContractModel {
    /// Create a model for the given contract.
    pub fn new(contract: Contract) -> ContractModel {
        ContractModel { contract }
    }

    /// The contract being modelled.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// Collect the contract trace for one input.
    ///
    /// Decodes the test case first; prefer [`ContractModel::collect_decoded`]
    /// when the same program runs for many inputs.
    ///
    /// # Errors
    /// Propagates architectural faults of the sequential execution; faults
    /// on explored speculative paths are suppressed, matching hardware.
    ///
    /// # Panics
    /// Panics if the test case fails decode-time validation.
    pub fn collect(&self, tc: &TestCase, input: &Input) -> Result<ModelOutput, Fault> {
        let prog =
            DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
        self.collect_decoded(&prog, input)
    }

    /// Collect the contract trace for one input of a pre-decoded program:
    /// the one-contract slate of [`ContractModel::collect_many_decoded`].
    ///
    /// # Errors
    /// Propagates architectural faults of the sequential execution; faults
    /// on explored speculative paths are suppressed, matching hardware.
    pub fn collect_decoded(
        &self,
        prog: &DecodedProgram,
        input: &Input,
    ) -> Result<ModelOutput, Fault> {
        let mut scratch = SlateScratch::default();
        let mut run = SlateRun::new(std::slice::from_ref(&self.contract), prog, &mut scratch);
        let executed = run.run(input)?;
        Ok(run.output(0, &executed))
    }

    /// Reference implementation of [`ContractModel::collect`] that re-walks
    /// the test-case AST per step and checkpoints by full-state clone.
    ///
    /// Retained as the differential-testing oracle for the pre-decoded path;
    /// decoding is a pure representation change, never a semantic one, and
    /// this function is the executable statement of that invariant.
    ///
    /// # Errors
    /// Same as [`ContractModel::collect`].
    pub fn collect_reference(&self, tc: &TestCase, input: &Input) -> Result<ModelOutput, Fault> {
        let mut emu = Emulator::new(tc.sandbox(), input);
        let mut obs = Vec::new();
        let mut info = ExecutionInfo::default();
        let mut executed = Vec::new();
        let mut pos = Pos { block: BlockId::ENTRY, idx: 0 };
        let mut steps = 0usize;

        loop {
            if steps >= MAX_ARCH_STEPS {
                return Err(Fault::StepLimitExceeded);
            }
            steps += 1;
            let block = tc.block(pos.block).expect("valid block id");
            if pos.idx < block.instrs.len() {
                let instr = &block.instrs[pos.idx];

                // BPAS execution clause: before committing a store, expose
                // the observations of the path on which it is skipped.
                if self.contract.execution.permits_bpas() && instr.writes_mem() {
                    explore_reference(&self.contract, &mut emu, tc, pos, true, &mut obs, &mut info, 0);
                }

                if self.contract.observation.exposes_pc() {
                    obs.push(Observation::Pc(instr_pc(pos.block, pos.idx)));
                }
                let fx = emu.exec_instr(instr)?;
                record_mem_events(self.contract.observation, true, &fx.mem_events, &mut obs);
                executed.push(Self::record_instr(pos, instr, &fx.mem_events));
                pos.idx += 1;
            } else {
                if self.contract.observation.exposes_pc() {
                    obs.push(Observation::Pc(instr_pc(pos.block, block.instrs.len())));
                }

                // COND execution clause: expose the observations of the
                // mispredicted direction before following the correct one.
                if self.contract.execution.permits_cond() {
                    if let Terminator::CondJmp { cond, taken, not_taken } = &block.terminator {
                        let actual = emu.eval_cond(*cond);
                        let wrong = if actual { *not_taken } else { *taken };
                        explore_reference(
                            &self.contract,
                            &mut emu,
                            tc,
                            Pos { block: wrong, idx: 0 },
                            false,
                            &mut obs,
                            &mut info,
                            0,
                        );
                    }
                }

                let mut events = Vec::new();
                let next = Runner::next_block(&mut emu, tc, pos.block, &mut events)?;
                record_mem_events(self.contract.observation, true, &events, &mut obs);
                executed.push(Self::record_terminator(pos, &block.terminator, &events));
                match next {
                    Some(b) => pos = Pos { block: b, idx: 0 },
                    None => break,
                }
            }
        }

        info.executed = executed.into();
        Ok(ModelOutput { trace: CTrace::new(obs), info })
    }

    /// Collect the contract traces of *several* contracts for one input in a
    /// single pass: the architectural execution — which is the same for
    /// every contract — runs once, and each speculative site is explored
    /// once per distinct exploration key, not once per contract.
    ///
    /// The outputs are identical to calling [`ContractModel::collect`] once
    /// per contract (each speculative exploration checkpoints and restores
    /// the shared emulator, so every exploration observes the same
    /// architectural state as a fresh run would).  This is the model half
    /// of the cross-contract sharing used by the campaign orchestrator:
    /// hardware traces are collected once per (target, test case) and
    /// checked against a whole contract slate, and `collect_many` keeps the
    /// model side from repeating contract-independent work per contract.
    ///
    /// # Errors
    /// Propagates architectural faults of the sequential execution (the
    /// architectural pass is contract-independent, so every contract of the
    /// slate would fault identically); faults on explored speculative paths
    /// are suppressed, matching hardware.
    ///
    /// # Panics
    /// Panics if the test case fails decode-time validation.
    pub fn collect_many(
        contracts: &[Contract],
        tc: &TestCase,
        input: &Input,
    ) -> Result<Vec<ModelOutput>, Fault> {
        let prog =
            DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
        Self::collect_many_decoded(contracts, &prog, input)
    }

    /// [`ContractModel::collect_many`] over a pre-decoded program: the
    /// one-input case of [`ContractModel::collect_slate_decoded`].
    ///
    /// # Errors
    /// Same as [`ContractModel::collect_many`].
    pub fn collect_many_decoded(
        contracts: &[Contract],
        prog: &DecodedProgram,
        input: &Input,
    ) -> Result<Vec<ModelOutput>, Fault> {
        SlateRun::new(contracts, prog, &mut SlateScratch::default()).collect(input)
    }

    /// Collect a contract slate's traces for every input of one test case:
    /// element `i` is what [`ContractModel::collect_many_decoded`] returns
    /// for `inputs[i]`.
    ///
    /// One emulator serves every input (re-initialized by
    /// [`Emulator::reset`]), and the observation and segment buffers keep
    /// the capacity the previous input grew them to.
    /// [`SlateScratch::collect_in_place`] is the campaign's form of this
    /// pass, on buffers kept across test cases.
    pub fn collect_slate_decoded(
        contracts: &[Contract],
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Vec<Result<Vec<ModelOutput>, Fault>> {
        let mut scratch = SlateScratch::default();
        let mut run = SlateRun::new(contracts, prog, &mut scratch);
        inputs.iter().map(|input| run.collect(input)).collect()
    }

    /// Convenience: collect only the contract trace.
    ///
    /// # Errors
    /// Same as [`ContractModel::collect`].
    pub fn collect_trace(&self, tc: &TestCase, input: &Input) -> Result<CTrace, Fault> {
        Ok(self.collect(tc, input)?.trace)
    }

    fn record_instr(pos: Pos, instr: &Instr, events: &[MemEvent]) -> ExecutedInstr {
        let kind = match instr {
            Instr::Div { .. } => InstrKind::VarLatency,
            Instr::Lfence | Instr::Mfence => InstrKind::Fence,
            Instr::Nop => InstrKind::Other,
            i if i.reads_mem() && i.writes_mem() => InstrKind::LoadStore,
            i if i.reads_mem() => InstrKind::Load,
            i if i.writes_mem() => InstrKind::Store,
            _ => InstrKind::Alu,
        };
        ExecutedInstr {
            block: pos.block,
            index: Some(pos.idx),
            kind,
            reads_regs: RegSet::of(&instr.reads_regs()),
            writes_regs: RegSet::of(&instr.writes_regs()),
            reads_flags: instr.reads_flags(),
            writes_flags: instr.writes_flags(),
            mem_addrs: MemAddrs::from_events(events),
        }
    }

    fn record_terminator(pos: Pos, term: &Terminator, events: &[MemEvent]) -> ExecutedInstr {
        let kind = match term {
            Terminator::CondJmp { .. } => InstrKind::CondBranch,
            Terminator::Jmp { .. } => InstrKind::Jump,
            Terminator::IndirectJmp { .. } | Terminator::Call { .. } | Terminator::Ret => {
                InstrKind::IndirectBranch
            }
            Terminator::Exit => InstrKind::Other,
        };
        ExecutedInstr {
            block: pos.block,
            index: None,
            kind,
            reads_regs: RegSet::of(&term.reads_regs()),
            writes_regs: RegSet::EMPTY,
            reads_flags: term.reads_flags(),
            writes_flags: false,
            mem_addrs: MemAddrs::from_events(events),
        }
    }

    fn record_decoded_instr(pos: Pos, d: &DecodedInstr, events: &[MemEvent]) -> ExecutedInstr {
        let kind = if d.is_var_latency {
            InstrKind::VarLatency
        } else if d.is_fence {
            InstrKind::Fence
        } else if matches!(d.op, DecodedOp::Nop) {
            InstrKind::Other
        } else if d.reads_mem && d.writes_mem {
            InstrKind::LoadStore
        } else if d.reads_mem {
            InstrKind::Load
        } else if d.writes_mem {
            InstrKind::Store
        } else {
            InstrKind::Alu
        };
        ExecutedInstr {
            block: pos.block,
            index: Some(pos.idx),
            kind,
            reads_regs: d.reads_set,
            writes_regs: d.writes_set,
            reads_flags: d.reads_flags,
            writes_flags: d.writes_flags,
            mem_addrs: MemAddrs::from_events(events),
        }
    }

    fn record_decoded_terminator(
        pos: Pos,
        t: &DecodedTerminator,
        events: &[MemEvent],
    ) -> ExecutedInstr {
        let kind = match &t.term {
            DecodedTerm::CondJmp { .. } => InstrKind::CondBranch,
            DecodedTerm::Jmp { .. } => InstrKind::Jump,
            DecodedTerm::IndirectJmp { .. } | DecodedTerm::Call { .. } | DecodedTerm::Ret => {
                InstrKind::IndirectBranch
            }
            DecodedTerm::Exit => InstrKind::Other,
        };
        ExecutedInstr {
            block: pos.block,
            index: None,
            kind,
            reads_regs: t.reads_set,
            writes_regs: RegSet::EMPTY,
            reads_flags: t.reads_flags,
            writes_flags: false,
            mem_addrs: MemAddrs::from_events(events),
        }
    }
}

/// The kind of speculative site an exploration starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// A store the BPAS clause bypasses: the segment precedes the store's
    /// program-counter observation.
    Store,
    /// A conditional branch the COND clause mispredicts: the segment
    /// follows the branch's program-counter observation.
    Branch,
}

/// Everything a speculative path's observations depend on besides its
/// start.  With nesting off, contracts with equal keys observe identical
/// segments at every site, whatever their execution clause; a nested path
/// also forks on the execution clause, so that clause joins the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExploreKey {
    observation: ObservationClause,
    window: usize,
    expose_speculative_stores: bool,
    nested: Option<ExecutionClause>,
}

impl ExploreKey {
    /// The key of a contract that explores any speculative path at all.
    fn of(c: &Contract) -> Option<ExploreKey> {
        (c.execution != ExecutionClause::Seq && c.speculation_window > 0).then_some(ExploreKey {
            observation: c.observation,
            window: c.speculation_window,
            expose_speculative_stores: c.expose_speculative_stores,
            nested: c.nested_speculation.then_some(c.execution),
        })
    }
}

/// The speculative counters of [`ExecutionInfo`], as one exploration adds
/// them.
#[derive(Debug, Clone, Copy, Default)]
struct SpecCounts {
    paths: usize,
    observations: usize,
}

/// Where one exploration's segment goes in the trace of every contract
/// that permits its site.
#[derive(Debug, Clone, Copy)]
struct Splice {
    site: Site,
    /// Offset in the architectural stream the segment is spliced in at.
    at: usize,
    /// End of the segment in [`Explorer::segments`]; it starts where the
    /// previous splice's segment ends.
    end: usize,
    counts: SpecCounts,
}

/// The exploration shared by every slate contract with one key: each site
/// any of them permits is explored once per input.
#[derive(Debug)]
struct Explorer {
    /// The first slate contract with this key, whose parameters drive the
    /// exploration.
    contract: Contract,
    /// Index of the architectural stream of the key's observation clause.
    stream: usize,
    stores: bool,
    branches: bool,
    /// Every segment of the current input, back to back.
    segments: Vec<Observation>,
    splices: Vec<Splice>,
}

impl Explorer {
    /// Explore the path starting at `start` into the segment buffer, to be
    /// spliced in at offset `at` of the architectural stream.
    fn explore(
        &mut self,
        emu: &mut Emulator,
        prog: &DecodedProgram,
        start: Pos,
        site: Site,
        at: usize,
        events: &mut Events,
    ) {
        let mut counts = SpecCounts::default();
        let skip_first_store = site == Site::Store;
        let (contract, segments) = (&self.contract, &mut self.segments);
        explore_decoded(contract, emu, prog, start, skip_first_store, segments, &mut counts, 0, events);
        self.splices.push(Splice { site, at, end: segments.len(), counts });
    }

    /// Write the trace of a contract with this key and execution clause
    /// `execution` into the empty `obs`: the architectural stream with the
    /// segments of the permitted sites spliced in, reserved at exact
    /// length.
    fn splice_into(
        &self,
        arch: &[Observation],
        execution: ExecutionClause,
        obs: &mut Vec<Observation>,
    ) -> SpecCounts {
        let permitted = |site| match site {
            Site::Store => execution.permits_bpas(),
            Site::Branch => execution.permits_cond(),
        };
        let mut len = arch.len();
        let mut start = 0;
        for sp in &self.splices {
            if permitted(sp.site) {
                len += sp.end - start;
            }
            start = sp.end;
        }
        obs.reserve_exact(len);
        let mut counts = SpecCounts::default();
        let (mut from, mut start) = (0, 0);
        for sp in &self.splices {
            if permitted(sp.site) {
                obs.extend_from_slice(&arch[from..sp.at]);
                obs.extend_from_slice(&self.segments[start..sp.end]);
                from = sp.at;
                counts.paths += sp.counts.paths;
                counts.observations += sp.counts.observations;
            }
            start = sp.end;
        }
        obs.extend_from_slice(&arch[from..]);
        counts
    }
}

/// The architectural observations of one observation clause.
#[derive(Debug)]
struct Stream {
    clause: ObservationClause,
    obs: Vec<Observation>,
}

/// The contract model's working buffers for slate passes: the emulator,
/// one observation stream per observation clause, the exploration segment
/// and splice buffers, the executed-instruction record and the event
/// scratch.
///
/// A scratch kept across test cases (a campaign worker holds one for its
/// whole run) stops allocating once its buffers have grown to the largest
/// pass.  What a pass computes never depends on what the scratch ran
/// before: the emulator is re-initialized from each input, and every
/// buffer is cleared before it is filled.
#[derive(Debug, Default)]
pub struct SlateScratch {
    /// One stream per observation clause of the current slate.
    streams: Vec<Stream>,
    explorers: Vec<Explorer>,
    emu: Option<Emulator>,
    executed: Vec<ExecutedInstr>,
    events: Events,
    /// Buffers of an earlier slate's streams and explorers, kept for the
    /// next slate's.
    spare_obs: Vec<Vec<Observation>>,
    spare_splices: Vec<Vec<Splice>>,
    /// Each contract's traces and execution records of the last
    /// [`SlateScratch::collect_in_place`], one per input.
    traces: Vec<Vec<CTrace>>,
    infos: Vec<Vec<ExecutionInfo>>,
}

impl SlateScratch {
    /// [`ContractModel::collect_slate_decoded`] with the outputs kept in the
    /// scratch: afterwards [`SlateScratch::traces`]`(k)` and
    /// [`SlateScratch::infos`]`(k)` hold contract `k`'s trace and execution
    /// record for every input, equal to that pass's outputs.  The previous
    /// call's traces are rebuilt in place, so a scratch reused across test
    /// cases stops allocating trace buffers.
    ///
    /// # Errors
    /// The first input's fault; the kept outputs are then empty.
    pub fn collect_in_place(
        &mut self,
        contracts: &[Contract],
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Result<(), Fault> {
        let mut traces = std::mem::take(&mut self.traces);
        let mut infos = std::mem::take(&mut self.infos);
        traces.resize_with(contracts.len(), Vec::new);
        infos.resize_with(contracts.len(), Vec::new);
        for (t, i) in traces.iter_mut().zip(&mut infos) {
            t.truncate(inputs.len());
            i.clear();
        }
        let mut run = SlateRun::new(contracts, prog, self);
        let result = run.collect_into(inputs, &mut traces, &mut infos);
        if result.is_err() {
            traces.iter_mut().for_each(Vec::clear);
            infos.iter_mut().for_each(Vec::clear);
        }
        self.traces = traces;
        self.infos = infos;
        result
    }

    /// Contract `k`'s traces of the last [`SlateScratch::collect_in_place`].
    pub fn traces(&self, k: usize) -> &[CTrace] {
        &self.traces[k]
    }

    /// Contract `k`'s execution records of the last
    /// [`SlateScratch::collect_in_place`].
    pub fn infos(&self, k: usize) -> &[ExecutionInfo] {
        &self.infos[k]
    }

    /// Lay the streams and explorers out for `contracts`, reusing the
    /// buffers of the previous layout.
    fn configure(&mut self, contracts: &[Contract], prog: &DecodedProgram) {
        self.spare_obs.extend(self.streams.drain(..).map(|s| s.obs));
        for e in self.explorers.drain(..) {
            self.spare_obs.push(e.segments);
            self.spare_splices.push(e.splices);
        }
        let static_len = prog.body_len() + prog.num_blocks();
        // Each static instruction once: a loop-free path's upper bound.
        self.executed.reserve(static_len);
        for c in contracts {
            let stream = self.stream_of(c).unwrap_or_else(|| {
                let mut obs = self.spare_obs.pop().unwrap_or_default();
                obs.clear();
                // A program counter and a memory access per static
                // instruction.
                obs.reserve(2 * static_len);
                self.streams.push(Stream { clause: c.observation, obs });
                self.streams.len() - 1
            });
            if ExploreKey::of(c).is_some() {
                let e = self.explorer_of(c).unwrap_or_else(|| {
                    self.explorers.push(Explorer {
                        contract: c.clone(),
                        stream,
                        stores: false,
                        branches: false,
                        segments: self.spare_obs.pop().unwrap_or_default(),
                        splices: self.spare_splices.pop().unwrap_or_default(),
                    });
                    self.explorers.len() - 1
                });
                self.explorers[e].stores |= c.execution.permits_bpas();
                self.explorers[e].branches |= c.execution.permits_cond();
            }
        }
    }

    /// Index of the stream of `c`'s observation clause.
    fn stream_of(&self, c: &Contract) -> Option<usize> {
        self.streams.iter().position(|s| s.clause == c.observation)
    }

    /// Index of the explorer of `c`'s exploration key.
    fn explorer_of(&self, c: &Contract) -> Option<usize> {
        let key = ExploreKey::of(c)?;
        self.explorers.iter().position(|e| ExploreKey::of(&e.contract) == Some(key))
    }
}

/// One contract slate over one program, on a scratch laid out for it and
/// reused across the program's inputs.
struct SlateRun<'a> {
    contracts: &'a [Contract],
    prog: &'a DecodedProgram,
    scratch: &'a mut SlateScratch,
}

impl<'a> SlateRun<'a> {
    fn new(
        contracts: &'a [Contract],
        prog: &'a DecodedProgram,
        scratch: &'a mut SlateScratch,
    ) -> SlateRun<'a> {
        scratch.configure(contracts, prog);
        SlateRun { contracts, prog, scratch }
    }

    /// Every contract's output for one input.
    fn collect(&mut self, input: &Input) -> Result<Vec<ModelOutput>, Fault> {
        let executed = self.run(input)?;
        Ok((0..self.contracts.len()).map(|k| self.output(k, &executed)).collect())
    }

    /// The shared pass over one input: one architectural execution,
    /// recorded once per stream, and each permitted speculative site
    /// explored once per explorer.  Returns the executed-instruction record.
    fn run(&mut self, input: &Input) -> Result<Arc<[ExecutedInstr]>, Fault> {
        let prog = self.prog;
        let SlateScratch { streams, explorers, emu, executed, events, .. } = &mut *self.scratch;
        let emu = match emu {
            Some(emu) => {
                emu.reset(prog.sandbox(), input);
                emu
            }
            None => emu.insert(Emulator::new(prog.sandbox(), input)),
        };
        for s in streams.iter_mut() {
            s.obs.clear();
        }
        for e in explorers.iter_mut() {
            e.segments.clear();
            e.splices.clear();
        }
        executed.clear();

        let mut pos = Pos { block: BlockId::ENTRY, idx: 0 };
        let mut steps = 0usize;
        loop {
            if steps >= MAX_ARCH_STEPS {
                return Err(Fault::StepLimitExceeded);
            }
            steps += 1;
            let body = prog.body(pos.block);
            if pos.idx < body.len() {
                let d = &body[pos.idx];
                // BPAS execution clause: before committing a store, expose
                // the observations of the path on which it is skipped.
                if d.writes_mem {
                    for e in explorers.iter_mut().filter(|e| e.stores) {
                        let at = streams[e.stream].obs.len();
                        e.explore(emu, prog, pos, Site::Store, at, events);
                    }
                }
                for s in streams.iter_mut() {
                    if s.clause.exposes_pc() {
                        s.obs.push(Observation::Pc(instr_pc(pos.block, pos.idx)));
                    }
                }
                let buf = &mut events.instr;
                buf.clear();
                emu.exec_decoded(&d.op, buf)?;
                executed.push(ContractModel::record_decoded_instr(pos, d, buf.events()));
                for s in streams.iter_mut() {
                    record_mem_events(s.clause, true, buf.events(), &mut s.obs);
                }
                pos.idx += 1;
            } else {
                for s in streams.iter_mut() {
                    if s.clause.exposes_pc() {
                        s.obs.push(Observation::Pc(instr_pc(pos.block, body.len())));
                    }
                }
                // COND execution clause: expose the observations of the
                // mispredicted direction before following the correct one.
                let term = prog.terminator(pos.block);
                if let DecodedTerm::CondJmp { cond, taken, not_taken } = &term.term {
                    let wrong = if emu.eval_cond(*cond) { *not_taken } else { *taken };
                    let start = Pos { block: wrong, idx: 0 };
                    for e in explorers.iter_mut().filter(|e| e.branches) {
                        let at = streams[e.stream].obs.len();
                        e.explore(emu, prog, start, Site::Branch, at, events);
                    }
                }
                let term_events = &mut events.term;
                term_events.clear();
                let next = Runner::next_block_decoded(emu, prog, pos.block, term_events)?;
                executed.push(ContractModel::record_decoded_terminator(pos, term, term_events));
                for s in streams.iter_mut() {
                    record_mem_events(s.clause, true, term_events, &mut s.obs);
                }
                match next {
                    Some(b) => pos = Pos { block: b, idx: 0 },
                    None => break,
                }
            }
        }
        Ok(Arc::from(executed.as_slice()))
    }

    /// Every input's outputs, appended to (or, where `traces` already has
    /// an entry, rebuilt in) each contract's `traces` and `infos`.
    fn collect_into(
        &mut self,
        inputs: &[Input],
        traces: &mut [Vec<CTrace>],
        infos: &mut [Vec<ExecutionInfo>],
    ) -> Result<(), Fault> {
        for (i, input) in inputs.iter().enumerate() {
            let executed = self.run(input)?;
            for (k, (traces, infos)) in traces.iter_mut().zip(infos.iter_mut()).enumerate() {
                let counts = match traces.get_mut(i) {
                    Some(trace) => trace.refill(|obs| self.observe(k, obs)),
                    None => {
                        let mut obs = Vec::new();
                        let counts = self.observe(k, &mut obs);
                        traces.push(CTrace::new(obs));
                        counts
                    }
                };
                infos.push(execution_info(&executed, counts));
            }
        }
        Ok(())
    }

    /// Contract `k`'s output for the input of the last [`SlateRun::run`].
    fn output(&self, k: usize, executed: &Arc<[ExecutedInstr]>) -> ModelOutput {
        let mut obs = Vec::new();
        let counts = self.observe(k, &mut obs);
        ModelOutput { trace: CTrace::new(obs), info: execution_info(executed, counts) }
    }

    /// Write contract `k`'s observations of the input of the last
    /// [`SlateRun::run`] into the empty `obs`.
    fn observe(&self, k: usize, obs: &mut Vec<Observation>) -> SpecCounts {
        let c = &self.contracts[k];
        let scratch = &*self.scratch;
        let stream = scratch.stream_of(c).expect("every contract has a stream");
        let stream = &scratch.streams[stream].obs;
        match scratch.explorer_of(c) {
            Some(e) => scratch.explorers[e].splice_into(stream, c.execution, obs),
            None => {
                obs.reserve_exact(stream.len());
                obs.extend_from_slice(stream);
                SpecCounts::default()
            }
        }
    }
}

/// The execution record of one input: the shared architectural record and
/// one contract's speculative counts.
fn execution_info(executed: &Arc<[ExecutedInstr]>, counts: SpecCounts) -> ExecutionInfo {
    ExecutionInfo {
        executed: Arc::clone(executed),
        speculative_paths: counts.paths,
        speculative_observations: counts.observations,
    }
}

/// Scratch for the memory events of one step, reused by every step of a
/// slate run, architectural or speculative: a nested exploration starts
/// before its enclosing step fills either buffer.
#[derive(Debug, Default)]
struct Events {
    /// Events of a body instruction.
    instr: EventBuf,
    /// Events of a terminator (the stack access of a call or return).
    term: Vec<MemEvent>,
}

/// Record the observations of a batch of memory events under an
/// observation clause; `expose_stores` is false only on the speculative
/// paths of a contract that hides speculative stores (§6.4).
fn record_mem_events(
    observation: ObservationClause,
    expose_stores: bool,
    events: &[MemEvent],
    obs: &mut Vec<Observation>,
) {
    for ev in events {
        match ev.kind {
            MemEventKind::Read => {
                obs.push(Observation::MemAddr(ev.addr));
                if observation.exposes_loaded_values() {
                    obs.push(Observation::LoadValue(ev.value));
                }
            }
            MemEventKind::Write => {
                if expose_stores {
                    obs.push(Observation::MemAddr(ev.addr));
                }
            }
        }
    }
}

/// Explore a mis-speculated path starting at `start` under `contract`'s
/// execution clause over a pre-decoded program, using delta checkpoints
/// (register snapshot + memory-write undo journal) to roll back.
/// With `skip_first_store` the first store at `start` is speculatively
/// bypassed (the BPAS clause); otherwise the path is followed as a branch
/// misprediction (the COND clause).  `events` is scratch shared with the
/// caller and with nested explorations.
#[allow(clippy::too_many_arguments)]
fn explore_decoded(
    contract: &Contract,
    emu: &mut Emulator,
    prog: &DecodedProgram,
    start: Pos,
    skip_first_store: bool,
    obs: &mut Vec<Observation>,
    counts: &mut SpecCounts,
    depth: usize,
    events: &mut Events,
) {
    if contract.speculation_window == 0 {
        return;
    }
    let max_depth = if contract.nested_speculation { 4 } else { 0 };
    if depth > max_depth {
        return;
    }
    counts.paths += 1;
    let checkpoint = emu.begin_speculation();
    let obs_before = obs.len();
    let observation = contract.observation;
    let expose_stores = contract.expose_speculative_stores;

    let mut pos = start;
    let mut fuel = contract.speculation_window;
    let mut first = true;
    'path: while fuel > 0 {
        let body = prog.body(pos.block);
        if pos.idx < body.len() {
            let d = &body[pos.idx];
            let skip = first && skip_first_store && d.writes_mem;
            first = false;
            if d.is_fence {
                break 'path;
            }
            fuel -= 1;
            if skip {
                pos.idx += 1;
                continue;
            }
            // Nested BPAS inside an explored path.
            if depth < max_depth && contract.execution.permits_bpas() && d.writes_mem {
                explore_decoded(contract, emu, prog, pos, true, obs, counts, depth + 1, events);
            }
            if observation.exposes_pc() {
                obs.push(Observation::Pc(instr_pc(pos.block, pos.idx)));
            }
            let buf = &mut events.instr;
            buf.clear();
            match emu.exec_decoded(&d.op, buf) {
                Ok(()) => record_mem_events(observation, expose_stores, buf.events(), obs),
                Err(_) => break 'path, // transient faults are suppressed
            }
            pos.idx += 1;
        } else {
            first = false;
            fuel -= 1;
            if observation.exposes_pc() {
                obs.push(Observation::Pc(instr_pc(pos.block, body.len())));
            }
            // Nested COND inside an explored path.
            if depth < max_depth && contract.execution.permits_cond() {
                if let DecodedTerm::CondJmp { cond, taken, not_taken } =
                    &prog.terminator(pos.block).term
                {
                    let actual = emu.eval_cond(*cond);
                    let wrong = if actual { *not_taken } else { *taken };
                    explore_decoded(
                        contract,
                        emu,
                        prog,
                        Pos { block: wrong, idx: 0 },
                        false,
                        obs,
                        counts,
                        depth + 1,
                        events,
                    );
                }
            }
            let term_events = &mut events.term;
            term_events.clear();
            let next = Runner::next_block_decoded(emu, prog, pos.block, term_events);
            record_mem_events(observation, expose_stores, term_events, obs);
            match next {
                Ok(Some(b)) => pos = Pos { block: b, idx: 0 },
                Ok(None) | Err(_) => break 'path,
            }
        }
    }

    counts.observations += obs.len() - obs_before;
    emu.rollback(checkpoint);
}

/// Reference-path twin of [`explore_decoded`]: walks the AST and checkpoints
/// by full-state clone.  Used only by [`ContractModel::collect_reference`].
#[allow(clippy::too_many_arguments)]
fn explore_reference(
    contract: &Contract,
    emu: &mut Emulator,
    tc: &TestCase,
    start: Pos,
    skip_first_store: bool,
    obs: &mut Vec<Observation>,
    info: &mut ExecutionInfo,
    depth: usize,
) {
    if contract.speculation_window == 0 {
        return;
    }
    let max_depth = if contract.nested_speculation { 4 } else { 0 };
    if depth > max_depth {
        return;
    }
    info.speculative_paths += 1;
    let checkpoint = emu.checkpoint();
    let obs_before = obs.len();
    let observation = contract.observation;
    let expose_stores = contract.expose_speculative_stores;

    let mut pos = start;
    let mut fuel = contract.speculation_window;
    let mut first = true;
    'path: while fuel > 0 {
        let block = match tc.block(pos.block) {
            Some(b) => b,
            None => break,
        };
        if pos.idx < block.instrs.len() {
            let instr = &block.instrs[pos.idx];
            let skip = first && skip_first_store && instr.writes_mem();
            first = false;
            if instr.is_fence() {
                break 'path;
            }
            fuel -= 1;
            if skip {
                pos.idx += 1;
                continue;
            }
            // Nested BPAS inside an explored path.
            if depth < max_depth && contract.execution.permits_bpas() && instr.writes_mem() {
                explore_reference(contract, emu, tc, pos, true, obs, info, depth + 1);
            }
            if observation.exposes_pc() {
                obs.push(Observation::Pc(instr_pc(pos.block, pos.idx)));
            }
            match emu.exec_instr(instr) {
                Ok(fx) => record_mem_events(observation, expose_stores, &fx.mem_events, obs),
                Err(_) => break 'path, // transient faults are suppressed
            }
            pos.idx += 1;
        } else {
            first = false;
            fuel -= 1;
            if observation.exposes_pc() {
                obs.push(Observation::Pc(instr_pc(pos.block, block.instrs.len())));
            }
            // Nested COND inside an explored path.
            if depth < max_depth && contract.execution.permits_cond() {
                if let Terminator::CondJmp { cond, taken, not_taken } = &block.terminator {
                    let actual = emu.eval_cond(*cond);
                    let wrong = if actual { *not_taken } else { *taken };
                    explore_reference(
                        contract,
                        emu,
                        tc,
                        Pos { block: wrong, idx: 0 },
                        false,
                        obs,
                        info,
                        depth + 1,
                    );
                }
            }
            let mut events = Vec::new();
            match Runner::next_block(emu, tc, pos.block, &mut events) {
                Ok(Some(b)) => {
                    record_mem_events(observation, expose_stores, &events, obs);
                    pos = Pos { block: b, idx: 0 };
                }
                Ok(None) | Err(_) => {
                    record_mem_events(observation, expose_stores, &events, obs);
                    break 'path;
                }
            }
        }
    }

    info.speculative_observations += obs.len() - obs_before;
    emu.restore(checkpoint);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use rvz_isa::builder::TestCaseBuilder;
    use rvz_isa::{Cond, Reg};

    /// Figure 1 of the paper, adapted to the sandbox:
    /// `z = array1[x]; if (y < 10) z = array2[y]`.
    fn figure1() -> TestCase {
        TestCaseBuilder::new()
            .origin("fig1")
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000); // x
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.cmp_imm(Reg::Rcx, 10); // y < 10 ?
                b.jcc(Cond::B, "then", "end");
            })
            .block("then", |b| {
                b.and_imm(Reg::Rcx, 0b111111000000);
                b.load(Reg::Rdx, Reg::R14, Reg::Rcx);
                b.jmp("end");
            })
            .block("end", |b| b.exit())
            .build()
    }

    fn input_xy(tc: &TestCase, x: u64, y: u64) -> Input {
        let mut i = Input::zeroed(tc.sandbox());
        i.set_reg(Reg::Rax, x);
        i.set_reg(Reg::Rcx, y);
        i
    }

    #[test]
    fn mem_seq_exposes_only_architectural_accesses() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 20); // branch not taken
        let out = ContractModel::new(Contract::mem_seq()).collect(&tc, &input).unwrap();
        let addrs = out.trace.mem_addrs();
        assert_eq!(addrs, vec![tc.sandbox().base + 0x100]);
        assert_eq!(out.info.speculative_paths, 0);
    }

    #[test]
    fn mem_cond_additionally_exposes_mispredicted_path() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 20);
        let out = ContractModel::new(Contract::mem_cond()).collect(&tc, &input).unwrap();
        let addrs = out.trace.mem_addrs();
        // Architectural access at base+0x100 plus the speculative access at
        // base + (20 & mask) = base.
        assert_eq!(addrs, vec![tc.sandbox().base + 0x100, tc.sandbox().base]);
        assert!(out.info.speculative_paths >= 1);
        assert!(out.info.speculative_observations >= 1);
    }

    #[test]
    fn paper_example_same_seq_trace_different_secrets() {
        // Same x, different y, both out of bounds (branch not taken): the
        // MEM-SEQ traces coincide, as in the §2.2 counterexample for MEM-SEQ.
        let tc = figure1();
        let a = input_xy(&tc, 0x100, 0x80);
        let b = input_xy(&tc, 0x100, 0xc0);
        let m = ContractModel::new(Contract::mem_seq());
        assert_eq!(m.collect_trace(&tc, &a).unwrap(), m.collect_trace(&tc, &b).unwrap());
        // But MEM-COND distinguishes them (the speculative access differs).
        let m = ContractModel::new(Contract::mem_cond());
        assert_ne!(m.collect_trace(&tc, &a).unwrap(), m.collect_trace(&tc, &b).unwrap());
    }

    #[test]
    fn ct_exposes_program_counter() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 20);
        let mem = ContractModel::new(Contract::mem_seq()).collect_trace(&tc, &input).unwrap();
        let ct = ContractModel::new(Contract::ct_seq()).collect_trace(&tc, &input).unwrap();
        assert!(ct.len() > mem.len());
        assert!(ct.observations().iter().any(|o| matches!(o, Observation::Pc(_))));
        assert!(mem.observations().iter().all(|o| !matches!(o, Observation::Pc(_))));
    }

    #[test]
    fn ct_traces_differ_when_control_flow_differs() {
        let tc = figure1();
        let taken = input_xy(&tc, 0x100, 5);
        let not_taken = input_xy(&tc, 0x100, 25);
        let m = ContractModel::new(Contract::ct_seq());
        assert_ne!(m.collect_trace(&tc, &taken).unwrap(), m.collect_trace(&tc, &not_taken).unwrap());
    }

    #[test]
    fn arch_exposes_loaded_values() {
        let tc = figure1();
        let mut a = input_xy(&tc, 0x100, 20);
        let mut b = input_xy(&tc, 0x100, 20);
        a.write_mem_u64(0x100, 1);
        b.write_mem_u64(0x100, 2);
        let ct = ContractModel::new(Contract::ct_seq());
        assert_eq!(ct.collect_trace(&tc, &a).unwrap(), ct.collect_trace(&tc, &b).unwrap());
        let arch = ContractModel::new(Contract::arch_seq());
        assert_ne!(arch.collect_trace(&tc, &a).unwrap(), arch.collect_trace(&tc, &b).unwrap());
    }

    /// A store-bypass gadget: a store overwrites a secret, a load reads the
    /// same location and the loaded value indexes a dependent access.
    fn bpas_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("bpas")
            .block("entry", |b| {
                b.store_disp(Reg::R14, 0, Reg::Rdx); // overwrite with RDX
                b.load_disp(Reg::Rbx, Reg::R14, 0);
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.exit();
            })
            .build()
    }

    #[test]
    fn bpas_exposes_skipped_store_path() {
        let tc = bpas_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.write_mem_u64(0, 0x7c0); // old (stale) value
        input.set_reg(Reg::Rdx, 0x40); // new value

        let seq = ContractModel::new(Contract::ct_seq()).collect(&tc, &input).unwrap();
        let bpas = ContractModel::new(Contract::ct_bpas()).collect(&tc, &input).unwrap();
        let base = tc.sandbox().base;
        assert!(
            !seq.trace.mem_addrs().contains(&(base + 0x7c0)),
            "CT-SEQ must not expose the stale-value access"
        );
        assert!(
            bpas.trace.mem_addrs().contains(&(base + 0x7c0)),
            "CT-BPAS exposes the access dependent on the stale value"
        );
        assert!(bpas.trace.mem_addrs().contains(&(base + 0x40)), "architectural access still exposed");
        assert!(bpas.info.speculative_paths >= 1);
    }

    #[test]
    fn two_inputs_same_bpas_trace_when_stale_values_match() {
        let tc = bpas_gadget();
        let mut a = Input::zeroed(tc.sandbox());
        a.write_mem_u64(0, 0x7c0);
        a.set_reg(Reg::Rdx, 0x40);
        let mut b = a.clone();
        b.set_reg(Reg::Rsi, 123); // unrelated difference
        let m = ContractModel::new(Contract::ct_bpas());
        assert_eq!(m.collect_trace(&tc, &a).unwrap(), m.collect_trace(&tc, &b).unwrap());
    }

    #[test]
    fn speculation_window_bounds_exploration() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 20);
        let wide = ContractModel::new(Contract::mem_cond()).collect(&tc, &input).unwrap();
        let narrow = ContractModel::new(Contract::mem_cond().with_speculation_window(1))
            .collect(&tc, &input)
            .unwrap();
        assert!(narrow.trace.len() < wide.trace.len());
        let zero = ContractModel::new(Contract::mem_cond().with_speculation_window(0))
            .collect(&tc, &input)
            .unwrap();
        let seq = ContractModel::new(Contract::mem_seq()).collect(&tc, &input).unwrap();
        assert_eq!(zero.trace, seq.trace, "window 0 degenerates to SEQ");
    }

    #[test]
    fn lfence_stops_speculative_exploration() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rcx, 10);
                b.jcc(Cond::B, "then", "end");
            })
            .block("then", |b| {
                b.lfence();
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.jmp("end");
            })
            .block("end", |b| b.exit())
            .build();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rcx, 20); // not taken; "then" is the mispredicted path
        input.set_reg(Reg::Rax, 0x200);
        let out = ContractModel::new(Contract::mem_cond()).collect(&tc, &input).unwrap();
        assert!(
            !out.trace.mem_addrs().contains(&(tc.sandbox().base + 0x200)),
            "LFENCE on the speculative path stops the exploration"
        );
    }

    #[test]
    fn no_spec_store_variant_hides_speculative_stores() {
        // The mispredicted path contains a store; CT-COND exposes its
        // address, the §6.4 variant does not.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rcx, 10);
                b.jcc(Cond::B, "then", "end");
            })
            .block("then", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.store(Reg::R14, Reg::Rax, Reg::Rbx);
                b.jmp("end");
            })
            .block("end", |b| b.exit())
            .build();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rcx, 20);
        input.set_reg(Reg::Rax, 0x380);
        let full = ContractModel::new(Contract::ct_cond()).collect_trace(&tc, &input).unwrap();
        let restricted =
            ContractModel::new(Contract::ct_cond_no_spec_store()).collect_trace(&tc, &input).unwrap();
        let addr = tc.sandbox().base + 0x380;
        assert!(full.mem_addrs().contains(&addr));
        assert!(!restricted.mem_addrs().contains(&addr));
    }

    #[test]
    fn nested_speculation_explores_more() {
        // Two chained conditional branches; the deeper speculative access is
        // only visible with nesting enabled.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rcx, 10);
                b.jcc(Cond::B, "mid", "end");
            })
            .block("mid", |b| {
                b.cmp_imm(Reg::Rdx, 10);
                b.jcc(Cond::B, "deep", "end");
            })
            .block("deep", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.jmp("end");
            })
            .block("end", |b| b.exit())
            .build();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rcx, 20); // entry branch not taken -> "mid" is speculative
        input.set_reg(Reg::Rdx, 20); // mid branch not taken -> "deep" needs nesting
        input.set_reg(Reg::Rax, 0x440);
        let flat = ContractModel::new(Contract::mem_cond()).collect_trace(&tc, &input).unwrap();
        let nested =
            ContractModel::new(Contract::mem_cond().with_nesting(true)).collect_trace(&tc, &input).unwrap();
        let addr = tc.sandbox().base + 0x440;
        assert!(!flat.mem_addrs().contains(&addr));
        assert!(nested.mem_addrs().contains(&addr));
        assert!(nested.len() > flat.len());
    }

    #[test]
    fn model_is_deterministic() {
        let tc = figure1();
        let input = input_xy(&tc, 0x180, 3);
        let m = ContractModel::new(Contract::ct_cond_bpas());
        let a = m.collect(&tc, &input).unwrap();
        let b = m.collect(&tc, &input).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.info, b.info);
    }

    #[test]
    fn execution_info_records_kinds() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 5);
        let out = ContractModel::new(Contract::ct_seq()).collect(&tc, &input).unwrap();
        let kinds: Vec<InstrKind> = out.info.executed.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&InstrKind::Load));
        assert!(kinds.contains(&InstrKind::CondBranch));
        assert!(kinds.contains(&InstrKind::Alu));
        let loads: Vec<_> =
            out.info.executed.iter().filter(|e| e.kind == InstrKind::Load).collect();
        assert!(!loads[0].mem_addrs.is_empty());
    }

    #[test]
    fn collect_many_matches_independent_collection_per_contract() {
        // The shared architectural pass must be invisible: every contract's
        // output equals an independent `collect` run, including the
        // speculative-path counters.
        let contracts = [
            Contract::ct_seq(),
            Contract::ct_bpas(),
            Contract::ct_cond(),
            Contract::ct_cond_bpas(),
            Contract::arch_seq(),
            Contract::mem_cond().with_nesting(true),
            Contract::ct_cond_no_spec_store(),
        ];
        for tc in [figure1(), bpas_gadget()] {
            for (x, y) in [(0x100, 20), (0x100, 5), (0x40, 0x80)] {
                let input = input_xy(&tc, x, y);
                let shared = ContractModel::collect_many(&contracts, &tc, &input).unwrap();
                assert_eq!(shared.len(), contracts.len());
                for (c, out) in contracts.iter().zip(&shared) {
                    let solo = ContractModel::new(c.clone()).collect(&tc, &input).unwrap();
                    assert_eq!(out.trace, solo.trace, "{} trace differs", c.name());
                    assert_eq!(out.info, solo.info, "{} info differs", c.name());
                }
            }
        }
    }

    #[test]
    fn collect_many_shares_one_executed_record() {
        // The architectural pass is recorded once per input: every
        // contract's info points at the same slice, and cloning an info
        // (as the campaign's class grouping does) copies no record.
        let contracts = Contract::table3_contracts();
        for tc in [figure1(), bpas_gadget()] {
            let outs =
                ContractModel::collect_many(&contracts, &tc, &input_xy(&tc, 0x100, 5)).unwrap();
            assert!(!outs[0].info.executed.is_empty());
            for out in &outs {
                assert!(Arc::ptr_eq(&out.info.executed, &outs[0].info.executed));
            }
            let copy = outs[1].info.clone();
            assert!(Arc::ptr_eq(&copy.executed, &outs[0].info.executed));
        }
    }

    #[test]
    fn decoded_collection_matches_reference() {
        let contracts = [
            Contract::ct_seq(),
            Contract::ct_bpas(),
            Contract::ct_cond_bpas(),
            Contract::arch_seq(),
            Contract::mem_cond().with_nesting(true),
            Contract::ct_cond_no_spec_store(),
        ];
        for tc in [figure1(), bpas_gadget()] {
            for (x, y) in [(0x100, 20), (0x100, 5), (0x40, 0x80)] {
                let input = input_xy(&tc, x, y);
                for c in &contracts {
                    let m = ContractModel::new(c.clone());
                    let dec = m.collect(&tc, &input).unwrap();
                    let reference = m.collect_reference(&tc, &input).unwrap();
                    assert_eq!(dec.trace, reference.trace, "{} trace differs", c.name());
                    assert_eq!(dec.info, reference.info, "{} info differs", c.name());
                }
            }
        }
    }

    #[test]
    fn collect_many_handles_empty_and_single_slates() {
        let tc = figure1();
        let input = input_xy(&tc, 0x100, 20);
        assert!(ContractModel::collect_many(&[], &tc, &input).unwrap().is_empty());
        let single =
            ContractModel::collect_many(std::slice::from_ref(&Contract::ct_seq()), &tc, &input)
                .unwrap();
        let solo = ContractModel::new(Contract::ct_seq()).collect(&tc, &input).unwrap();
        assert_eq!(single[0], solo);
    }

    #[test]
    fn collect_many_repeated_contract_gets_identical_outputs() {
        // The same contract twice in a slate observes the same state: the
        // first exploration's checkpoint/restore must be exact.
        let tc = bpas_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.write_mem_u64(0, 0x7c0);
        input.set_reg(Reg::Rdx, 0x40);
        let slate = [Contract::ct_bpas(), Contract::ct_bpas()];
        let outs = ContractModel::collect_many(&slate, &tc, &input).unwrap();
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn pc_layout_is_injective_for_small_blocks() {
        let mut seen = std::collections::HashSet::new();
        for b in 0..16 {
            for i in 0..32 {
                assert!(seen.insert(instr_pc(BlockId(b), i)));
            }
        }
    }
}
