//! Contract-trace collection by instrumented emulation.

use crate::contract::{Contract, ExecutionClause, ObservationClause};
use crate::ctrace::{
    digest_extend, piece_step, CTrace, InputClass, Observation, DIGEST_BASIS, PIECE_BASE,
};
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
/// pattern-coverage analysis.  The campaign's slate pass builds one only
/// for the class members a caller reads
/// ([`SlateScratch::class_members`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionInfo {
    /// Architecturally executed instructions, in order.  The architectural
    /// pass is contract-independent, so the record is shared: every output
    /// of one [`ContractModel::collect_many`] call, every contract's class
    /// member of one input in a [`SlateScratch`], and every clone of an
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
        let contract = std::slice::from_ref(&self.contract);
        let mut outputs = Self::collect_many_decoded(contract, prog, input)?;
        Ok(outputs.pop().expect("one output per contract"))
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
        let mut scratch = SlateScratch::default();
        scratch.configure(contracts);
        scratch.outputs(prog, input)
    }

    /// Collect a contract slate's traces for every input of one test case:
    /// element `i` is what [`ContractModel::collect_many_decoded`] returns
    /// for `inputs[i]`.
    ///
    /// One emulator serves every input (re-initialized by
    /// [`Emulator::reset`]), and the record's arenas keep the capacity the
    /// previous input grew them to.  [`SlateScratch::collect_in_place`] is
    /// the campaign's form of this pass: it groups the inputs into each
    /// contract's classes and builds no trace.
    pub fn collect_slate_decoded(
        contracts: &[Contract],
        prog: &DecodedProgram,
        inputs: &[Input],
    ) -> Vec<Result<Vec<ModelOutput>, Fault>> {
        let mut scratch = SlateScratch::default();
        scratch.configure(contracts);
        inputs.iter().map(|input| scratch.outputs(prog, input)).collect()
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

/// One exploration's segment and where it goes in the trace of every
/// contract that permits its site.
#[derive(Debug, Clone, Copy)]
struct Splice {
    site: Site,
    /// Position in the architectural stream's arena the segment is
    /// spliced in at.
    at: usize,
    /// The segment, `segments[start..end]` of its explorer.
    start: usize,
    end: usize,
    /// Piece hash of the segment, once the record's pieces are hashed.
    hash: u64,
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
    /// Every input's segments, back to back.
    segments: Vec<Observation>,
    /// Every input's splices, back to back.
    splices: Vec<Splice>,
    /// Where each input's splices start in `splices`, then their end.
    starts: Vec<usize>,
}

impl Explorer {
    /// Explore the path starting at `start` into the segment arena, to be
    /// spliced in at position `at` of the architectural stream's arena.
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
        let from = segments.len();
        explore_decoded(contract, emu, prog, start, skip_first_store, segments, &mut counts, 0, events);
        let end = segments.len();
        self.splices.push(Splice { site, at, start: from, end, hash: 0, counts });
    }
}

/// The architectural observations of one observation clause.
#[derive(Debug)]
struct Stream {
    clause: ObservationClause,
    /// Every input's observations, back to back.
    obs: Vec<Observation>,
    /// `prefix[j]` is the piece hash of `obs[..j]`, once the record's
    /// pieces are hashed.
    prefix: Vec<u64>,
    /// Where each input's observations start in `obs`, then their end.
    starts: Vec<usize>,
}

/// How one slate contract reads the record: its observation clause's
/// stream, and the segments of the sites its execution clause permits.
#[derive(Debug, Clone, Copy)]
struct View {
    stream: usize,
    explorer: Option<usize>,
    stores: bool,
    branches: bool,
}

impl View {
    fn permits(self, site: Site) -> bool {
        match site {
            Site::Store => self.stores,
            Site::Branch => self.branches,
        }
    }
}

/// A run of observations a contract trace is cut into.
#[derive(Clone, Copy)]
enum Piece<'a> {
    /// A run of the stream, starting at `start` in the stream's arena.
    Run { obs: &'a [Observation], start: usize },
    /// A segment, with its piece hash.
    Segment { obs: &'a [Observation], hash: u64 },
}

impl<'a> Piece<'a> {
    fn obs(self) -> &'a [Observation] {
        match self {
            Piece::Run { obs, .. } | Piece::Segment { obs, .. } => obs,
        }
    }
}

/// The shared record of a slate pass: one entry per input in each arena,
/// and how every slate contract reads it.
#[derive(Debug, Default)]
struct Record {
    /// One stream per observation clause of the current slate.
    streams: Vec<Stream>,
    explorers: Vec<Explorer>,
    /// One view per slate contract.
    views: Vec<View>,
    /// Whether the pass records the executed instructions.
    record_executed: bool,
    /// Every input's executed instructions, back to back.
    executed: Vec<ExecutedInstr>,
    /// Where each input's executed instructions start, then their end.
    executed_starts: Vec<usize>,
    /// Inputs recorded.
    inputs: usize,
    /// `pow[n]` is `PIECE_BASE^n`, up to the longest piece recorded.
    pow: Vec<u64>,
}

impl Record {
    /// Forget every input, keeping the arenas' capacity.  A fresh arena
    /// is sized for one input of `prog`: a program counter and a memory
    /// access per static instruction, and one executed-instruction record
    /// per static instruction (a loop-free path's upper bound).
    fn clear(&mut self, prog: &DecodedProgram, record_executed: bool) {
        let static_len = prog.body_len() + prog.num_blocks();
        for s in &mut self.streams {
            s.obs.clear();
            s.obs.reserve(2 * static_len);
            s.starts.clear();
            s.starts.push(0);
        }
        for e in &mut self.explorers {
            e.segments.clear();
            e.splices.clear();
            e.starts.clear();
            e.starts.push(0);
        }
        self.record_executed = record_executed;
        self.executed.clear();
        if record_executed {
            self.executed.reserve(static_len);
        }
        self.executed_starts.clear();
        self.executed_starts.push(0);
        self.inputs = 0;
    }

    /// Drop what a faulted pass left of the input after the last recorded
    /// one.
    fn rollback(&mut self) {
        for s in &mut self.streams {
            s.obs.truncate(s.starts[self.inputs]);
        }
        for e in &mut self.explorers {
            let first = e.starts[self.inputs];
            let segments = e.splices.get(first).map_or(e.segments.len(), |sp| sp.start);
            e.splices.truncate(first);
            e.segments.truncate(segments);
        }
        self.executed.truncate(self.executed_starts[self.inputs]);
    }

    /// Close the input the last pass recorded: mark where it ends.
    fn finish_input(&mut self) {
        for s in &mut self.streams {
            s.starts.push(s.obs.len());
        }
        for e in &mut self.explorers {
            e.starts.push(e.splices.len());
        }
        self.executed_starts.push(self.executed.len());
        self.inputs += 1;
    }

    /// Hash every piece of the record once: the prefix hashes of each
    /// stream, and each splice's segment.
    fn hash_pieces(&mut self) {
        let mut longest = 0;
        for s in &mut self.streams {
            s.prefix.clear();
            s.prefix.push(0);
            let mut h = 0;
            for &o in &s.obs {
                h = piece_step(h, o);
                s.prefix.push(h);
            }
            longest = s.starts.windows(2).map(|w| w[1] - w[0]).fold(longest, usize::max);
        }
        for e in &mut self.explorers {
            for sp in &mut e.splices {
                let segment = &e.segments[sp.start..sp.end];
                sp.hash = segment.iter().fold(0, |h, &o| piece_step(h, o));
                longest = longest.max(segment.len());
            }
        }
        if self.pow.is_empty() {
            self.pow.push(1);
        }
        while self.pow.len() <= longest {
            let last = *self.pow.last().expect("pow starts at 1");
            self.pow.push(last.wrapping_mul(PIECE_BASE));
        }
    }

    /// The splices of input `i` whose segments contract `k`'s trace
    /// splices in.
    fn permitted(&self, k: usize, i: usize) -> impl Iterator<Item = &Splice> {
        let view = self.views[k];
        let splices = match view.explorer {
            Some(e) => {
                let e = &self.explorers[e];
                &e.splices[e.starts[i]..e.starts[i + 1]]
            }
            None => &[],
        };
        splices.iter().filter(move |sp| view.permits(sp.site))
    }

    /// Visit the pieces of contract `k`'s trace of input `i` in order:
    /// stream runs alternating with the segments of the permitted splices.
    fn for_each_piece<'a>(&'a self, k: usize, i: usize, mut f: impl FnMut(Piece<'a>)) {
        let view = self.views[k];
        let stream = &self.streams[view.stream];
        let segments = view.explorer.map_or(&[][..], |e| &self.explorers[e].segments);
        let mut from = stream.starts[i];
        for sp in self.permitted(k, i) {
            f(Piece::Run { obs: &stream.obs[from..sp.at], start: from });
            f(Piece::Segment { obs: &segments[sp.start..sp.end], hash: sp.hash });
            from = sp.at;
        }
        f(Piece::Run { obs: &stream.obs[from..stream.starts[i + 1]], start: from });
    }

    /// Length of contract `k`'s trace of input `i`.
    fn len(&self, k: usize, i: usize) -> usize {
        let stream = &self.streams[self.views[k].stream];
        let segments: usize = self.permitted(k, i).map(|sp| sp.end - sp.start).sum();
        stream.starts[i + 1] - stream.starts[i] + segments
    }

    /// The piece hash of contract `k`'s trace of input `i`, composed from
    /// its pieces' hashes at O(splices) cost; the pieces must be hashed.
    fn key(&self, k: usize, i: usize) -> u64 {
        let (prefix, pow) = (&self.streams[self.views[k].stream].prefix, &self.pow);
        let mut key = 0u64;
        self.for_each_piece(k, i, |p| {
            let len = p.obs().len();
            let hash = match p {
                Piece::Run { start, .. } => {
                    prefix[start + len].wrapping_sub(prefix[start].wrapping_mul(pow[len]))
                }
                Piece::Segment { hash, .. } => hash,
            };
            key = key.wrapping_mul(pow[len]).wrapping_add(hash);
        });
        key
    }

    /// Whether inputs `i` and `j` have equal traces under contract `k`;
    /// `buf` is scratch for input `j`'s trace.
    fn same(&self, k: usize, i: usize, j: usize, buf: &mut Vec<Observation>) -> bool {
        if self.len(k, i) != self.len(k, j) {
            return false;
        }
        buf.clear();
        self.for_each_piece(k, j, |p| buf.extend_from_slice(p.obs()));
        let (mut at, mut same) = (0, true);
        self.for_each_piece(k, i, |p| {
            let obs = p.obs();
            same &= buf[at..at + obs.len()] == *obs;
            at += obs.len();
        });
        same
    }

    /// Contract `k`'s trace of input `i`.
    fn trace(&self, k: usize, i: usize) -> CTrace {
        let mut obs = Vec::with_capacity(self.len(k, i));
        self.for_each_piece(k, i, |p| obs.extend_from_slice(p.obs()));
        CTrace::new(obs)
    }

    /// [`CTrace::digest`] of contract `k`'s trace of input `i`.
    fn digest(&self, k: usize, i: usize) -> u64 {
        let mut digest = DIGEST_BASIS;
        self.for_each_piece(k, i, |p| digest = digest_extend(digest, p.obs()));
        digest
    }

    /// Contract `k`'s speculative counters on input `i`.
    fn counts(&self, k: usize, i: usize) -> SpecCounts {
        self.permitted(k, i).fold(SpecCounts::default(), |c, sp| SpecCounts {
            paths: c.paths + sp.counts.paths,
            observations: c.observations + sp.counts.observations,
        })
    }

    /// The instructions input `i` executed.
    fn executed(&self, i: usize) -> &[ExecutedInstr] {
        &self.executed[self.executed_starts[i]..self.executed_starts[i + 1]]
    }
}

/// Marks an empty slot of [`SlateScratch`]'s class table.
const NO_CLASS: u32 = u32::MAX;

/// The contract model's working state for slate passes: the emulator, the
/// shared record of a pass and each contract's input classes.
///
/// One pass over a test case's inputs keeps a single record per input,
/// shared by every slate contract: the architectural observations of each
/// observation clause, and each exploration key's segments with the
/// positions they splice in at.  Each piece is hashed once (prefix hashes
/// over the streams, one hash per segment, with a polynomial hash in
/// wrapping `u64` arithmetic, which composes over concatenation), so a
/// contract's class key is composed from only the pieces its execution
/// clause permits, at O(splices) cost.  No contract's trace is built:
/// classes are grouped from the keys and an exact comparison of the
/// flattened pieces, and a trace or its digest is built only when asked
/// for.  The executed-instruction record is kept
/// only when the caller will read [`SlateScratch::class_members`].
///
/// A scratch kept across test cases (a campaign worker holds one for its
/// whole run) stops allocating once its arenas have grown to the largest
/// pass.  What a pass computes never depends on what the scratch ran
/// before: the emulator is re-initialized from each input, and every arena
/// is cleared before it is filled.
#[derive(Debug, Default)]
pub struct SlateScratch {
    record: Record,
    emu: Option<Emulator>,
    events: Events,
    /// Streams and explorers of an earlier slate, kept for the next
    /// slate's.
    spare_streams: Vec<Stream>,
    spare_explorers: Vec<Explorer>,
    /// Each contract's classes of the last pass: the first
    /// `class_counts[k]` entries of `classes[k]`; the rest keep their
    /// member buffers for the next pass.
    classes: Vec<Vec<InputClass>>,
    class_counts: Vec<usize>,
    /// The class table of one contract's grouping: open addressing by
    /// class key, each slot a class index or [`NO_CLASS`].
    table: Vec<u32>,
    /// The class key of each class of the contract being grouped.
    class_keys: Vec<u64>,
    /// Scratch for the trace of a class's first member.
    trace_buf: Vec<Observation>,
    /// Each input's shared executed-instruction record, built on first use.
    executed: Vec<Option<Arc<[ExecutedInstr]>>>,
    /// Give every trace class key 0, so grouping rests on the exact
    /// comparison alone.
    #[cfg(test)]
    collide_keys: bool,
}

impl SlateScratch {
    /// One slate pass over every input of a test case, grouped: afterwards
    /// [`SlateScratch::classes`]`(k)` holds contract `k`'s input classes,
    /// exactly as the analyzer's `Analyzer::input_classes` groups the
    /// traces [`ContractModel::collect_slate_decoded`] returns.  With
    /// `record_executed`, the pass also keeps what
    /// [`SlateScratch::class_members`] reads.
    ///
    /// # Errors
    /// The first input's fault; every contract then has no classes.
    pub fn collect_in_place(
        &mut self,
        contracts: &[Contract],
        prog: &DecodedProgram,
        inputs: &[Input],
        record_executed: bool,
    ) -> Result<(), Fault> {
        self.configure(contracts);
        self.record.clear(prog, record_executed);
        for input in inputs {
            if let Err(fault) = self.run(prog, input) {
                self.record.clear(prog, record_executed);
                self.group_all();
                return Err(fault);
            }
        }
        self.group_all();
        Ok(())
    }

    /// Contract `k`'s input classes of the last
    /// [`SlateScratch::collect_in_place`]: classes in order of first
    /// appearance, members ascending.
    pub fn classes(&self, k: usize) -> &[InputClass] {
        &self.classes[k][..self.class_counts[k]]
    }

    /// Contract `k`'s trace of input `i` in the last
    /// [`SlateScratch::collect_in_place`], built on demand.
    pub fn trace(&self, k: usize, i: usize) -> CTrace {
        self.record.trace(k, i)
    }

    /// [`CTrace::digest`] of contract `k`'s trace of input `i` in the last
    /// [`SlateScratch::collect_in_place`], computed without building the
    /// trace.
    pub fn ctrace_digest(&self, k: usize, i: usize) -> u64 {
        self.record.digest(k, i)
    }

    /// Contract `k`'s execution records of the members of its effective
    /// classes, class by class; every contract's record of one input
    /// shares one executed-instruction slice.
    ///
    /// # Panics
    /// If the last [`SlateScratch::collect_in_place`] did not record the
    /// executed instructions.
    pub fn class_members(&mut self, k: usize) -> Vec<Vec<ExecutionInfo>> {
        assert!(self.record.record_executed, "the pass did not record executed instructions");
        let SlateScratch { record, classes, class_counts, executed, .. } = self;
        classes[k][..class_counts[k]]
            .iter()
            .filter(|c| c.is_effective())
            .map(|c| {
                c.members
                    .iter()
                    .map(|&i| {
                        let arc = executed[i].get_or_insert_with(|| record.executed(i).into());
                        execution_info(arc, record.counts(k, i))
                    })
                    .collect()
            })
            .collect()
    }

    /// Lay the streams, explorers and views out for `contracts`, reusing
    /// the buffers of the previous layout.
    fn configure(&mut self, contracts: &[Contract]) {
        let record = &mut self.record;
        self.spare_streams.append(&mut record.streams);
        self.spare_explorers.append(&mut record.explorers);
        record.views.clear();
        for c in contracts {
            let stream = match record.streams.iter().position(|s| s.clause == c.observation) {
                Some(s) => s,
                None => {
                    let (obs, prefix, starts) = self
                        .spare_streams
                        .pop()
                        .map_or_else(Default::default, |s| (s.obs, s.prefix, s.starts));
                    record.streams.push(Stream { clause: c.observation, obs, prefix, starts });
                    record.streams.len() - 1
                }
            };
            let explorer = ExploreKey::of(c).map(|key| {
                let found = record
                    .explorers
                    .iter()
                    .position(|e| ExploreKey::of(&e.contract) == Some(key));
                let e = found.unwrap_or_else(|| {
                    let (segments, splices, starts) = self
                        .spare_explorers
                        .pop()
                        .map_or_else(Default::default, |e| (e.segments, e.splices, e.starts));
                    let (contract, stores, branches) = (c.clone(), false, false);
                    record.explorers.push(Explorer {
                        contract,
                        stream,
                        stores,
                        branches,
                        segments,
                        splices,
                        starts,
                    });
                    record.explorers.len() - 1
                });
                record.explorers[e].stores |= c.execution.permits_bpas();
                record.explorers[e].branches |= c.execution.permits_cond();
                e
            });
            record.views.push(View {
                stream,
                explorer,
                stores: explorer.is_some() && c.execution.permits_bpas(),
                branches: explorer.is_some() && c.execution.permits_cond(),
            });
        }
    }

    /// Record one input: one architectural execution, recorded once per
    /// stream, and each permitted speculative site explored once per
    /// explorer.  A faulting input leaves nothing behind.
    fn run(&mut self, prog: &DecodedProgram, input: &Input) -> Result<(), Fault> {
        let result = self.pass(prog, input);
        match result {
            Ok(()) => self.record.finish_input(),
            Err(_) => self.record.rollback(),
        }
        result
    }

    fn pass(&mut self, prog: &DecodedProgram, input: &Input) -> Result<(), Fault> {
        let SlateScratch { record, emu, events, .. } = self;
        let Record { streams, explorers, record_executed, executed, .. } = record;
        let emu = match emu {
            Some(emu) => {
                emu.reset(prog.sandbox(), input);
                emu
            }
            None => emu.insert(Emulator::new(prog.sandbox(), input)),
        };

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
                if *record_executed {
                    executed.push(ContractModel::record_decoded_instr(pos, d, buf.events()));
                }
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
                if *record_executed {
                    executed.push(ContractModel::record_decoded_terminator(pos, term, term_events));
                }
                for s in streams.iter_mut() {
                    record_mem_events(s.clause, true, term_events, &mut s.obs);
                }
                match next {
                    Some(b) => pos = Pos { block: b, idx: 0 },
                    None => break,
                }
            }
        }
        Ok(())
    }

    /// Group the recorded inputs into every contract's classes.
    fn group_all(&mut self) {
        let (contracts, inputs) = (self.record.views.len(), self.record.inputs);
        self.record.hash_pieces();
        self.executed.clear();
        self.executed.resize(inputs, None);
        self.class_counts.clear();
        self.class_counts.resize(contracts, 0);
        if self.classes.len() < contracts {
            self.classes.resize_with(contracts, Vec::new);
        }
        for k in 0..contracts {
            self.group(k);
        }
    }

    /// Group the recorded inputs into contract `k`'s classes: by class key
    /// in an open-addressed table, and an input joins a class only if its
    /// trace equals the class's first member's, so colliding keys still
    /// form separate classes.
    fn group(&mut self, k: usize) {
        #[cfg(test)]
        let collide_keys = self.collide_keys;
        let SlateScratch { record, classes, class_counts, table, class_keys, trace_buf, .. } = self;
        let classes = &mut classes[k];
        let bits = (2 * record.inputs).next_power_of_two().max(2).trailing_zeros();
        let mask = (1usize << bits) - 1;
        table.clear();
        table.resize(mask + 1, NO_CLASS);
        class_keys.clear();
        let mut count = 0;
        for i in 0..record.inputs {
            let key = record.key(k, i);
            #[cfg(test)]
            let key = if collide_keys { 0 } else { key };
            let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
            loop {
                let c = table[slot] as usize;
                if table[slot] == NO_CLASS {
                    table[slot] = count as u32;
                    class_keys.push(key);
                    match classes.get_mut(count) {
                        Some(class) => class.members.clear(),
                        None => classes.push(InputClass { members: Vec::new() }),
                    }
                    classes[count].members.push(i);
                    count += 1;
                    break;
                }
                if class_keys[c] == key && record.same(k, i, classes[c].members[0], trace_buf) {
                    classes[c].members.push(i);
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        class_counts[k] = count;
    }

    /// Record `input` alone and build every slate contract's output.
    fn outputs(&mut self, prog: &DecodedProgram, input: &Input) -> Result<Vec<ModelOutput>, Fault> {
        self.record.clear(prog, true);
        self.run(prog, input)?;
        let record = &self.record;
        let executed: Arc<[ExecutedInstr]> = record.executed(0).into();
        let outputs = (0..record.views.len()).map(|k| ModelOutput {
            trace: record.trace(k, 0),
            info: execution_info(&executed, record.counts(k, 0)),
        });
        Ok(outputs.collect())
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

    /// Inputs with repeats, so that classes have several members: `x` and
    /// `y` as in Figure 1, and for the store-bypass gadget a stale value
    /// and a stored value that follow them.
    fn figure1_inputs(tc: &TestCase) -> Vec<Input> {
        [(0x100, 20), (0x100, 5), (0x40, 0x80), (0x100, 20), (0x40, 0xc0), (0x100, 5), (0x80, 3)]
            .map(|(x, y)| {
                let mut input = input_xy(tc, x, y);
                input.write_mem_u64(0, x << 2);
                input.set_reg(Reg::Rdx, y << 6);
                input
            })
            .into()
    }

    /// Group traces by equality, first appearance first.
    fn naive_classes(traces: &[CTrace]) -> Vec<InputClass> {
        let mut classes: Vec<InputClass> = Vec::new();
        for (i, t) in traces.iter().enumerate() {
            match classes.iter_mut().find(|c| traces[c.members[0]] == *t) {
                Some(c) => c.members.push(i),
                None => classes.push(InputClass { members: vec![i] }),
            }
        }
        classes
    }

    /// The slate pass's classes, traces and digests against the traces
    /// [`ContractModel::collect_slate_decoded`] materializes.
    fn assert_classes_match_traces(scratch: &mut SlateScratch) {
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
            let inputs = figure1_inputs(&tc);
            let prog = DecodedProgram::decode(&tc).unwrap();
            scratch.collect_in_place(&contracts, &prog, &inputs, false).unwrap();
            let outs = ContractModel::collect_slate_decoded(&contracts, &prog, &inputs);
            for (k, c) in contracts.iter().enumerate() {
                let traces: Vec<CTrace> =
                    outs.iter().map(|o| o.as_ref().unwrap()[k].trace.clone()).collect();
                assert_eq!(scratch.classes(k), &naive_classes(&traces)[..], "{}", c.name());
                for (i, t) in traces.iter().enumerate() {
                    assert_eq!(&scratch.trace(k, i), t);
                    assert_eq!(scratch.ctrace_digest(k, i), t.digest());
                }
            }
            assert!((0..contracts.len()).any(|k| scratch.classes(k).len() > 1));
            assert!((0..contracts.len()).any(|k| scratch.classes(k)[0].is_effective()));
        }
    }

    #[test]
    fn slate_classes_group_the_materialized_traces() {
        assert_classes_match_traces(&mut SlateScratch::default());
    }

    #[test]
    fn colliding_class_keys_still_split_into_classes() {
        // Every class key is 0, so every input probes the same slot and
        // only the exact comparison tells the classes apart.
        assert_classes_match_traces(&mut SlateScratch { collide_keys: true, ..Default::default() });
    }

    /// Record one input by hand: its architectural stream, and segments
    /// spliced in at offsets of that stream.
    fn record_input(scratch: &mut SlateScratch, stream: &[Observation], splices: &[(usize, &[Observation])]) {
        let record = &mut scratch.record;
        let base = record.streams[0].obs.len();
        record.streams[0].obs.extend_from_slice(stream);
        let e = &mut record.explorers[0];
        for &(at, segment) in splices {
            let start = e.segments.len();
            e.segments.extend_from_slice(segment);
            let end = e.segments.len();
            let counts = SpecCounts::default();
            e.splices.push(Splice { site: Site::Branch, at: base + at, start, end, hash: 0, counts });
        }
        record.finish_input();
    }

    #[test]
    fn equal_traces_spliced_at_different_positions_share_a_class() {
        let (a, b, c) = (Observation::MemAddr(0x10), Observation::Pc(0x20), Observation::MemAddr(0x30));
        let mut scratch = SlateScratch::default();
        scratch.configure(&[Contract::mem_cond()]);
        scratch.record.clear(&DecodedProgram::decode(&figure1()).unwrap(), false);
        // Inputs 0 to 3 all flatten to [a, b, c]; input 4 to [a, c, b].
        record_input(&mut scratch, &[a, b], &[(2, &[c])]);
        record_input(&mut scratch, &[a, c], &[(1, &[b])]);
        record_input(&mut scratch, &[a, b, c], &[]);
        record_input(&mut scratch, &[], &[(0, &[a]), (0, &[]), (0, &[b, c])]);
        record_input(&mut scratch, &[a, b], &[(1, &[c])]);
        scratch.group_all();
        let key = scratch.record.key(0, 0);
        assert!((1..4).all(|i| scratch.record.key(0, i) == key));
        assert_ne!(scratch.record.key(0, 4), key);
        let classes: Vec<&[usize]> = scratch.classes(0).iter().map(|c| &c.members[..]).collect();
        assert_eq!(classes, [&[0, 1, 2, 3][..], &[4]]);
        assert_eq!(scratch.trace(0, 3), CTrace::new(vec![a, b, c]));
        assert_eq!(scratch.trace(0, 4), CTrace::new(vec![a, c, b]));
        assert_eq!(scratch.ctrace_digest(0, 1), CTrace::new(vec![a, b, c]).digest());
    }

    #[test]
    fn class_members_share_each_inputs_executed_record() {
        let contracts = Contract::table3_contracts();
        let tc = figure1();
        let inputs = figure1_inputs(&tc);
        let prog = DecodedProgram::decode(&tc).unwrap();
        let mut scratch = SlateScratch::default();
        scratch.collect_in_place(&contracts, &prog, &inputs, true).unwrap();
        let outs = ContractModel::collect_slate_decoded(&contracts, &prog, &inputs);
        let mut shared: Vec<Option<Arc<[ExecutedInstr]>>> = vec![None; inputs.len()];
        for k in 0..contracts.len() {
            let members = scratch.class_members(k);
            let effective = scratch.classes(k).iter().filter(|c| c.is_effective());
            assert_eq!(effective.clone().count(), members.len());
            for (class, infos) in effective.zip(&members) {
                assert_eq!(class.members.len(), infos.len());
                for (&i, info) in class.members.iter().zip(infos) {
                    assert_eq!(info, &outs[i].as_ref().unwrap()[k].info);
                    let first = shared[i].get_or_insert_with(|| Arc::clone(&info.executed));
                    assert!(Arc::ptr_eq(first, &info.executed));
                }
            }
        }
        assert!(shared.iter().any(Option::is_some));
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
