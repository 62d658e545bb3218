//! The speculative CPU simulator.

use crate::config::UarchConfig;
use crate::predictors::{DirectionPredictor, ReturnPredictor, TargetPredictor};
use crate::store_buffer::{StoreBuffer, StoreBufferEntry};
use crate::timing::Timing;
use crate::CpuUnderTest;
use rvz_cache::{Cache, CacheConfig};
use rvz_emu::{ArchState, Emulator, EventBuf, Fault, MemEventKind};
use rvz_isa::{
    BlockId, DecodedInstr, DecodedOp, DecodedProgram, DecodedTerm, Input, Instr, Reg,
    SandboxLayout, SrcOp, Terminator, TestCase, Width,
};
use serde::{Deserialize, Serialize};

/// Per-run options chosen by the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Enable microcode assists: the accessed-bit of one sandbox page is
    /// cleared before the run, so the first load from that page triggers an
    /// assist (the paper's `*+Assist` executor mode, §5.3).
    pub enable_assists: bool,
}

impl RunOptions {
    /// Options with microcode assists enabled.
    pub fn with_assists() -> RunOptions {
        RunOptions { enable_assists: true }
    }
}

/// Statistics reported by one run of the CPU under test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Architecturally executed instructions (including terminators).
    pub executed_instructions: usize,
    /// Speculation episodes entered (mispredictions, bypasses, assists).
    pub speculation_episodes: usize,
    /// Instructions executed transiently on speculative paths.
    pub transient_instructions: usize,
    /// Conditional-branch mispredictions.
    pub mispredictions: usize,
    /// Store-bypass (Spectre V4) events.
    pub store_bypasses: usize,
    /// Microcode assists triggered.
    pub assists: usize,
}

/// Maximum architecturally executed instructions per run.
const MAX_ARCH_STEPS: usize = 4096;

/// Position of an instruction inside a test case; `idx == body length`
/// denotes the terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    block: BlockId,
    idx: usize,
}

/// Transient value injection applied to the first load of a speculation
/// episode (stale store-buffer data for V4, fill-buffer data for MDS, zero
/// for LVI-Null).
#[derive(Debug, Clone, Copy)]
struct Injection {
    addr: u64,
    width: Width,
    value: u64,
}

/// The black-box speculative CPU.
///
/// See the crate documentation for the list of modelled mechanisms; the
/// executor interacts with it exclusively through [`CpuUnderTest`].
#[derive(Debug, Clone)]
pub struct SpecCpu {
    config: UarchConfig,
    cache: Cache,
    branch_predictor: Box<dyn DirectionPredictor>,
    btb: Box<dyn TargetPredictor>,
    rsb: Box<dyn ReturnPredictor>,
    /// Last data value moved through the memory subsystem — the stale
    /// line-fill-buffer content forwarded by MDS-vulnerable parts.
    fill_buffer: u64,
    /// The emulator of the last run, holding its final architectural state.
    /// [`CpuUnderTest::run_decoded`] re-initializes it in place from each
    /// input, so a run allocates nothing for the sandbox.
    emu: Option<Emulator>,
    /// The store buffer, drained at the start of each decoded run and kept
    /// for its allocation.
    store_buffer: StoreBuffer,
}

/// Per-run mutable bookkeeping.
struct RunCtx {
    store_buffer: StoreBuffer,
    outcome: RunOutcome,
    /// `Some(page)` while the accessed-bit of that sandbox page is still
    /// clear, i.e. the next access to it will trigger an assist.
    assist_armed: Option<u64>,
}

impl SpecCpu {
    /// Create a CPU with the given micro-architecture configuration and an
    /// L1D-sized cache.
    pub fn new(config: UarchConfig) -> SpecCpu {
        let branch_predictor = config.predictors.build_direction();
        let btb = config.predictors.build_target();
        let rsb = config.predictors.build_return();
        SpecCpu {
            config,
            cache: Cache::new(CacheConfig::l1d()),
            branch_predictor,
            btb,
            rsb,
            fill_buffer: 0,
            emu: None,
            store_buffer: StoreBuffer::new(),
        }
    }

    /// The micro-architecture configuration.
    pub fn config(&self) -> &UarchConfig {
        &self.config
    }

    /// Immutable access to the cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The architectural state the last [`run_decoded`](CpuUnderTest::run_decoded)
    /// or [`run_reference`](SpecCpu::run_reference) ended in (where it
    /// faulted, for a faulting run); `None` before the first run.
    pub fn final_state(&self) -> Option<&ArchState> {
        self.emu.as_ref().map(Emulator::state)
    }

    /// Conditional-branch predictor statistics `(predictions, mispredictions)`.
    ///
    /// They count the runs this CPU simulated.  An executor pass replayed
    /// from its fixed point (see [`CpuUnderTest::functional_state`]) runs
    /// nothing, so it adds nothing here.
    pub fn predictor_stats(&self) -> (u64, u64) {
        (self.branch_predictor.predictions(), self.branch_predictor.mispredictions())
    }

    // --- latency helpers ----------------------------------------------------

    /// Memory-latency component, known only after the cache was consulted.
    fn mem_latency(&self, load_hit: Option<bool>) -> u64 {
        match load_hit {
            Some(true) => self.config.load_hit_latency,
            Some(false) => self.config.load_miss_latency,
            None => 0,
        }
    }

    /// Operation-latency component.  Must be evaluated *before* the
    /// instruction executes, because variable-latency instructions (DIV)
    /// derive their latency from their input operand values.
    fn op_latency(&self, instr: &Instr, emu: &Emulator) -> u64 {
        match instr {
            Instr::Div { src } => {
                let divisor = match src {
                    rvz_isa::Operand::Reg(r, w) => w.truncate(emu.state().reg(*r)),
                    rvz_isa::Operand::Imm(v) => *v as u64,
                    rvz_isa::Operand::Mem(m, w) => {
                        let addr = emu.effective_addr(m);
                        emu.state().read_mem(addr, *w).unwrap_or(1)
                    }
                }
                .max(1);
                self.config.div_latency(
                    emu.state().reg(Reg::Rax),
                    emu.state().reg(Reg::Rdx),
                    divisor,
                )
            }
            Instr::Imul { .. } => 3,
            Instr::Lfence | Instr::Mfence => 2,
            _ => self.config.alu_latency,
        }
    }

    /// [`SpecCpu::op_latency`] over a decoded instruction.
    fn op_latency_decoded(&self, op: &DecodedOp, emu: &Emulator) -> u64 {
        match op {
            DecodedOp::Div { src, .. } => {
                let divisor = match src {
                    SrcOp::Reg(r, w) => w.truncate(emu.state().reg(*r)),
                    SrcOp::Imm(v) => *v,
                    SrcOp::Mem(m, w) => {
                        let addr = emu.effective_addr(m);
                        emu.state().read_mem(addr, *w).unwrap_or(1)
                    }
                }
                .max(1);
                self.config.div_latency(
                    emu.state().reg(Reg::Rax),
                    emu.state().reg(Reg::Rdx),
                    divisor,
                )
            }
            DecodedOp::Imul { .. } => 3,
            DecodedOp::Fence => 2,
            _ => self.config.alu_latency,
        }
    }

    /// Touch the cache for a memory access, returning whether it hit.
    fn touch_cache(&mut self, addr: u64) -> bool {
        self.cache.access(addr)
    }

    // --- speculation episodes -------------------------------------------------

    /// Run a speculative path starting at `pos` until the squash cycle, the
    /// speculation window, a fence, or the end of the program.  All
    /// architectural effects are rolled back; only the cache (and the
    /// transient-instruction counters) keep the footprint.
    #[allow(clippy::too_many_arguments)]
    fn speculate(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        tc: &TestCase,
        start: Pos,
        injection: Option<Injection>,
        squash_cycle: u64,
        depth: usize,
    ) {
        if self.config.speculation_window == 0 || depth > self.config.max_nesting {
            return;
        }
        ctx.outcome.speculation_episodes += 1;
        let emu_cp = emu.checkpoint();
        let timing_cp = timing.clone();
        let sb_cp = ctx.store_buffer.clone();

        // Apply the transient value injection by temporarily rewriting the
        // injected location; the checkpoint restore undoes it.
        if let Some(inj) = injection {
            let _ = emu.state_mut().write_mem(inj.addr, inj.width, inj.value);
        }

        let mut fuel = self.config.speculation_window;
        let mut pos = start;
        'path: while fuel > 0 {
            let block = match tc.block(pos.block) {
                Some(b) => b,
                None => break,
            };
            if pos.idx < block.instrs.len() {
                let instr = &block.instrs[pos.idx];
                if instr.is_fence() {
                    // A serializing instruction on the wrong path stalls it
                    // until the squash arrives.
                    break 'path;
                }
                let issue = timing.issue_cycle(&instr.reads_regs(), instr.reads_flags());
                if issue > squash_cycle {
                    break 'path;
                }
                // Nested triggers (assists / store bypass) inside the window.
                if depth < self.config.max_nesting {
                    self.maybe_nested_speculation(emu, timing, ctx, tc, pos, instr, issue, depth);
                }
                let op_latency = self.op_latency(instr, emu);
                let mut load_hit = None;
                let fx = match emu.exec_instr(instr) {
                    Ok(fx) => fx,
                    // Transient faults are suppressed: the wrong path simply
                    // stops making progress.
                    Err(_) => break 'path,
                };
                for ev in &fx.mem_events {
                    match ev.kind {
                        MemEventKind::Read => {
                            let hit = self.touch_cache(ev.addr);
                            if load_hit.is_none() {
                                load_hit = Some(hit);
                            }
                        }
                        MemEventKind::Write => {
                            if self.config.spec_store_touches_cache {
                                self.touch_cache(ev.addr);
                            }
                        }
                    }
                }
                let latency = op_latency + self.mem_latency(load_hit);
                timing.retire(issue, latency, &instr.writes_regs(), instr.writes_flags());
                ctx.outcome.transient_instructions += 1;
                fuel -= 1;
                pos.idx += 1;
            } else {
                // Speculative control flow follows the predictors.
                let issue = timing.issue_cycle(
                    &block.terminator.reads_regs(),
                    block.terminator.reads_flags(),
                );
                if issue > squash_cycle {
                    break 'path;
                }
                timing.retire(issue, 1, &[], false);
                ctx.outcome.transient_instructions += 1;
                fuel -= 1;
                let next = match &block.terminator {
                    Terminator::Exit => None,
                    Terminator::Jmp { target } => Some(*target),
                    Terminator::CondJmp { cond, taken, not_taken } => {
                        // Inside the window the front end follows the
                        // predictor; if it has no strong opinion we follow
                        // the speculatively computed flags.
                        let dir = if self.branch_predictor.predict(pos.block.index()) {
                            true
                        } else {
                            emu.eval_cond(*cond)
                        };
                        Some(if dir { *taken } else { *not_taken })
                    }
                    Terminator::IndirectJmp { src, table } => {
                        let predicted = self.btb.predict(pos.block.index());
                        predicted.or_else(|| {
                            let v = emu.state().reg(*src) as usize;
                            Some(table[v % table.len()])
                        })
                    }
                    Terminator::Call { target, return_to } => {
                        let _ = emu.push_ret(return_to.index() as u64);
                        Some(*target)
                    }
                    Terminator::Ret => match emu.pop_ret() {
                        Ok((v, _)) => Some(BlockId((v as usize) % tc.blocks().len())),
                        Err(_) => None,
                    },
                };
                match next {
                    Some(b) => pos = Pos { block: b, idx: 0 },
                    None => break 'path,
                }
            }
        }

        emu.restore(emu_cp);
        *timing = timing_cp;
        ctx.store_buffer = sb_cp;
    }

    /// Check whether the instruction at `pos` triggers a value-injection
    /// speculation episode (store bypass or microcode assist) and run it.
    #[allow(clippy::too_many_arguments)]
    fn maybe_nested_speculation(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        tc: &TestCase,
        pos: Pos,
        instr: &Instr,
        issue: u64,
        depth: usize,
    ) {
        if let Some((inj, squash, kind)) = self.injection_trigger(emu, tc, ctx, instr, issue) {
            match kind {
                TriggerKind::Bypass => ctx.outcome.store_bypasses += 1,
                TriggerKind::Assist => {
                    ctx.outcome.assists += 1;
                    ctx.assist_armed = None;
                }
            }
            self.speculate(emu, timing, ctx, tc, pos, Some(inj), squash, depth + 1);
        }
    }

    /// Determine whether a load in `instr` triggers store-bypass or assist
    /// speculation, returning the injection, squash cycle and trigger kind.
    fn injection_trigger(
        &self,
        emu: &Emulator,
        tc: &TestCase,
        ctx: &RunCtx,
        instr: &Instr,
        issue: u64,
    ) -> Option<(Injection, u64, TriggerKind)> {
        let (mem, width, _) = instr.mem_operands().into_iter().find(|(_, _, w)| !w)?;
        let addr = emu.effective_addr(&mem);

        // Microcode assist on the armed page takes precedence: the load
        // cannot complete at all until the assist finishes.
        if let Some(page) = ctx.assist_armed {
            if tc.sandbox().page_of(addr) == Some(page) {
                let value = if self.config.mds_vulnerable {
                    self.fill_buffer
                } else if self.config.lvi_null_injection {
                    0
                } else {
                    // Patched against both: the assist only delays the load.
                    emu.state().read_mem(addr, width).unwrap_or(0)
                };
                let squash = issue + self.config.assist_latency;
                return Some((Injection { addr, width, value }, squash, TriggerKind::Assist));
            }
        }

        // Speculative store bypass (Spectre V4).
        if self.config.bypass_active() {
            if let Some(entry) = ctx.store_buffer.bypass_candidate(addr, width.bytes(), issue) {
                let squash = entry.addr_ready_cycle + self.config.misprediction_penalty;
                return Some((
                    Injection { addr, width, value: width.truncate(entry.stale_value) },
                    squash,
                    TriggerKind::Bypass,
                ));
            }
        }
        None
    }

    // --- architectural execution ------------------------------------------------

    /// Execute one architectural (committed) instruction, spawning
    /// speculation episodes as needed.
    fn exec_arch_instr(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        tc: &TestCase,
        pos: Pos,
        instr: &Instr,
    ) -> Result<(), Fault> {
        if instr.is_fence() {
            timing.barrier();
            ctx.store_buffer.drain();
            ctx.outcome.executed_instructions += 1;
            return Ok(());
        }
        let issue = timing.issue_cycle(&instr.reads_regs(), instr.reads_flags());

        // Value-injection speculation (V4 / MDS / LVI) triggered by loads.
        if let Some((inj, squash, kind)) = self.injection_trigger(emu, tc, ctx, instr, issue) {
            match kind {
                TriggerKind::Bypass => ctx.outcome.store_bypasses += 1,
                TriggerKind::Assist => {
                    ctx.outcome.assists += 1;
                    ctx.assist_armed = None;
                }
            }
            self.speculate(emu, timing, ctx, tc, pos, Some(inj), squash, 1);
            // After an assist the load re-issues once the assist completes.
            if kind == TriggerKind::Assist {
                timing.advance_to(issue + self.config.assist_latency);
            }
        }

        // Record stale values for stores before they overwrite memory.
        let mut pending_stores: Vec<(u64, u64, u64)> = Vec::new(); // (addr, len, stale)
        for (mem, width, is_write) in instr.mem_operands() {
            if is_write {
                let addr = emu.effective_addr(&mem);
                let stale = emu.state().read_mem(addr, width).unwrap_or(0);
                let addr_ready = mem
                    .address_regs()
                    .iter()
                    .map(|r| timing.reg_ready(*r))
                    .max()
                    .unwrap_or(0)
                    .max(issue)
                    + self.config.store_address_delay;
                pending_stores.push((addr, width.bytes(), stale));
                // Record immediately so younger loads in later instructions
                // see this store as a bypass candidate.
                ctx.store_buffer.push(StoreBufferEntry {
                    addr,
                    len: width.bytes(),
                    stale_value: stale,
                    new_value: 0, // filled below once the store executes
                    addr_ready_cycle: addr_ready,
                    issue_cycle: issue,
                });
            }
        }

        let op_latency = self.op_latency(instr, emu);
        let fx = emu.exec_instr(instr)?;
        let mut load_hit = None;
        for ev in &fx.mem_events {
            let hit = self.touch_cache(ev.addr);
            if ev.kind == MemEventKind::Read && load_hit.is_none() {
                load_hit = Some(hit);
            }
            // Every committed transfer refreshes the fill buffer contents.
            self.fill_buffer = ev.value;
            // A committed access to the armed page sets the accessed bit
            // even if it was a store (no injection, but no later assist).
            if let Some(page) = ctx.assist_armed {
                if tc.sandbox().page_of(ev.addr) == Some(page) && ev.kind == MemEventKind::Write {
                    ctx.assist_armed = None;
                }
            }
        }

        let latency = op_latency + self.mem_latency(load_hit);
        timing.retire(issue, latency, &instr.writes_regs(), instr.writes_flags());
        let _ = pending_stores;
        ctx.outcome.executed_instructions += 1;
        Ok(())
    }

    /// Execute an architectural terminator, spawning a misprediction episode
    /// when a predictor disagrees with the resolved direction/target.
    fn exec_arch_terminator(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        tc: &TestCase,
        pos: Pos,
    ) -> Result<Option<BlockId>, Fault> {
        let block = tc.block(pos.block).expect("valid block");
        let term = &block.terminator;
        let site = pos.block.index();
        let issue = timing.issue_cycle(&term.reads_regs(), term.reads_flags());
        ctx.outcome.executed_instructions += 1;

        let next = match term {
            Terminator::Exit => None,
            Terminator::Jmp { target } => {
                timing.retire(issue, 1, &[], false);
                Some(*target)
            }
            Terminator::CondJmp { cond, taken, not_taken } => {
                let actual = emu.eval_cond(*cond);
                let predicted = self.branch_predictor.predict(site);
                self.branch_predictor.update(site, actual);
                if predicted != actual {
                    ctx.outcome.mispredictions += 1;
                    let wrong = if predicted { *taken } else { *not_taken };
                    let squash = issue + self.config.misprediction_penalty;
                    self.speculate(
                        emu,
                        timing,
                        ctx,
                        tc,
                        Pos { block: wrong, idx: 0 },
                        None,
                        squash,
                        1,
                    );
                }
                timing.retire(issue, 1, &[], false);
                Some(if actual { *taken } else { *not_taken })
            }
            Terminator::IndirectJmp { src, table } => {
                let v = emu.state().reg(*src) as usize;
                let actual = table[v % table.len()];
                let predicted = self.btb.predict(site);
                self.btb.update(site, actual);
                if let Some(p) = predicted {
                    if p != actual {
                        ctx.outcome.mispredictions += 1;
                        let squash = issue + self.config.misprediction_penalty;
                        self.speculate(emu, timing, ctx, tc, Pos { block: p, idx: 0 }, None, squash, 1);
                    }
                }
                timing.retire(issue, 1, &[], false);
                Some(actual)
            }
            Terminator::Call { target, return_to } => {
                let ev = emu.push_ret(return_to.index() as u64)?;
                self.touch_cache(ev.addr);
                self.fill_buffer = ev.value;
                self.rsb.push(*return_to);
                timing.retire(issue, 1, &[], false);
                Some(*target)
            }
            Terminator::Ret => {
                let predicted = self.rsb.pop_predict();
                let (v, ev) = emu.pop_ret()?;
                self.touch_cache(ev.addr);
                let actual = BlockId((v as usize) % tc.blocks().len());
                if let Some(p) = predicted {
                    if p != actual {
                        ctx.outcome.mispredictions += 1;
                        let squash = issue + self.config.misprediction_penalty;
                        self.speculate(emu, timing, ctx, tc, Pos { block: p, idx: 0 }, None, squash, 1);
                    }
                }
                timing.retire(issue, 1, &[], false);
                Some(actual)
            }
        };
        Ok(next)
    }

    // --- decoded fast path --------------------------------------------------

    /// [`SpecCpu::speculate`] over a pre-decoded program, rolling back with a
    /// delta checkpoint (register snapshot + memory undo journal) instead of
    /// a full architectural-state clone.  The store buffer needs no
    /// checkpoint: only committed stores enter it
    /// ([`SpecCpu::exec_arch_instr_decoded`]), and a speculative path only
    /// reads it.
    #[allow(clippy::too_many_arguments)]
    fn speculate_decoded(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        prog: &DecodedProgram,
        start: Pos,
        injection: Option<Injection>,
        squash_cycle: u64,
        depth: usize,
    ) {
        if self.config.speculation_window == 0 || depth > self.config.max_nesting {
            return;
        }
        ctx.outcome.speculation_episodes += 1;
        let emu_cp = emu.begin_speculation();
        let timing_cp = timing.clone();

        // Apply the transient value injection through the journaled write so
        // the rollback undoes it.
        if let Some(inj) = injection {
            let _ = emu.write_mem(inj.addr, inj.width, inj.value);
        }

        let mut buf = EventBuf::new();
        let mut fuel = self.config.speculation_window;
        let mut pos = start;
        'path: while fuel > 0 {
            let body = prog.body(pos.block);
            if pos.idx < body.len() {
                let d = &body[pos.idx];
                if d.is_fence {
                    // A serializing instruction on the wrong path stalls it
                    // until the squash arrives.
                    break 'path;
                }
                let issue = timing.issue_cycle(&d.reads_regs, d.reads_flags);
                if issue > squash_cycle {
                    break 'path;
                }
                // Nested triggers (assists / store bypass) inside the window.
                if depth < self.config.max_nesting {
                    self.maybe_nested_speculation_decoded(emu, timing, ctx, prog, pos, d, issue, depth);
                }
                let op_latency = self.op_latency_decoded(&d.op, emu);
                let mut load_hit = None;
                buf.clear();
                if emu.exec_decoded(&d.op, &mut buf).is_err() {
                    // Transient faults are suppressed: the wrong path simply
                    // stops making progress.
                    break 'path;
                }
                for ev in buf.events() {
                    match ev.kind {
                        MemEventKind::Read => {
                            let hit = self.touch_cache(ev.addr);
                            if load_hit.is_none() {
                                load_hit = Some(hit);
                            }
                        }
                        MemEventKind::Write => {
                            if self.config.spec_store_touches_cache {
                                self.touch_cache(ev.addr);
                            }
                        }
                    }
                }
                let latency = op_latency + self.mem_latency(load_hit);
                timing.retire(issue, latency, &d.writes_regs, d.writes_flags);
                ctx.outcome.transient_instructions += 1;
                fuel -= 1;
                pos.idx += 1;
            } else {
                // Speculative control flow follows the predictors.
                let term = prog.terminator(pos.block);
                let issue = timing.issue_cycle(&term.reads_regs, term.reads_flags);
                if issue > squash_cycle {
                    break 'path;
                }
                timing.retire(issue, 1, &[], false);
                ctx.outcome.transient_instructions += 1;
                fuel -= 1;
                let next = match &term.term {
                    DecodedTerm::Exit => None,
                    DecodedTerm::Jmp { target } => Some(*target),
                    DecodedTerm::CondJmp { cond, taken, not_taken } => {
                        // Inside the window the front end follows the
                        // predictor; if it has no strong opinion we follow
                        // the speculatively computed flags.
                        let dir = if self.branch_predictor.predict(pos.block.index()) {
                            true
                        } else {
                            emu.eval_cond(*cond)
                        };
                        Some(if dir { *taken } else { *not_taken })
                    }
                    DecodedTerm::IndirectJmp { src, table } => {
                        let predicted = self.btb.predict(pos.block.index());
                        predicted.or_else(|| {
                            let v = emu.state().reg(*src) as usize;
                            Some(table[v % table.len()])
                        })
                    }
                    DecodedTerm::Call { target, return_to } => {
                        let _ = emu.push_ret(return_to.index() as u64);
                        Some(*target)
                    }
                    DecodedTerm::Ret => match emu.pop_ret() {
                        Ok((v, _)) => Some(BlockId((v as usize) % prog.num_blocks())),
                        Err(_) => None,
                    },
                };
                match next {
                    Some(b) => pos = Pos { block: b, idx: 0 },
                    None => break 'path,
                }
            }
        }

        emu.rollback(emu_cp);
        *timing = timing_cp;
    }

    /// [`SpecCpu::maybe_nested_speculation`] over a pre-decoded program.
    #[allow(clippy::too_many_arguments)]
    fn maybe_nested_speculation_decoded(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        prog: &DecodedProgram,
        pos: Pos,
        d: &DecodedInstr,
        issue: u64,
        depth: usize,
    ) {
        if let Some((inj, squash, kind)) = self.injection_trigger_decoded(emu, prog, ctx, d, issue)
        {
            match kind {
                TriggerKind::Bypass => ctx.outcome.store_bypasses += 1,
                TriggerKind::Assist => {
                    ctx.outcome.assists += 1;
                    ctx.assist_armed = None;
                }
            }
            self.speculate_decoded(emu, timing, ctx, prog, pos, Some(inj), squash, depth + 1);
        }
    }

    /// [`SpecCpu::injection_trigger`] over a decoded instruction, using its
    /// pre-resolved memory-operand list.
    fn injection_trigger_decoded(
        &self,
        emu: &Emulator,
        prog: &DecodedProgram,
        ctx: &RunCtx,
        d: &DecodedInstr,
        issue: u64,
    ) -> Option<(Injection, u64, TriggerKind)> {
        let (mem, width, _) = d.mem_ops.iter().find(|(_, _, w)| !w)?;
        let addr = emu.effective_addr(mem);

        // Microcode assist on the armed page takes precedence: the load
        // cannot complete at all until the assist finishes.
        if let Some(page) = ctx.assist_armed {
            if prog.sandbox().page_of(addr) == Some(page) {
                let value = if self.config.mds_vulnerable {
                    self.fill_buffer
                } else if self.config.lvi_null_injection {
                    0
                } else {
                    // Patched against both: the assist only delays the load.
                    emu.state().read_mem(addr, *width).unwrap_or(0)
                };
                let squash = issue + self.config.assist_latency;
                return Some((
                    Injection { addr, width: *width, value },
                    squash,
                    TriggerKind::Assist,
                ));
            }
        }

        // Speculative store bypass (Spectre V4).
        if self.config.bypass_active() {
            if let Some(entry) = ctx.store_buffer.bypass_candidate(addr, width.bytes(), issue) {
                let squash = entry.addr_ready_cycle + self.config.misprediction_penalty;
                return Some((
                    Injection { addr, width: *width, value: width.truncate(entry.stale_value) },
                    squash,
                    TriggerKind::Bypass,
                ));
            }
        }
        None
    }

    /// [`SpecCpu::exec_arch_instr`] over a decoded instruction: no AST walk,
    /// no per-step metadata allocation, events in a fixed inline buffer.
    #[allow(clippy::too_many_arguments)]
    fn exec_arch_instr_decoded(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        prog: &DecodedProgram,
        pos: Pos,
        d: &DecodedInstr,
        buf: &mut EventBuf,
    ) -> Result<(), Fault> {
        if d.is_fence {
            timing.barrier();
            ctx.store_buffer.drain();
            ctx.outcome.executed_instructions += 1;
            return Ok(());
        }
        let issue = timing.issue_cycle(&d.reads_regs, d.reads_flags);

        // Value-injection speculation (V4 / MDS / LVI) triggered by loads.
        if let Some((inj, squash, kind)) = self.injection_trigger_decoded(emu, prog, ctx, d, issue)
        {
            match kind {
                TriggerKind::Bypass => ctx.outcome.store_bypasses += 1,
                TriggerKind::Assist => {
                    ctx.outcome.assists += 1;
                    ctx.assist_armed = None;
                }
            }
            self.speculate_decoded(emu, timing, ctx, prog, pos, Some(inj), squash, 1);
            // After an assist the load re-issues once the assist completes.
            if kind == TriggerKind::Assist {
                timing.advance_to(issue + self.config.assist_latency);
            }
        }

        // Record stale values for stores before they overwrite memory, so
        // younger loads see this store as a bypass candidate.
        for (mem, width, is_write) in d.mem_ops.iter() {
            if *is_write {
                let addr = emu.effective_addr(mem);
                let stale = emu.state().read_mem(addr, *width).unwrap_or(0);
                let addr_ready = mem
                    .address_regs()
                    .iter()
                    .map(|r| timing.reg_ready(*r))
                    .max()
                    .unwrap_or(0)
                    .max(issue)
                    + self.config.store_address_delay;
                ctx.store_buffer.push(StoreBufferEntry {
                    addr,
                    len: width.bytes(),
                    stale_value: stale,
                    new_value: 0,
                    addr_ready_cycle: addr_ready,
                    issue_cycle: issue,
                });
            }
        }

        let op_latency = self.op_latency_decoded(&d.op, emu);
        buf.clear();
        emu.exec_decoded(&d.op, buf)?;
        let mut load_hit = None;
        for ev in buf.events() {
            let hit = self.touch_cache(ev.addr);
            if ev.kind == MemEventKind::Read && load_hit.is_none() {
                load_hit = Some(hit);
            }
            // Every committed transfer refreshes the fill buffer contents.
            self.fill_buffer = ev.value;
            // A committed access to the armed page sets the accessed bit
            // even if it was a store (no injection, but no later assist).
            if let Some(page) = ctx.assist_armed {
                if prog.sandbox().page_of(ev.addr) == Some(page)
                    && ev.kind == MemEventKind::Write
                {
                    ctx.assist_armed = None;
                }
            }
        }

        let latency = op_latency + self.mem_latency(load_hit);
        timing.retire(issue, latency, &d.writes_regs, d.writes_flags);
        ctx.outcome.executed_instructions += 1;
        Ok(())
    }

    /// [`SpecCpu::exec_arch_terminator`] over a pre-decoded program.
    fn exec_arch_terminator_decoded(
        &mut self,
        emu: &mut Emulator,
        timing: &mut Timing,
        ctx: &mut RunCtx,
        prog: &DecodedProgram,
        pos: Pos,
    ) -> Result<Option<BlockId>, Fault> {
        let term = prog.terminator(pos.block);
        let site = pos.block.index();
        let issue = timing.issue_cycle(&term.reads_regs, term.reads_flags);
        ctx.outcome.executed_instructions += 1;

        let next = match &term.term {
            DecodedTerm::Exit => None,
            DecodedTerm::Jmp { target } => {
                timing.retire(issue, 1, &[], false);
                Some(*target)
            }
            DecodedTerm::CondJmp { cond, taken, not_taken } => {
                let actual = emu.eval_cond(*cond);
                let predicted = self.branch_predictor.predict(site);
                self.branch_predictor.update(site, actual);
                if predicted != actual {
                    ctx.outcome.mispredictions += 1;
                    let wrong = if predicted { *taken } else { *not_taken };
                    let squash = issue + self.config.misprediction_penalty;
                    self.speculate_decoded(
                        emu,
                        timing,
                        ctx,
                        prog,
                        Pos { block: wrong, idx: 0 },
                        None,
                        squash,
                        1,
                    );
                }
                timing.retire(issue, 1, &[], false);
                Some(if actual { *taken } else { *not_taken })
            }
            DecodedTerm::IndirectJmp { src, table } => {
                let v = emu.state().reg(*src) as usize;
                let actual = table[v % table.len()];
                let predicted = self.btb.predict(site);
                self.btb.update(site, actual);
                if let Some(p) = predicted {
                    if p != actual {
                        ctx.outcome.mispredictions += 1;
                        let squash = issue + self.config.misprediction_penalty;
                        self.speculate_decoded(
                            emu,
                            timing,
                            ctx,
                            prog,
                            Pos { block: p, idx: 0 },
                            None,
                            squash,
                            1,
                        );
                    }
                }
                timing.retire(issue, 1, &[], false);
                Some(actual)
            }
            DecodedTerm::Call { target, return_to } => {
                let ev = emu.push_ret(return_to.index() as u64)?;
                self.touch_cache(ev.addr);
                self.fill_buffer = ev.value;
                self.rsb.push(*return_to);
                timing.retire(issue, 1, &[], false);
                Some(*target)
            }
            DecodedTerm::Ret => {
                let predicted = self.rsb.pop_predict();
                let (v, ev) = emu.pop_ret()?;
                self.touch_cache(ev.addr);
                let actual = BlockId((v as usize) % prog.num_blocks());
                if let Some(p) = predicted {
                    if p != actual {
                        ctx.outcome.mispredictions += 1;
                        let squash = issue + self.config.misprediction_penalty;
                        self.speculate_decoded(
                            emu,
                            timing,
                            ctx,
                            prog,
                            Pos { block: p, idx: 0 },
                            None,
                            squash,
                            1,
                        );
                    }
                }
                timing.retire(issue, 1, &[], false);
                Some(actual)
            }
        };
        Ok(next)
    }

    /// Reference implementation of the run loop that re-walks the test-case
    /// AST per step and checkpoints speculation by full-state clone.
    ///
    /// Retained as the differential-testing oracle for
    /// [`CpuUnderTest::run_decoded`]: both paths must produce identical
    /// outcomes and identical cache/predictor state.
    ///
    /// # Errors
    /// Same as [`CpuUnderTest::run`].
    pub fn run_reference(
        &mut self,
        tc: &TestCase,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        let mut emu = Emulator::new(tc.sandbox(), input);
        let mut ctx = RunCtx {
            store_buffer: StoreBuffer::new(),
            outcome: RunOutcome::default(),
            assist_armed: assist_page(tc.sandbox(), opts),
        };
        let result = self.arch_loop_reference(&mut emu, &mut ctx, tc);
        self.emu = Some(emu);
        result.map(|()| ctx.outcome)
    }

    /// [`SpecCpu::run_reference`]'s architectural loop.
    fn arch_loop_reference(
        &mut self,
        emu: &mut Emulator,
        ctx: &mut RunCtx,
        tc: &TestCase,
    ) -> Result<(), Fault> {
        let mut timing = Timing::new();
        let mut pos = Pos { block: BlockId::ENTRY, idx: 0 };
        loop {
            if ctx.outcome.executed_instructions >= MAX_ARCH_STEPS {
                return Err(Fault::StepLimitExceeded);
            }
            let block = tc.block(pos.block).expect("valid block id");
            if pos.idx < block.instrs.len() {
                let instr = block.instrs[pos.idx].clone();
                self.exec_arch_instr(emu, &mut timing, ctx, tc, pos, &instr)?;
                pos.idx += 1;
            } else {
                match self.exec_arch_terminator(emu, &mut timing, ctx, tc, pos)? {
                    Some(next) => pos = Pos { block: next, idx: 0 },
                    None => return Ok(()),
                }
            }
        }
    }

    /// [`CpuUnderTest::run_decoded`]'s architectural loop.
    fn arch_loop_decoded(
        &mut self,
        emu: &mut Emulator,
        ctx: &mut RunCtx,
        prog: &DecodedProgram,
    ) -> Result<(), Fault> {
        let mut timing = Timing::new();
        let mut buf = EventBuf::new();
        let mut pos = Pos { block: BlockId::ENTRY, idx: 0 };
        loop {
            if ctx.outcome.executed_instructions >= MAX_ARCH_STEPS {
                return Err(Fault::StepLimitExceeded);
            }
            let body = prog.body(pos.block);
            if pos.idx < body.len() {
                let d = &body[pos.idx];
                self.exec_arch_instr_decoded(emu, &mut timing, ctx, prog, pos, d, &mut buf)?;
                pos.idx += 1;
            } else {
                match self.exec_arch_terminator_decoded(emu, &mut timing, ctx, prog, pos)? {
                    Some(next) => pos = Pos { block: next, idx: 0 },
                    None => return Ok(()),
                }
            }
        }
    }
}

/// The page whose accessed bit starts clear, if the run enables assists.
fn assist_page(sandbox: SandboxLayout, opts: &RunOptions) -> Option<u64> {
    opts.enable_assists.then(|| sandbox.assist_page.unwrap_or(0))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TriggerKind {
    Bypass,
    Assist,
}

impl CpuUnderTest for SpecCpu {
    fn name(&self) -> String {
        self.config.name.clone()
    }

    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault> {
        let prog =
            DecodedProgram::decode(tc).unwrap_or_else(|e| panic!("malformed test case: {e}"));
        self.run_decoded(&prog, input, opts)
    }

    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        let mut emu = match self.emu.take() {
            Some(mut emu) => {
                emu.reset(prog.sandbox(), input);
                emu
            }
            None => Emulator::new(prog.sandbox(), input),
        };
        let mut store_buffer = std::mem::take(&mut self.store_buffer);
        store_buffer.drain();
        let mut ctx = RunCtx {
            store_buffer,
            outcome: RunOutcome::default(),
            assist_armed: assist_page(prog.sandbox(), opts),
        };
        let result = self.arch_loop_decoded(&mut emu, &mut ctx, prog);
        self.emu = Some(emu);
        self.store_buffer = ctx.store_buffer;
        result.map(|()| ctx.outcome)
    }

    fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    fn reset_uarch(&mut self) {
        self.cache.flush_all();
        self.cache.reset_counters();
        self.branch_predictor.reset();
        self.btb.reset();
        self.rsb.reset();
        self.fill_buffer = 0;
    }

    /// The fill buffer, the cache and the three predictors.  The emulator
    /// and the store buffer are not state: every run re-initializes the
    /// one from its input and drains the other.
    fn functional_state(&self, out: &mut Vec<u64>) -> bool {
        out.push(self.fill_buffer);
        self.cache.functional_state(out);
        self.branch_predictor.functional_state(out);
        self.btb.functional_state(out);
        self.rsb.functional_state(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::builder::TestCaseBuilder;
    use rvz_isa::{Cond, SandboxLayout};

    fn set_of(tc: &TestCase, offset: u64) -> u64 {
        tc.sandbox().base + offset
    }

    /// A Spectre-V1 gadget: bounds check, then a dependent load on the
    /// in-bounds path whose address depends on RBX (only used speculatively
    /// when RAX is out of bounds).
    fn v1_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("test:v1")
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 8);
                b.jcc(Cond::B, "in_bounds", "done");
            })
            .block("in_bounds", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build()
    }

    fn run_cpu(cpu: &mut SpecCpu, tc: &TestCase, input: &Input) -> RunOutcome {
        cpu.run(tc, input, &RunOptions::default()).expect("run ok")
    }

    #[test]
    fn architectural_load_touches_its_cache_set() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rax, 0b111111000000);
                b.load(Reg::Rbx, Reg::R14, Reg::Rax);
                b.exit();
            })
            .build();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rax, 0x80);
        run_cpu(&mut cpu, &tc, &input);
        assert!(cpu.cache().is_cached(set_of(&tc, 0x80)));
        assert!(!cpu.cache().is_cached(set_of(&tc, 0x40)));
    }

    #[test]
    fn runs_are_deterministic() {
        let tc = v1_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rax, 100);
        input.set_reg(Reg::Rbx, 0x200);
        let mut cpu1 = SpecCpu::new(UarchConfig::skylake());
        let mut cpu2 = SpecCpu::new(UarchConfig::skylake());
        let o1 = run_cpu(&mut cpu1, &tc, &input);
        let o2 = run_cpu(&mut cpu2, &tc, &input);
        assert_eq!(o1, o2);
        assert_eq!(cpu1.cache(), cpu2.cache());
        assert!(cpu1.final_state().is_some());
        assert_eq!(cpu1.final_state(), cpu2.final_state());
    }

    #[test]
    fn decoded_run_matches_reference_run() {
        // Same training sequence, same victim, two CPUs: one steps the
        // decoded program, the other re-walks the AST.  Outcomes, cache
        // state and predictor state must be identical at every point.
        for (tc, assists) in [
            (v1_gadget(), false),
            (v4_gadget(), false),
            (assist_gadget(), true),
            (spec_store_gadget(), false),
            (v1_var_gadget(), false),
        ] {
            for config in [
                UarchConfig::skylake(),
                UarchConfig::skylake_patched(),
                UarchConfig::coffee_lake(),
                UarchConfig::in_order(),
            ] {
                let opts =
                    if assists { RunOptions::with_assists() } else { RunOptions::default() };
                let mut dec = SpecCpu::new(config.clone());
                let mut reference = SpecCpu::new(config.clone());
                for i in 0..8u64 {
                    let mut input = Input::zeroed(tc.sandbox());
                    input.set_reg(Reg::Rax, if i < 6 { 1 } else { 100 });
                    input.set_reg(Reg::Rbx, 0x40 * i);
                    input.set_reg(Reg::Rdx, 0x100);
                    input.write_mem_u64(0, 0x680);
                    input.write_mem_u64(0x100, 0xd40);
                    let od = dec.run(&tc, &input, &opts).unwrap();
                    let or = reference.run_reference(&tc, &input, &opts).unwrap();
                    assert_eq!(od, or, "{} outcome differs (iter {i})", config.name);
                    assert_eq!(
                        dec.final_state(),
                        reference.final_state(),
                        "{} final state differs (iter {i})",
                        config.name
                    );
                    assert_eq!(dec.cache(), reference.cache(), "{} cache differs", config.name);
                    assert_eq!(
                        dec.predictor_stats(),
                        reference.predictor_stats(),
                        "{} predictor differs",
                        config.name
                    );
                }
            }
        }
    }

    #[test]
    fn mispredicted_branch_leaves_speculative_trace() {
        let tc = v1_gadget();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());

        // Train the predictor: several in-bounds inputs take the branch.
        for i in 0..6 {
            let mut t = Input::zeroed(tc.sandbox());
            t.set_reg(Reg::Rax, 1);
            t.set_reg(Reg::Rbx, 0x40 * i);
            run_cpu(&mut cpu, &tc, &t);
        }
        cpu.cache_mut().flush_all();

        // Out-of-bounds input: architecturally skips the load, but the
        // trained predictor speculates into it.  RBX selects line 0x7c0.
        let mut victim = Input::zeroed(tc.sandbox());
        victim.set_reg(Reg::Rax, 100);
        victim.set_reg(Reg::Rbx, 0x7c0);
        let outcome = run_cpu(&mut cpu, &tc, &victim);
        assert!(outcome.mispredictions >= 1);
        assert!(outcome.speculation_episodes >= 1);
        assert!(
            cpu.cache().is_cached(set_of(&tc, 0x7c0)),
            "speculatively loaded line must be cached (Spectre V1)"
        );
    }

    #[test]
    fn in_order_cpu_leaves_no_speculative_trace() {
        let tc = v1_gadget();
        let mut cpu = SpecCpu::new(UarchConfig::in_order());
        for i in 0..6 {
            let mut t = Input::zeroed(tc.sandbox());
            t.set_reg(Reg::Rax, 1);
            t.set_reg(Reg::Rbx, 0x40 * i);
            run_cpu(&mut cpu, &tc, &t);
        }
        cpu.cache_mut().flush_all();
        let mut victim = Input::zeroed(tc.sandbox());
        victim.set_reg(Reg::Rax, 100);
        victim.set_reg(Reg::Rbx, 0x7c0);
        let outcome = run_cpu(&mut cpu, &tc, &victim);
        assert_eq!(outcome.speculation_episodes, 0);
        assert!(!cpu.cache().is_cached(set_of(&tc, 0x7c0)));
    }

    /// Spectre V4 gadget: a store to [R14+0] whose address depends on a slow
    /// chain, followed by a load from the same location and a dependent load
    /// indexed by the (possibly stale) value.
    fn v4_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("test:v4")
            .block("entry", |b| {
                // Make the store address depend on a long dependency chain.
                b.mov_imm(Reg::Rax, 0);
                b.imul_imm(Reg::Rax, 1);
                b.imul_imm(Reg::Rax, 1);
                b.imul_imm(Reg::Rax, 1);
                b.and_imm(Reg::Rax, 0b111111000000);
                // Store 0 over the secret at [R14 + RAX(=0)].
                b.store(Reg::R14, Reg::Rax, Reg::Rdx); // RDX = 0 -> overwrite
                // Immediately load it back (may bypass the store)...
                b.load_disp(Reg::Rbx, Reg::R14, 0);
                // ...and leak the loaded value through a dependent access.
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.exit();
            })
            .build()
    }

    #[test]
    fn store_bypass_leaks_stale_value_when_unpatched() {
        let tc = v4_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.write_mem_u64(0, 0x680); // stale secret selects line 0x680
        input.set_reg(Reg::Rdx, 0);

        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let o = run_cpu(&mut cpu, &tc, &input);
        assert!(o.store_bypasses >= 1, "bypass should trigger: {o:?}");
        assert!(
            cpu.cache().is_cached(set_of(&tc, 0x680)),
            "stale-value-dependent line cached (Spectre V4)"
        );

        let mut patched = SpecCpu::new(UarchConfig::skylake_patched());
        let o = run_cpu(&mut patched, &tc, &input);
        assert_eq!(o.store_bypasses, 0);
        assert!(
            !patched.cache().is_cached(set_of(&tc, 0x680)),
            "V4 patch (SSBD) suppresses the stale-value leak"
        );
    }

    /// MDS gadget: a load from the assist page followed by a dependent load.
    fn assist_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("test:assist")
            .sandbox(SandboxLayout::two_pages().with_assist_page(1))
            .block("entry", |b| {
                // Bring a secret through the fill buffer.
                b.and_imm(Reg::Rdx, 0b111111000000);
                b.load(Reg::Rax, Reg::R14, Reg::Rdx);
                // Load from the assist page (page 1).
                b.load_disp(Reg::Rbx, Reg::R14, 4096 + 512);
                // Leak whatever the load returned.
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.exit();
            })
            .build()
    }

    #[test]
    fn microcode_assist_forwards_fill_buffer_on_mds_vulnerable_part() {
        let tc = assist_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rdx, 0x100);
        input.write_mem_u64(0x100, 0xd40); // secret value in the fill buffer
        input.write_mem_u64(4096 + 512, 0x0); // architectural value at assist addr

        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let o = cpu.run(&tc, &input, &RunOptions::with_assists()).unwrap();
        assert!(o.assists >= 1);
        // The transiently forwarded fill-buffer value (0xd40) selects a line
        // that differs from the architectural one (0x0 -> line 0).
        assert!(
            cpu.cache().is_cached(set_of(&tc, 0xd40 & 0xfc0)),
            "MDS: fill-buffer value leaked into the cache"
        );
    }

    #[test]
    fn no_assist_leak_when_assists_disabled() {
        let tc = assist_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rdx, 0x100);
        input.write_mem_u64(0x100, 0xd40);
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let o = cpu.run(&tc, &input, &RunOptions::default()).unwrap();
        assert_eq!(o.assists, 0);
        assert!(!cpu.cache().is_cached(set_of(&tc, 0xd40 & 0xfc0)));
    }

    #[test]
    fn lvi_null_injects_zero_on_mds_patched_part() {
        let tc = assist_gadget();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rdx, 0x100);
        input.write_mem_u64(0x100, 0xd40);
        // Architectural value at the assist address selects line 0x340.
        input.write_mem_u64(4096 + 512, 0x340);

        let mut cpu = SpecCpu::new(UarchConfig::coffee_lake());
        let o = cpu.run(&tc, &input, &RunOptions::with_assists()).unwrap();
        assert!(o.assists >= 1);
        assert!(
            cpu.cache().is_cached(set_of(&tc, 0)),
            "LVI-Null: the zero-injected dependent access touches line 0"
        );
        assert!(
            !cpu.cache().is_cached(set_of(&tc, 0xd40 & 0xfc0)),
            "MDS-patched part must not forward fill-buffer data"
        );
    }

    /// Speculative-store gadget (§6.4): a store on a mispredicted path.
    fn spec_store_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("test:spec-store")
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 8);
                b.jcc(Cond::B, "store_path", "done");
            })
            .block("store_path", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.store(Reg::R14, Reg::Rbx, Reg::Rcx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build()
    }

    #[test]
    fn speculative_stores_modify_cache_only_on_coffee_lake() {
        let tc = spec_store_gadget();
        let train = |cpu: &mut SpecCpu| {
            for i in 0..6 {
                let mut t = Input::zeroed(tc.sandbox());
                t.set_reg(Reg::Rax, 1);
                t.set_reg(Reg::Rbx, 0x40 * i);
                run_cpu(cpu, &tc, &t);
            }
            cpu.cache_mut().flush_all();
        };
        let mut victim = Input::zeroed(tc.sandbox());
        victim.set_reg(Reg::Rax, 100);
        victim.set_reg(Reg::Rbx, 0x780);

        let mut sky = SpecCpu::new(UarchConfig::skylake());
        train(&mut sky);
        run_cpu(&mut sky, &tc, &victim);
        assert!(
            !sky.cache().is_cached(set_of(&tc, 0x780)),
            "Skylake: speculative stores do not modify the cache"
        );

        let mut cfl = SpecCpu::new(UarchConfig::coffee_lake());
        train(&mut cfl);
        run_cpu(&mut cfl, &tc, &victim);
        assert!(
            cfl.cache().is_cached(set_of(&tc, 0x780)),
            "Coffee Lake: speculative stores already modify the cache (§6.4)"
        );
    }

    /// V1-var gadget (Figure 5): the speculative load depends on a division,
    /// so whether it lands in the cache depends on the division latency.
    fn v1_var_gadget() -> TestCase {
        TestCaseBuilder::new()
            .origin("test:v1-var")
            .block("entry", |b| {
                b.mov_imm(Reg::Rdx, 0);
                b.mov_imm(Reg::Rcx, 3);
                b.div(Reg::Rcx); // RAX = RAX / 3, latency depends on RAX
                b.and_imm(Reg::Rax, 0b111111000000);
                b.cmp_imm(Reg::Rbx, 8);
                b.jcc(Cond::B, "spec", "done");
            })
            .block("spec", |b| {
                b.load(Reg::Rsi, Reg::R14, Reg::Rax);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build()
    }

    #[test]
    fn division_latency_race_controls_speculative_footprint() {
        let tc = v1_var_gadget();
        let train = |cpu: &mut SpecCpu| {
            for _ in 0..6 {
                let mut t = Input::zeroed(tc.sandbox());
                t.set_reg(Reg::Rbx, 1);
                t.set_reg(Reg::Rax, 9);
                run_cpu(cpu, &tc, &t);
            }
            cpu.cache_mut().flush_all();
        };

        // Fast division: tiny quotient -> the speculative load issues in
        // time and leaves a trace.
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        train(&mut cpu);
        let mut fast = Input::zeroed(tc.sandbox());
        fast.set_reg(Reg::Rbx, 100); // out of bounds -> misprediction
        fast.set_reg(Reg::Rax, 2); // 2/3=0 -> masked 0 -> line 0, minimal latency
        run_cpu(&mut cpu, &tc, &fast);
        let fast_leaked = cpu.cache().is_cached(set_of(&tc, 0));

        // Slow division: huge dividend -> the load misses the window.
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        train(&mut cpu);
        let mut slow = Input::zeroed(tc.sandbox());
        slow.set_reg(Reg::Rbx, 100);
        slow.set_reg(Reg::Rax, u64::MAX); // enormous quotient
        run_cpu(&mut cpu, &tc, &slow);
        let slow_quotient_line = (u64::MAX / 3) & 0xfc0;
        let slow_leaked = cpu.cache().is_cached(set_of(&tc, slow_quotient_line));

        assert!(fast_leaked, "fast division completes inside the speculation window");
        assert!(
            !slow_leaked,
            "slow division starves the speculative load (latency race, §6.3)"
        );
    }

    #[test]
    fn lfence_stops_speculative_leak() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 8);
                b.jcc(Cond::B, "spec", "done");
            })
            .block("spec", |b| {
                b.lfence();
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        for _ in 0..6 {
            let mut t = Input::zeroed(tc.sandbox());
            t.set_reg(Reg::Rax, 1);
            run_cpu(&mut cpu, &tc, &t);
        }
        cpu.cache_mut().flush_all();
        let mut victim = Input::zeroed(tc.sandbox());
        victim.set_reg(Reg::Rax, 100);
        victim.set_reg(Reg::Rbx, 0x7c0);
        let o = run_cpu(&mut cpu, &tc, &victim);
        assert!(o.mispredictions >= 1);
        assert!(!cpu.cache().is_cached(set_of(&tc, 0x7c0)), "LFENCE blocks the leak");
    }

    #[test]
    fn reset_uarch_clears_all_state() {
        let tc = v1_gadget();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let mut i = Input::zeroed(tc.sandbox());
        i.set_reg(Reg::Rax, 1);
        run_cpu(&mut cpu, &tc, &i);
        assert!(cpu.predictor_stats().0 > 0);
        cpu.reset_uarch();
        assert_eq!(cpu.predictor_stats(), (0, 0));
        assert!(!cpu.cache().is_cached(tc.sandbox().base));
    }

    #[test]
    fn functional_state_reaches_a_fixed_point_that_ignores_statistics() {
        // Prime, run, probe the same input over and over: once the
        // predictor saturates, a round leaves the state where it found it,
        // although the statistics keep counting.
        use rvz_cache::{PrimeProbe, SideChannel};
        let tc = v1_gadget();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let mut channel = PrimeProbe::new();
        let mut input = Input::zeroed(tc.sandbox());
        input.set_reg(Reg::Rax, 1);
        let mut round = |cpu: &mut SpecCpu| {
            channel.prepare(cpu.cache_mut());
            run_cpu(cpu, &tc, &input);
            channel.measure(cpu.cache_mut());
            let mut state = Vec::new();
            assert!(cpu.functional_state(&mut state));
            state
        };
        let first = round(&mut cpu);
        let second = round(&mut cpu);
        let third = round(&mut cpu);
        assert_ne!(first, second, "the counter is still training");
        let stats = cpu.predictor_stats();
        assert_eq!(third, round(&mut cpu));
        assert_ne!(cpu.predictor_stats(), stats);
        let mut reset = Vec::new();
        cpu.reset_uarch();
        cpu.functional_state(&mut reset);
        assert_ne!(reset, third);
    }

    #[test]
    fn outcome_counts_instructions() {
        let tc = v1_gadget();
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        let mut i = Input::zeroed(tc.sandbox());
        i.set_reg(Reg::Rax, 1);
        i.set_reg(Reg::Rbx, 0);
        let o = run_cpu(&mut cpu, &tc, &i);
        // entry: cmp, jcc; in_bounds: and, load, jmp; done: exit = 6.
        assert_eq!(o.executed_instructions, 6);
        let arch = rvz_emu::Runner::new(&tc).run(&i).unwrap().final_state;
        assert_eq!(cpu.final_state(), Some(&arch), "speculation leaves no architectural trace");
    }

    #[test]
    fn reused_run_state_matches_the_architectural_result() {
        // One CPU runs test cases with different sandboxes back to back;
        // the in-place re-initialization must leave nothing of the
        // previous run behind.
        let mut cpu = SpecCpu::new(UarchConfig::skylake());
        assert_eq!(cpu.final_state(), None);
        for tc in [v1_gadget(), assist_gadget(), v4_gadget(), v1_gadget()] {
            let mut input = Input::zeroed(tc.sandbox());
            input.set_reg(Reg::Rax, 100);
            input.set_reg(Reg::Rdx, 0x100);
            input.write_mem_u64(0x100, 0xd40);
            cpu.run(&tc, &input, &RunOptions::with_assists()).unwrap();
            let arch = rvz_emu::Runner::new(&tc).run(&input).unwrap().final_state;
            assert_eq!(cpu.final_state(), Some(&arch), "{}", tc.origin());
        }
    }

    #[test]
    fn name_reflects_configuration() {
        let cpu = SpecCpu::new(UarchConfig::coffee_lake());
        assert!(cpu.name().contains("Coffee Lake"));
    }
}
