//! Instruction-level architectural emulation.

use crate::fault::Fault;
use crate::sink::TraceSink;
use crate::state::ArchState;
use rvz_isa::reg::FlagSet;
use rvz_isa::{
    AluOp, Cond, DecodedOp, DstOp, Flag, Input, Instr, MemOperand, Operand, Reg, SandboxLayout,
    ShiftOp, SrcOp, UnaryOp, Width,
};
use serde::{Deserialize, Serialize};

/// Kind of a memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemEventKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A memory access performed by one instruction.
///
/// The contract model turns these into contract-trace observations:
/// `MEM`/`CT` expose `addr`, `ARCH` additionally exposes `value` for reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemEvent {
    /// Virtual address accessed.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// Read or write.
    pub kind: MemEventKind,
    /// Value loaded (for reads) or stored (for writes).
    pub value: u64,
}

/// The externally visible effects of executing one instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrEffects {
    /// Memory accesses, in program order within the instruction.
    pub mem_events: Vec<MemEvent>,
}

/// A delta checkpoint taken by [`Emulator::begin_speculation`].
///
/// Registers and flags are snapshot eagerly (128 bytes + 1); memory is
/// rolled back lazily through the write journal, so restore cost is
/// proportional to what the speculative window actually wrote instead of
/// the whole sandbox.
#[derive(Debug, Clone)]
pub struct SpecCheckpoint {
    regs: [u64; 16],
    flags: FlagSet,
    journal_mark: usize,
}

/// The architectural emulator: executes instructions against an
/// [`ArchState`].
///
/// Two checkpoint mechanisms exist: [`Emulator::checkpoint`] clones the whole
/// state (used by the reference walks), and
/// [`Emulator::begin_speculation`]/[`Emulator::rollback`] take delta
/// checkpoints whose restore cost is proportional to the speculative
/// footprint (used by the decoded fast paths, §5.4).
#[derive(Debug, Clone)]
pub struct Emulator {
    state: ArchState,
    /// Undo log of speculative memory writes: `(addr, width, old value)`.
    journal: Vec<(u64, Width, u64)>,
    /// Nesting depth of open speculative windows; journaling is active only
    /// while this is non-zero, so non-speculative execution pays nothing.
    spec_depth: u32,
}

impl Emulator {
    /// Create an emulator with the initial state for `input`.
    pub fn new(sandbox: SandboxLayout, input: &Input) -> Emulator {
        Emulator { state: ArchState::from_input(sandbox, input), journal: Vec::new(), spec_depth: 0 }
    }

    /// Re-initialize this emulator in place to what
    /// [`new`](Emulator::new) builds, keeping the sandbox buffer's and the
    /// journal's allocations.
    pub fn reset(&mut self, sandbox: SandboxLayout, input: &Input) {
        self.state.reset_from_input(sandbox, input);
        self.journal.clear();
        self.spec_depth = 0;
    }

    /// Current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state.
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// Take a checkpoint of the current state.
    pub fn checkpoint(&self) -> ArchState {
        self.state.clone()
    }

    /// Consume the emulator, yielding the architectural state without the
    /// clone a [`Emulator::checkpoint`] would pay.
    pub fn into_state(self) -> ArchState {
        self.state
    }

    /// Restore a previously taken checkpoint.
    pub fn restore(&mut self, checkpoint: ArchState) {
        self.state = checkpoint;
    }

    /// Open a speculative window: snapshot registers and flags, mark the
    /// write journal.  Must be balanced by [`Emulator::rollback`].  Windows
    /// nest.
    pub fn begin_speculation(&mut self) -> SpecCheckpoint {
        self.spec_depth += 1;
        SpecCheckpoint {
            regs: self.state.regs_snapshot(),
            flags: self.state.flags(),
            journal_mark: self.journal.len(),
        }
    }

    /// Close a speculative window: undo every journaled memory write past
    /// the checkpoint's mark (newest first, so overlapping writes unwind
    /// correctly), then restore registers and flags.
    pub fn rollback(&mut self, cp: SpecCheckpoint) {
        while self.journal.len() > cp.journal_mark {
            let (addr, width, old) = self.journal.pop().expect("journal entry past mark");
            self.state.write_mem(addr, width, old).expect("journaled address stays in sandbox");
        }
        self.state.restore_regs(cp.regs);
        self.state.set_flags(cp.flags);
        self.spec_depth -= 1;
    }

    /// Write memory, journaling the old value while a speculative window is
    /// open so [`Emulator::rollback`] can undo it.
    ///
    /// # Errors
    /// Returns [`Fault::OutOfSandbox`] if the access leaves the sandbox; no
    /// journal entry is recorded for a faulting write.
    pub fn write_mem(&mut self, addr: u64, width: Width, value: u64) -> Result<(), Fault> {
        if self.spec_depth > 0 {
            // The read performs the same range check as the write, so a
            // faulting access is rejected before any state changes.
            let old = self.state.read_mem(addr, width)?;
            self.state.write_mem(addr, width, value)?;
            self.journal.push((addr, width, old));
            Ok(())
        } else {
            self.state.write_mem(addr, width, value)
        }
    }

    /// Compute the effective address of a memory operand.
    pub fn effective_addr(&self, m: &MemOperand) -> u64 {
        let mut addr = self.state.reg(m.base);
        if let Some(idx) = m.index {
            addr = addr.wrapping_add(self.state.reg(idx).wrapping_mul(m.scale as u64));
        }
        addr.wrapping_add(m.disp as u64)
    }

    /// Evaluate a condition code against the current flags.
    pub fn eval_cond(&self, c: Cond) -> bool {
        let f = |fl: Flag| self.state.flag(fl);
        match c {
            Cond::O => f(Flag::Of),
            Cond::No => !f(Flag::Of),
            Cond::B => f(Flag::Cf),
            Cond::Nb => !f(Flag::Cf),
            Cond::E => f(Flag::Zf),
            Cond::Ne => !f(Flag::Zf),
            Cond::Be => f(Flag::Cf) || f(Flag::Zf),
            Cond::Nbe => !(f(Flag::Cf) || f(Flag::Zf)),
            Cond::S => f(Flag::Sf),
            Cond::Ns => !f(Flag::Sf),
            Cond::P => f(Flag::Pf),
            Cond::Np => !f(Flag::Pf),
            Cond::L => f(Flag::Sf) != f(Flag::Of),
            Cond::Nl => f(Flag::Sf) == f(Flag::Of),
            Cond::Le => f(Flag::Zf) || (f(Flag::Sf) != f(Flag::Of)),
            Cond::Nle => !f(Flag::Zf) && (f(Flag::Sf) == f(Flag::Of)),
        }
    }

    /// Read an operand as a source at the given width, recording the memory
    /// event if it is a memory operand.
    fn read_operand(
        &mut self,
        op: &Operand,
        width: Width,
        effects: &mut InstrEffects,
    ) -> Result<u64, Fault> {
        match op {
            Operand::Reg(r, w) => Ok(width.truncate(self.state.reg_w(*r, *w))),
            Operand::Imm(v) => Ok(width.truncate(*v as u64)),
            Operand::Mem(m, w) => {
                let addr = self.effective_addr(m);
                let value = self.state.read_mem(addr, *w)?;
                effects.mem_events.push(MemEvent {
                    addr,
                    width: *w,
                    kind: MemEventKind::Read,
                    value,
                });
                Ok(width.truncate(value))
            }
        }
    }

    /// Write an operand as a destination, recording the memory event if it
    /// is a memory operand.
    fn write_operand(
        &mut self,
        op: &Operand,
        value: u64,
        effects: &mut InstrEffects,
    ) -> Result<(), Fault> {
        match op {
            Operand::Reg(r, w) => {
                self.state.set_reg_w(*r, *w, value);
                Ok(())
            }
            Operand::Imm(_) => panic!("immediate used as destination"),
            Operand::Mem(m, w) => {
                let addr = self.effective_addr(m);
                let value = w.truncate(value);
                self.state.write_mem(addr, *w, value)?;
                effects.mem_events.push(MemEvent {
                    addr,
                    width: *w,
                    kind: MemEventKind::Write,
                    value,
                });
                Ok(())
            }
        }
    }

    fn set_result_flags(&mut self, result: u64, width: Width) {
        let r = width.truncate(result);
        self.state.set_flag(Flag::Zf, r == 0);
        self.state.set_flag(Flag::Sf, r & width.sign_bit() != 0);
        self.state.set_flag(Flag::Pf, (r as u8).count_ones().is_multiple_of(2));
    }

    fn exec_alu(
        &mut self,
        op: AluOp,
        dest: &Operand,
        src: &Operand,
        effects: &mut InstrEffects,
    ) -> Result<(), Fault> {
        let width = dest.width();
        let a = self.read_operand(dest, width, effects)?;
        let b = self.read_operand(src, width, effects)?;
        let carry_in = if op.reads_carry() && self.state.flag(Flag::Cf) { 1u64 } else { 0 };
        let mask = width.mask();
        let sign = width.sign_bit();
        let (result, cf, of) = match op {
            AluOp::Add | AluOp::Adc => {
                let full = (a as u128) + (b as u128) + (carry_in as u128);
                let r = (full as u64) & mask;
                let cf = full > mask as u128;
                let of = ((a ^ r) & (b ^ r) & sign) != 0;
                (r, cf, of)
            }
            AluOp::Sub | AluOp::Sbb => {
                let rhs = (b as u128) + (carry_in as u128);
                let cf = (a as u128) < rhs;
                let r = (a.wrapping_sub(b).wrapping_sub(carry_in)) & mask;
                let of = ((a ^ b) & (a ^ r) & sign) != 0;
                (r, cf, of)
            }
            AluOp::And => ((a & b) & mask, false, false),
            AluOp::Or => ((a | b) & mask, false, false),
            AluOp::Xor => ((a ^ b) & mask, false, false),
        };
        self.write_operand(dest, result, effects)?;
        self.set_result_flags(result, width);
        self.state.set_flag(Flag::Cf, cf);
        self.state.set_flag(Flag::Of, of);
        Ok(())
    }

    fn exec_shift(
        &mut self,
        op: ShiftOp,
        dest: &Operand,
        amount: &Operand,
        effects: &mut InstrEffects,
    ) -> Result<(), Fault> {
        let width = dest.width();
        let a = self.read_operand(dest, width, effects)?;
        let amt_raw = self.read_operand(amount, Width::Byte, effects)?;
        let bits = width.bits() as u64;
        let amt = amt_raw % bits.max(1);
        let mask = width.mask();
        let (result, cf) = if amt == 0 {
            (a, self.state.flag(Flag::Cf))
        } else {
            match op {
                ShiftOp::Shl => {
                    let r = (a << amt) & mask;
                    let cf = (a >> (bits - amt)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Shr => {
                    let r = (a & mask) >> amt;
                    let cf = (a >> (amt - 1)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Sar => {
                    let signed = ((a & mask) as i64) << (64 - bits) >> (64 - bits);
                    let r = ((signed >> amt) as u64) & mask;
                    let cf = (a >> (amt - 1)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Rol => {
                    let r = ((a << amt) | ((a & mask) >> (bits - amt))) & mask;
                    (r, r & 1 == 1)
                }
                ShiftOp::Ror => {
                    let r = (((a & mask) >> amt) | (a << (bits - amt))) & mask;
                    (r, r & width.sign_bit() != 0)
                }
            }
        };
        self.write_operand(dest, result, effects)?;
        if amt != 0 {
            self.set_result_flags(result, width);
            self.state.set_flag(Flag::Cf, cf);
            self.state.set_flag(Flag::Of, false);
        }
        Ok(())
    }

    /// Execute a single straight-line instruction.
    ///
    /// # Errors
    /// Returns a [`Fault`] on division errors or sandbox escapes; the state
    /// is left partially updated exactly as a faulting instruction would
    /// leave it before the fault is delivered.
    pub fn exec_instr(&mut self, instr: &Instr) -> Result<InstrEffects, Fault> {
        let mut effects = InstrEffects::default();
        match instr {
            Instr::Alu { op, dest, src, .. } => self.exec_alu(*op, dest, src, &mut effects)?,
            Instr::Mov { dest, src } => {
                let width = dest.width();
                let v = self.read_operand(src, width, &mut effects)?;
                self.write_operand(dest, v, &mut effects)?;
            }
            Instr::Cmov { cond, dest, src, width } => {
                // x86 CMOV always performs the source read (and can fault on
                // it) even when the condition is false.
                let v = self.read_operand(src, *width, &mut effects)?;
                if self.eval_cond(*cond) {
                    self.state.set_reg_w(*dest, *width, v);
                }
            }
            Instr::Setcc { cond, dest } => {
                let v = if self.eval_cond(*cond) { 1 } else { 0 };
                self.state.set_reg_w(*dest, Width::Byte, v);
            }
            Instr::Cmp { a, b } => {
                let width = a.width();
                let x = self.read_operand(a, width, &mut effects)?;
                let y = self.read_operand(b, width, &mut effects)?;
                let mask = width.mask();
                let sign = width.sign_bit();
                let r = x.wrapping_sub(y) & mask;
                self.set_result_flags(r, width);
                self.state.set_flag(Flag::Cf, x < y);
                self.state.set_flag(Flag::Of, ((x ^ y) & (x ^ r) & sign) != 0);
            }
            Instr::Test { a, b } => {
                let width = a.width();
                let x = self.read_operand(a, width, &mut effects)?;
                let y = self.read_operand(b, width, &mut effects)?;
                let r = (x & y) & width.mask();
                self.set_result_flags(r, width);
                self.state.set_flag(Flag::Cf, false);
                self.state.set_flag(Flag::Of, false);
            }
            Instr::Shift { op, dest, amount } => self.exec_shift(*op, dest, amount, &mut effects)?,
            Instr::Unary { op, dest } => {
                let width = dest.width();
                let a = self.read_operand(dest, width, &mut effects)?;
                let mask = width.mask();
                let result = match op {
                    UnaryOp::Not => !a & mask,
                    UnaryOp::Neg => a.wrapping_neg() & mask,
                    UnaryOp::Inc => a.wrapping_add(1) & mask,
                    UnaryOp::Dec => a.wrapping_sub(1) & mask,
                };
                self.write_operand(dest, result, &mut effects)?;
                if op.writes_flags() {
                    self.set_result_flags(result, width);
                    match op {
                        UnaryOp::Neg => self.state.set_flag(Flag::Cf, a != 0),
                        UnaryOp::Inc | UnaryOp::Dec => {
                            self.state.set_flag(Flag::Of, result & width.sign_bit() != a & width.sign_bit())
                        }
                        UnaryOp::Not => {}
                    }
                }
            }
            Instr::Div { src } => {
                let width = src.width();
                let divisor = self.read_operand(src, width, &mut effects)?;
                if divisor == 0 {
                    return Err(Fault::DivideError);
                }
                let dividend =
                    ((self.state.reg_w(Reg::Rdx, width) as u128) << width.bits())
                        | self.state.reg_w(Reg::Rax, width) as u128;
                let q = dividend / divisor as u128;
                let rem = dividend % divisor as u128;
                if q > width.mask() as u128 {
                    return Err(Fault::DivideError);
                }
                self.state.set_reg_w(Reg::Rax, width, q as u64);
                self.state.set_reg_w(Reg::Rdx, width, rem as u64);
            }
            Instr::Imul { dest, src } => {
                let width = Width::Qword;
                let a = self.state.reg(*dest) as i64;
                let b = self.read_operand(src, width, &mut effects)? as i64;
                let full = (a as i128) * (b as i128);
                let r = full as i64 as u64;
                self.state.set_reg(*dest, r);
                let overflow = full != (r as i64) as i128;
                self.set_result_flags(r, width);
                self.state.set_flag(Flag::Cf, overflow);
                self.state.set_flag(Flag::Of, overflow);
            }
            Instr::Lea { dest, addr } => {
                let a = self.effective_addr(addr);
                self.state.set_reg(*dest, a);
            }
            Instr::Bswap { dest } => {
                let v = self.state.reg(*dest);
                self.state.set_reg(*dest, v.swap_bytes());
            }
            Instr::Xchg { dest, src } => {
                let width = src.width();
                let a = self.state.reg_w(*dest, width);
                let b = self.read_operand(src, width, &mut effects)?;
                self.state.set_reg_w(*dest, width, b);
                self.write_operand(src, a, &mut effects)?;
            }
            Instr::Lfence | Instr::Mfence | Instr::Nop => {}
        }
        Ok(effects)
    }

    /// Read a decoded source operand at the given use width, reporting the
    /// memory event to the sink.
    #[inline]
    fn read_src<S: TraceSink>(
        &mut self,
        op: &SrcOp,
        width: Width,
        sink: &mut S,
    ) -> Result<u64, Fault> {
        match op {
            SrcOp::Reg(r, w) => Ok(width.truncate(self.state.reg_w(*r, *w))),
            SrcOp::Imm(v) => Ok(width.truncate(*v)),
            SrcOp::Mem(m, w) => {
                let addr = self.effective_addr(m);
                let value = self.state.read_mem(addr, *w)?;
                sink.mem_event(MemEvent { addr, width: *w, kind: MemEventKind::Read, value });
                Ok(width.truncate(value))
            }
        }
    }

    /// Read a decoded destination operand (for read-modify-write ops).
    #[inline]
    fn read_dst<S: TraceSink>(
        &mut self,
        op: &DstOp,
        width: Width,
        sink: &mut S,
    ) -> Result<u64, Fault> {
        match op {
            DstOp::Reg(r, w) => Ok(width.truncate(self.state.reg_w(*r, *w))),
            DstOp::Mem(m, w) => {
                let addr = self.effective_addr(m);
                let value = self.state.read_mem(addr, *w)?;
                sink.mem_event(MemEvent { addr, width: *w, kind: MemEventKind::Read, value });
                Ok(width.truncate(value))
            }
        }
    }

    /// Write a decoded destination operand, reporting the memory event.
    #[inline]
    fn write_dst<S: TraceSink>(
        &mut self,
        op: &DstOp,
        value: u64,
        sink: &mut S,
    ) -> Result<(), Fault> {
        match op {
            DstOp::Reg(r, w) => {
                self.state.set_reg_w(*r, *w, value);
                Ok(())
            }
            DstOp::Mem(m, w) => {
                let addr = self.effective_addr(m);
                let value = w.truncate(value);
                self.write_mem(addr, *w, value)?;
                sink.mem_event(MemEvent { addr, width: *w, kind: MemEventKind::Write, value });
                Ok(())
            }
        }
    }

    fn exec_alu_decoded<S: TraceSink>(
        &mut self,
        op: AluOp,
        width: Width,
        dest: &DstOp,
        src: &SrcOp,
        sink: &mut S,
    ) -> Result<(), Fault> {
        let a = self.read_dst(dest, width, sink)?;
        let b = self.read_src(src, width, sink)?;
        let carry_in = if op.reads_carry() && self.state.flag(Flag::Cf) { 1u64 } else { 0 };
        let mask = width.mask();
        let sign = width.sign_bit();
        let (result, cf, of) = match op {
            AluOp::Add | AluOp::Adc => {
                let full = (a as u128) + (b as u128) + (carry_in as u128);
                let r = (full as u64) & mask;
                let cf = full > mask as u128;
                let of = ((a ^ r) & (b ^ r) & sign) != 0;
                (r, cf, of)
            }
            AluOp::Sub | AluOp::Sbb => {
                let rhs = (b as u128) + (carry_in as u128);
                let cf = (a as u128) < rhs;
                let r = (a.wrapping_sub(b).wrapping_sub(carry_in)) & mask;
                let of = ((a ^ b) & (a ^ r) & sign) != 0;
                (r, cf, of)
            }
            AluOp::And => ((a & b) & mask, false, false),
            AluOp::Or => ((a | b) & mask, false, false),
            AluOp::Xor => ((a ^ b) & mask, false, false),
        };
        self.write_dst(dest, result, sink)?;
        self.set_result_flags(result, width);
        self.state.set_flag(Flag::Cf, cf);
        self.state.set_flag(Flag::Of, of);
        Ok(())
    }

    fn exec_shift_decoded<S: TraceSink>(
        &mut self,
        op: ShiftOp,
        width: Width,
        dest: &DstOp,
        amount: &SrcOp,
        sink: &mut S,
    ) -> Result<(), Fault> {
        let a = self.read_dst(dest, width, sink)?;
        let amt_raw = self.read_src(amount, Width::Byte, sink)?;
        let bits = width.bits() as u64;
        let amt = amt_raw % bits.max(1);
        let mask = width.mask();
        let (result, cf) = if amt == 0 {
            (a, self.state.flag(Flag::Cf))
        } else {
            match op {
                ShiftOp::Shl => {
                    let r = (a << amt) & mask;
                    let cf = (a >> (bits - amt)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Shr => {
                    let r = (a & mask) >> amt;
                    let cf = (a >> (amt - 1)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Sar => {
                    let signed = ((a & mask) as i64) << (64 - bits) >> (64 - bits);
                    let r = ((signed >> amt) as u64) & mask;
                    let cf = (a >> (amt - 1)) & 1 == 1;
                    (r, cf)
                }
                ShiftOp::Rol => {
                    let r = ((a << amt) | ((a & mask) >> (bits - amt))) & mask;
                    (r, r & 1 == 1)
                }
                ShiftOp::Ror => {
                    let r = (((a & mask) >> amt) | (a << (bits - amt))) & mask;
                    (r, r & width.sign_bit() != 0)
                }
            }
        };
        self.write_dst(dest, result, sink)?;
        if amt != 0 {
            self.set_result_flags(result, width);
            self.state.set_flag(Flag::Cf, cf);
            self.state.set_flag(Flag::Of, false);
        }
        Ok(())
    }

    /// Execute a single decoded instruction, reporting memory events to the
    /// sink.
    ///
    /// Observably byte-identical to [`Emulator::exec_instr`] on the
    /// corresponding AST instruction (enforced by the differential property
    /// tests), but with operand widths pre-resolved and no per-instruction
    /// heap allocation.  Memory writes are journaled while a speculative
    /// window is open.
    ///
    /// # Errors
    /// Returns a [`Fault`] exactly as [`Emulator::exec_instr`] would; events
    /// already reported to the sink before the fault must be discarded by
    /// the caller (clear the buffer per instruction, consume on success).
    pub fn exec_decoded<S: TraceSink>(
        &mut self,
        op: &DecodedOp,
        sink: &mut S,
    ) -> Result<(), Fault> {
        match op {
            DecodedOp::Alu { op, width, dest, src } => {
                self.exec_alu_decoded(*op, *width, dest, src, sink)?
            }
            DecodedOp::Mov { width, dest, src } => {
                let v = self.read_src(src, *width, sink)?;
                self.write_dst(dest, v, sink)?;
            }
            DecodedOp::Cmov { cond, dest, width, src } => {
                // x86 CMOV always performs the source read (and can fault on
                // it) even when the condition is false.
                let v = self.read_src(src, *width, sink)?;
                if self.eval_cond(*cond) {
                    self.state.set_reg_w(*dest, *width, v);
                }
            }
            DecodedOp::Setcc { cond, dest } => {
                let v = if self.eval_cond(*cond) { 1 } else { 0 };
                self.state.set_reg_w(*dest, Width::Byte, v);
            }
            DecodedOp::Cmp { width, a, b } => {
                let x = self.read_src(a, *width, sink)?;
                let y = self.read_src(b, *width, sink)?;
                let mask = width.mask();
                let sign = width.sign_bit();
                let r = x.wrapping_sub(y) & mask;
                self.set_result_flags(r, *width);
                self.state.set_flag(Flag::Cf, x < y);
                self.state.set_flag(Flag::Of, ((x ^ y) & (x ^ r) & sign) != 0);
            }
            DecodedOp::Test { width, a, b } => {
                let x = self.read_src(a, *width, sink)?;
                let y = self.read_src(b, *width, sink)?;
                let r = (x & y) & width.mask();
                self.set_result_flags(r, *width);
                self.state.set_flag(Flag::Cf, false);
                self.state.set_flag(Flag::Of, false);
            }
            DecodedOp::Shift { op, width, dest, amount } => {
                self.exec_shift_decoded(*op, *width, dest, amount, sink)?
            }
            DecodedOp::Unary { op, width, dest } => {
                let a = self.read_dst(dest, *width, sink)?;
                let mask = width.mask();
                let result = match op {
                    UnaryOp::Not => !a & mask,
                    UnaryOp::Neg => a.wrapping_neg() & mask,
                    UnaryOp::Inc => a.wrapping_add(1) & mask,
                    UnaryOp::Dec => a.wrapping_sub(1) & mask,
                };
                self.write_dst(dest, result, sink)?;
                if op.writes_flags() {
                    self.set_result_flags(result, *width);
                    match op {
                        UnaryOp::Neg => self.state.set_flag(Flag::Cf, a != 0),
                        UnaryOp::Inc | UnaryOp::Dec => self.state.set_flag(
                            Flag::Of,
                            result & width.sign_bit() != a & width.sign_bit(),
                        ),
                        UnaryOp::Not => {}
                    }
                }
            }
            DecodedOp::Div { width, src } => {
                let divisor = self.read_src(src, *width, sink)?;
                if divisor == 0 {
                    return Err(Fault::DivideError);
                }
                let dividend = ((self.state.reg_w(Reg::Rdx, *width) as u128) << width.bits())
                    | self.state.reg_w(Reg::Rax, *width) as u128;
                let q = dividend / divisor as u128;
                let rem = dividend % divisor as u128;
                if q > width.mask() as u128 {
                    return Err(Fault::DivideError);
                }
                self.state.set_reg_w(Reg::Rax, *width, q as u64);
                self.state.set_reg_w(Reg::Rdx, *width, rem as u64);
            }
            DecodedOp::Imul { dest, src } => {
                let width = Width::Qword;
                let a = self.state.reg(*dest) as i64;
                let b = self.read_src(src, width, sink)? as i64;
                let full = (a as i128) * (b as i128);
                let r = full as i64 as u64;
                self.state.set_reg(*dest, r);
                let overflow = full != (r as i64) as i128;
                self.set_result_flags(r, width);
                self.state.set_flag(Flag::Cf, overflow);
                self.state.set_flag(Flag::Of, overflow);
            }
            DecodedOp::Lea { dest, addr } => {
                let a = self.effective_addr(addr);
                self.state.set_reg(*dest, a);
            }
            DecodedOp::Bswap { dest } => {
                let v = self.state.reg(*dest);
                self.state.set_reg(*dest, v.swap_bytes());
            }
            DecodedOp::Xchg { dest, width, src } => {
                let a = self.state.reg_w(*dest, *width);
                let b = self.read_dst(src, *width, sink)?;
                self.state.set_reg_w(*dest, *width, b);
                self.write_dst(src, a, sink)?;
            }
            DecodedOp::Fence | DecodedOp::Nop => {}
        }
        Ok(())
    }

    /// Push a return value for `CALL` onto the in-sandbox stack.
    ///
    /// # Errors
    /// Returns [`Fault::StackFault`] if the stack leaves its dedicated area.
    pub fn push_ret(&mut self, value: u64) -> Result<MemEvent, Fault> {
        let rsp = self.state.reg(Reg::Rsp).wrapping_sub(8);
        if rsp < self.state.sandbox().stack_base() {
            return Err(Fault::StackFault { rsp });
        }
        self.state.set_reg(Reg::Rsp, rsp);
        self.write_mem(rsp, Width::Qword, value)?;
        Ok(MemEvent { addr: rsp, width: Width::Qword, kind: MemEventKind::Write, value })
    }

    /// Pop a return value for `RET` from the in-sandbox stack.
    ///
    /// # Errors
    /// Returns [`Fault::StackFault`] if the stack leaves its dedicated area.
    pub fn pop_ret(&mut self) -> Result<(u64, MemEvent), Fault> {
        let rsp = self.state.reg(Reg::Rsp);
        if rsp + 8 > self.state.sandbox().base + self.state.sandbox().size() {
            return Err(Fault::StackFault { rsp });
        }
        let value = self.state.read_mem(rsp, Width::Qword)?;
        self.state.set_reg(Reg::Rsp, rsp + 8);
        Ok((value, MemEvent { addr: rsp, width: Width::Qword, kind: MemEventKind::Read, value }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::MemOperand;

    fn emu() -> Emulator {
        let sb = SandboxLayout::one_page();
        Emulator::new(sb, &Input::zeroed(sb))
    }

    fn emu_with(f: impl FnOnce(&mut Input)) -> Emulator {
        let sb = SandboxLayout::one_page();
        let mut input = Input::zeroed(sb);
        f(&mut input);
        Emulator::new(sb, &input)
    }

    #[test]
    fn add_sets_flags() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, u64::MAX));
        let i = Instr::Alu {
            op: AluOp::Add,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(1),
            lock: false,
        };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0);
        assert!(e.state().flag(Flag::Zf));
        assert!(e.state().flag(Flag::Cf));
        assert!(!e.state().flag(Flag::Of));
    }

    #[test]
    fn sub_borrow_and_overflow() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 0));
        let i = Instr::Alu {
            op: AluOp::Sub,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(1),
            lock: false,
        };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), u64::MAX);
        assert!(e.state().flag(Flag::Cf));
        assert!(e.state().flag(Flag::Sf));
    }

    #[test]
    fn adc_uses_carry() {
        let mut e = emu();
        e.state_mut().set_flag(Flag::Cf, true);
        let i = Instr::Alu {
            op: AluOp::Adc,
            dest: Operand::reg(Reg::Rbx),
            src: Operand::imm(1),
            lock: false,
        };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rbx), 2);
    }

    #[test]
    fn and_clears_carry() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 0b1010));
        e.state_mut().set_flag(Flag::Cf, true);
        let i = Instr::Alu {
            op: AluOp::And,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(0b0110),
            lock: false,
        };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0b0010);
        assert!(!e.state().flag(Flag::Cf));
    }

    #[test]
    fn load_and_store_report_events() {
        let mut e = emu_with(|i| {
            i.write_mem_u64(64, 0x55);
            i.set_reg(Reg::Rax, 64);
        });
        let base = e.state().sandbox().base;
        let load = Instr::Mov {
            dest: Operand::reg(Reg::Rbx),
            src: Operand::mem(MemOperand::base_index(Reg::R14, Reg::Rax)),
        };
        let fx = e.exec_instr(&load).unwrap();
        assert_eq!(e.state().reg(Reg::Rbx), 0x55);
        assert_eq!(fx.mem_events.len(), 1);
        assert_eq!(fx.mem_events[0].addr, base + 64);
        assert_eq!(fx.mem_events[0].kind, MemEventKind::Read);
        assert_eq!(fx.mem_events[0].value, 0x55);

        let store = Instr::Mov {
            dest: Operand::mem(MemOperand::base_disp(Reg::R14, 128)),
            src: Operand::reg(Reg::Rbx),
        };
        let fx = e.exec_instr(&store).unwrap();
        assert_eq!(fx.mem_events[0].kind, MemEventKind::Write);
        assert_eq!(e.state().read_mem(base + 128, Width::Qword).unwrap(), 0x55);
    }

    #[test]
    fn rmw_alu_on_memory_reports_read_and_write() {
        let mut e = emu_with(|i| i.write_mem_u64(0, 10));
        let i = Instr::Alu {
            op: AluOp::Sub,
            dest: Operand::mem_w(MemOperand::base(Reg::R14), Width::Byte),
            src: Operand::imm(3),
            lock: true,
        };
        let fx = e.exec_instr(&i).unwrap();
        assert_eq!(fx.mem_events.len(), 2);
        assert_eq!(fx.mem_events[0].kind, MemEventKind::Read);
        assert_eq!(fx.mem_events[1].kind, MemEventKind::Write);
        assert_eq!(fx.mem_events[1].value, 7);
    }

    #[test]
    fn out_of_sandbox_load_faults() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 1 << 20));
        let load = Instr::Mov {
            dest: Operand::reg(Reg::Rbx),
            src: Operand::mem(MemOperand::base_index(Reg::R14, Reg::Rax)),
        };
        assert!(matches!(e.exec_instr(&load), Err(Fault::OutOfSandbox { .. })));
    }

    #[test]
    fn div_by_zero_faults() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 100));
        let i = Instr::Div { src: Operand::reg(Reg::Rcx) };
        assert_eq!(e.exec_instr(&i), Err(Fault::DivideError));
    }

    #[test]
    fn div_computes_quotient_and_remainder() {
        let mut e = emu_with(|i| {
            i.set_reg(Reg::Rax, 17);
            i.set_reg(Reg::Rdx, 0);
            i.set_reg(Reg::Rcx, 5);
        });
        let i = Instr::Div { src: Operand::reg(Reg::Rcx) };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 3);
        assert_eq!(e.state().reg(Reg::Rdx), 2);
    }

    #[test]
    fn div_quotient_overflow_faults() {
        let mut e = emu_with(|i| {
            i.set_reg(Reg::Rdx, 1);
            i.set_reg(Reg::Rax, 0);
            i.set_reg(Reg::Rcx, 1);
        });
        let i = Instr::Div { src: Operand::reg(Reg::Rcx) };
        assert_eq!(e.exec_instr(&i), Err(Fault::DivideError));
    }

    #[test]
    fn cmov_moves_only_when_condition_holds() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rbx, 7));
        e.state_mut().set_flag(Flag::Zf, true);
        let i = Instr::Cmov { cond: Cond::E, dest: Reg::Rax, src: Operand::reg(Reg::Rbx), width: Width::Qword };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 7);
        e.state_mut().set_flag(Flag::Zf, false);
        let i = Instr::Cmov { cond: Cond::E, dest: Reg::Rcx, src: Operand::reg(Reg::Rbx), width: Width::Qword };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rcx), 0);
    }

    #[test]
    fn setcc_writes_byte() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 0xffff_ff00));
        e.state_mut().set_flag(Flag::Sf, true);
        let i = Instr::Setcc { cond: Cond::S, dest: Reg::Rax };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0xffff_ff01);
    }

    #[test]
    fn cmp_sets_flags_like_sub_without_writing() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 5));
        let i = Instr::Cmp { a: Operand::reg(Reg::Rax), b: Operand::imm(5) };
        e.exec_instr(&i).unwrap();
        assert!(e.state().flag(Flag::Zf));
        assert_eq!(e.state().reg(Reg::Rax), 5);
        assert!(e.eval_cond(Cond::E));
        assert!(!e.eval_cond(Cond::B));
        assert!(e.eval_cond(Cond::Be));
        assert!(e.eval_cond(Cond::Le));
    }

    #[test]
    fn signed_conditions() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 3));
        let i = Instr::Cmp { a: Operand::reg(Reg::Rax), b: Operand::imm(10) };
        e.exec_instr(&i).unwrap();
        assert!(e.eval_cond(Cond::L));
        assert!(e.eval_cond(Cond::B));
        assert!(!e.eval_cond(Cond::Nle));
    }

    #[test]
    fn shifts() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 0b1011));
        let i = Instr::Shift { op: ShiftOp::Shl, dest: Operand::reg(Reg::Rax), amount: Operand::imm(2) };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0b101100);
        let i = Instr::Shift { op: ShiftOp::Shr, dest: Operand::reg(Reg::Rax), amount: Operand::imm(3) };
        e.exec_instr(&i).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0b101);
    }

    #[test]
    fn unary_ops() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 1));
        e.exec_instr(&Instr::Unary { op: UnaryOp::Dec, dest: Operand::reg(Reg::Rax) }).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 0);
        assert!(e.state().flag(Flag::Zf));
        e.exec_instr(&Instr::Unary { op: UnaryOp::Not, dest: Operand::reg(Reg::Rax) }).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), u64::MAX);
        e.exec_instr(&Instr::Unary { op: UnaryOp::Neg, dest: Operand::reg(Reg::Rax) }).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 1);
        assert!(e.state().flag(Flag::Cf));
    }

    #[test]
    fn lea_and_bswap() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rbx, 0x40));
        e.exec_instr(&Instr::Lea {
            dest: Reg::Rax,
            addr: MemOperand::full(Reg::R14, Reg::Rbx, 2, 8),
        })
        .unwrap();
        let expected = e.state().sandbox().base + 0x80 + 8;
        assert_eq!(e.state().reg(Reg::Rax), expected);
        e.state_mut().set_reg(Reg::Rcx, 0x0102_0304_0506_0708);
        e.exec_instr(&Instr::Bswap { dest: Reg::Rcx }).unwrap();
        assert_eq!(e.state().reg(Reg::Rcx), 0x0807_0605_0403_0201);
    }

    #[test]
    fn imul_two_operand() {
        let mut e = emu_with(|i| i.set_reg(Reg::Rax, 6));
        e.exec_instr(&Instr::Imul { dest: Reg::Rax, src: Operand::imm(7) }).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 42);
        assert!(!e.state().flag(Flag::Cf));
    }

    #[test]
    fn xchg_registers() {
        let mut e = emu_with(|i| {
            i.set_reg(Reg::Rax, 1);
            i.set_reg(Reg::Rbx, 2);
        });
        e.exec_instr(&Instr::Xchg { dest: Reg::Rax, src: Operand::reg(Reg::Rbx) }).unwrap();
        assert_eq!(e.state().reg(Reg::Rax), 2);
        assert_eq!(e.state().reg(Reg::Rbx), 1);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut e = emu();
        let cp = e.checkpoint();
        e.exec_instr(&Instr::Mov { dest: Operand::reg(Reg::Rax), src: Operand::imm(9) }).unwrap();
        e.exec_instr(&Instr::Mov {
            dest: Operand::mem(MemOperand::base(Reg::R14)),
            src: Operand::imm(1),
        })
        .unwrap();
        assert_ne!(e.state().digest(), cp.digest());
        e.restore(cp.clone());
        assert_eq!(e.state().digest(), cp.digest());
    }

    #[test]
    fn call_ret_stack_roundtrip() {
        let mut e = emu();
        let ev = e.push_ret(3).unwrap();
        assert_eq!(ev.kind, MemEventKind::Write);
        let (v, ev) = e.pop_ret().unwrap();
        assert_eq!(v, 3);
        assert_eq!(ev.kind, MemEventKind::Read);
        assert_eq!(e.state().reg(Reg::Rsp), e.state().sandbox().initial_rsp());
    }

    #[test]
    fn stack_overflow_faults() {
        let mut e = emu();
        let depth = (SandboxLayout::STACK_SIZE / 8) as usize;
        let mut result = Ok(MemEvent {
            addr: 0,
            width: Width::Qword,
            kind: MemEventKind::Write,
            value: 0,
        });
        for i in 0..depth + 2 {
            result = e.push_ret(i as u64);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(Fault::StackFault { .. })));
    }

    #[test]
    fn delta_checkpoint_rolls_back_memory_and_registers() {
        let mut e = emu_with(|i| i.write_mem_u64(0, 0x11));
        let base = e.state().sandbox().base;
        let before = e.state().clone();
        let cp = e.begin_speculation();
        e.write_mem(base, Width::Qword, 0xdead).unwrap();
        e.write_mem(base + 4, Width::Byte, 0xff).unwrap();
        e.state_mut().set_reg(Reg::Rax, 99);
        e.state_mut().set_flag(Flag::Cf, true);
        assert_ne!(e.state().digest(), before.digest());
        e.rollback(cp);
        assert_eq!(e.state(), &before);
    }

    #[test]
    fn reset_abandons_open_windows_and_matches_a_fresh_emulator() {
        let mut e = emu_with(|i| i.write_mem_u64(0, 0x11));
        let base = e.state().sandbox().base;
        let _cp = e.begin_speculation();
        e.write_mem(base, Width::Qword, 0xdead).unwrap();
        e.state_mut().set_reg(Reg::Rax, 99);
        let sb = e.state().sandbox();
        e.reset(sb, &Input::zeroed(sb));
        assert_eq!(e.state(), emu().state());
        assert!(e.journal.is_empty() && e.spec_depth == 0, "no window stays open");
    }

    #[test]
    fn delta_checkpoints_nest() {
        let mut e = emu();
        let base = e.state().sandbox().base;
        let d0 = e.state().digest();
        let outer = e.begin_speculation();
        e.write_mem(base, Width::Qword, 1).unwrap();
        let mid = e.state().clone();
        let inner = e.begin_speculation();
        // Overlapping write inside the nested window.
        e.write_mem(base + 4, Width::Qword, 2).unwrap();
        e.push_ret(7).unwrap();
        e.rollback(inner);
        assert_eq!(e.state(), &mid, "inner rollback keeps outer writes");
        e.rollback(outer);
        assert_eq!(e.state().digest(), d0);
    }

    #[test]
    fn non_speculative_writes_are_not_journaled() {
        let mut e = emu();
        let base = e.state().sandbox().base;
        e.write_mem(base, Width::Qword, 5).unwrap();
        let cp = e.begin_speculation();
        e.rollback(cp);
        assert_eq!(e.state().read_mem(base, Width::Qword).unwrap(), 5);
    }

    #[test]
    fn speculative_faulting_write_leaves_no_journal_entry() {
        let mut e = emu();
        let cp = e.begin_speculation();
        assert!(e.write_mem(0x10, Width::Qword, 1).is_err());
        e.rollback(cp);
    }

    #[test]
    fn exec_decoded_matches_exec_instr_per_instruction() {
        use crate::sink::EventBuf;
        use rvz_isa::{BasicBlock, BlockId, DecodedProgram, TestCase};

        let instrs = vec![
            Instr::Alu {
                op: AluOp::Sub,
                dest: Operand::mem_w(MemOperand::base(Reg::R14), Width::Byte),
                src: Operand::imm(3),
                lock: true,
            },
            Instr::Mov {
                dest: Operand::reg(Reg::Rbx),
                src: Operand::mem(MemOperand::base_disp(Reg::R14, 64)),
            },
            Instr::Shift {
                op: ShiftOp::Rol,
                dest: Operand::reg_w(Reg::Rax, Width::Word),
                amount: Operand::imm(3),
            },
            Instr::Div { src: Operand::reg(Reg::Rcx) },
            Instr::Xchg {
                dest: Reg::Rdx,
                src: Operand::mem_w(MemOperand::base_disp(Reg::R14, 8), Width::Dword),
            },
            Instr::Imul { dest: Reg::Rbx, src: Operand::imm(-3) },
            Instr::Setcc { cond: Cond::Be, dest: Reg::Rsi },
            Instr::Unary { op: UnaryOp::Neg, dest: Operand::reg(Reg::Rdi) },
            Instr::Lfence,
        ];
        let mut block = BasicBlock::new(BlockId(0));
        block.instrs = instrs.clone();
        let tc = TestCase::new(vec![block], SandboxLayout::one_page());
        let prog = DecodedProgram::decode(&tc).unwrap();

        let mk = || {
            emu_with(|i| {
                i.set_reg(Reg::Rax, 0x1234_5678_9abc_def0);
                i.set_reg(Reg::Rcx, 7);
                i.set_reg(Reg::Rdx, 0);
                i.set_reg(Reg::Rdi, 5);
                i.write_mem_u64(0, 0x42);
                i.write_mem_u64(64, 0x55);
            })
        };
        let mut reference = mk();
        let mut decoded = mk();
        let mut buf = EventBuf::new();
        for (i, instr) in instrs.iter().enumerate() {
            let fx = reference.exec_instr(instr).unwrap();
            buf.clear();
            decoded.exec_decoded(&prog.body(BlockId(0))[i].op, &mut buf).unwrap();
            assert_eq!(buf.events(), &fx.mem_events[..], "events differ at instr {i}");
            assert_eq!(decoded.state(), reference.state(), "state differs after instr {i}");
        }
    }

    #[test]
    fn fences_and_nop_do_nothing() {
        let mut e = emu();
        let d = e.state().digest();
        e.exec_instr(&Instr::Lfence).unwrap();
        e.exec_instr(&Instr::Mfence).unwrap();
        e.exec_instr(&Instr::Nop).unwrap();
        assert_eq!(e.state().digest(), d);
    }
}
