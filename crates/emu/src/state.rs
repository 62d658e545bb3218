//! Architectural state: registers, flags and sandbox memory.

use crate::fault::Fault;
use rvz_isa::reg::FlagSet;
use rvz_isa::{Flag, Input, Reg, SandboxLayout, Width};
use serde::{Deserialize, Serialize};

/// The complete architectural state of a test-case execution.
///
/// Cloning an `ArchState` is the checkpoint mechanism used by the contract
/// model to explore speculative paths and roll back (§5.4, "the emulator
/// takes a checkpoint ... then rolls back").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchState {
    regs: [u64; 16],
    flags: FlagSet,
    mem: Vec<u8>,
    sandbox: SandboxLayout,
}

impl ArchState {
    /// Build the initial state for an input: copies registers and memory,
    /// then forces the reserved registers (`R14` = sandbox base, `RSP` =
    /// top of the in-sandbox stack).
    pub fn from_input(sandbox: SandboxLayout, input: &Input) -> ArchState {
        let mem = Vec::with_capacity(sandbox.size() as usize);
        let mut s = ArchState { regs: [0; 16], flags: FlagSet::default(), mem, sandbox };
        s.reset_from_input(sandbox, input);
        s
    }

    /// Re-initialize this state in place to what
    /// [`from_input`](ArchState::from_input) builds, reusing the memory
    /// buffer's allocation.
    pub fn reset_from_input(&mut self, sandbox: SandboxLayout, input: &Input) {
        self.regs = input.regs;
        self.flags = input.flags;
        self.mem.clear();
        self.mem.extend_from_slice(&input.mem);
        self.mem.resize(sandbox.size() as usize, 0);
        self.sandbox = sandbox;
        self.set_reg(Reg::R14, sandbox.base);
        self.set_reg(Reg::Rsp, sandbox.initial_rsp());
    }

    /// The sandbox layout this state was created with.
    pub fn sandbox(&self) -> SandboxLayout {
        self.sandbox
    }

    /// Read a full 64-bit register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Write a full 64-bit register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Read a register at a given width (zero-extended).
    #[inline]
    pub fn reg_w(&self, r: Reg, w: Width) -> u64 {
        w.truncate(self.reg(r))
    }

    /// Write a register at a given width using x86 merge semantics:
    /// 32-bit writes zero the upper half, 8/16-bit writes merge.
    pub fn set_reg_w(&mut self, r: Reg, w: Width, v: u64) {
        let v = w.truncate(v);
        let old = self.reg(r);
        let new = match w {
            Width::Qword => v,
            Width::Dword => v,
            Width::Word | Width::Byte => (old & !w.mask()) | v,
        };
        self.set_reg(r, new);
    }

    /// Read a flag.
    #[inline]
    pub fn flag(&self, f: Flag) -> bool {
        self.flags.get(f)
    }

    /// Write a flag.
    #[inline]
    pub fn set_flag(&mut self, f: Flag, v: bool) {
        self.flags.set(f, v);
    }

    /// The whole flag set.
    #[inline]
    pub fn flags(&self) -> FlagSet {
        self.flags
    }

    /// Snapshot of the whole register file (used by delta checkpoints).
    #[inline]
    pub(crate) fn regs_snapshot(&self) -> [u64; 16] {
        self.regs
    }

    /// Restore the whole register file from a snapshot.
    #[inline]
    pub(crate) fn restore_regs(&mut self, regs: [u64; 16]) {
        self.regs = regs;
    }

    /// Replace the whole flag set.
    #[inline]
    pub fn set_flags(&mut self, flags: FlagSet) {
        self.flags = flags;
    }

    /// Read `width` bytes at virtual address `addr` (little-endian).
    ///
    /// # Errors
    /// Returns [`Fault::OutOfSandbox`] if the access leaves the sandbox.
    pub fn read_mem(&self, addr: u64, width: Width) -> Result<u64, Fault> {
        let len = width.bytes();
        if !self.sandbox.contains_range(addr, len) {
            return Err(Fault::OutOfSandbox { addr, len });
        }
        let off = self.sandbox.offset_of(addr) as usize;
        let mut v: u64 = 0;
        for i in 0..len as usize {
            v |= (self.mem[off + i] as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Write `width` bytes at virtual address `addr` (little-endian).
    ///
    /// # Errors
    /// Returns [`Fault::OutOfSandbox`] if the access leaves the sandbox.
    pub fn write_mem(&mut self, addr: u64, width: Width, value: u64) -> Result<(), Fault> {
        let len = width.bytes();
        if !self.sandbox.contains_range(addr, len) {
            return Err(Fault::OutOfSandbox { addr, len });
        }
        let off = self.sandbox.offset_of(addr) as usize;
        let value = width.truncate(value);
        for i in 0..len as usize {
            self.mem[off + i] = ((value >> (8 * i)) & 0xff) as u8;
        }
        Ok(())
    }

    /// Raw view of the sandbox memory.
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// A compact digest of the architectural state, useful for equivalence
    /// assertions in tests (e.g. "nested speculation rolls back completely").
    pub fn digest(&self) -> u64 {
        // FNV-1a-style mixing over 64-bit words instead of bytes, with the
        // sandbox memory split across four independent lanes.  The digest is
        // only ever compared against digests computed by the same build, so
        // the exact value is free to change; what matters is that any
        // register, flag or memory difference flips it, and that computing
        // it is cheap enough to run once per CPU-under-test execution
        // (byte-serial FNV over the whole sandbox was a multi-microsecond
        // dependency chain that dominated short runs).
        const PRIME: u64 = 0x1000_0000_01b3;
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h = OFFSET;
        for r in self.regs {
            h = (h ^ r).wrapping_mul(PRIME);
        }
        h = (h ^ self.flags.bits() as u64).wrapping_mul(PRIME);
        let mut lanes = [OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3, OFFSET ^ 4];
        let mut chunks = self.mem.chunks_exact(32);
        for c in &mut chunks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
                *lane = (*lane ^ w).wrapping_mul(PRIME);
            }
        }
        for &b in chunks.remainder() {
            lanes[0] = (lanes[0] ^ b as u64).wrapping_mul(PRIME);
        }
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ArchState {
        let sb = SandboxLayout::one_page();
        ArchState::from_input(sb, &Input::zeroed(sb))
    }

    #[test]
    fn reserved_registers_initialized() {
        let sb = SandboxLayout::one_page();
        let mut input = Input::zeroed(sb);
        input.set_reg(Reg::R14, 123);
        input.set_reg(Reg::Rsp, 456);
        let s = ArchState::from_input(sb, &input);
        assert_eq!(s.reg(Reg::R14), sb.base);
        assert_eq!(s.reg(Reg::Rsp), sb.initial_rsp());
    }

    #[test]
    fn reset_from_input_matches_a_fresh_state() {
        let mut s = state();
        s.set_reg(Reg::Rax, 5);
        s.write_mem(s.sandbox().base + 8, Width::Qword, 11).unwrap();
        let two = SandboxLayout::two_pages();
        let mut input = Input::zeroed(two);
        input.set_reg(Reg::Rbx, 7);
        input.write_mem_u64(4096 + 16, 9);
        s.reset_from_input(two, &input);
        assert_eq!(s, ArchState::from_input(two, &input));
        let one = SandboxLayout::one_page();
        s.reset_from_input(one, &Input::zeroed(one));
        assert_eq!(s, state(), "shrinking back drops the second page");
    }

    #[test]
    fn register_width_semantics() {
        let mut s = state();
        s.set_reg(Reg::Rax, 0xffff_ffff_ffff_ffff);
        s.set_reg_w(Reg::Rax, Width::Dword, 0x1234_5678);
        assert_eq!(s.reg(Reg::Rax), 0x1234_5678, "32-bit write zero-extends");
        s.set_reg(Reg::Rbx, 0xffff_ffff_ffff_ffff);
        s.set_reg_w(Reg::Rbx, Width::Byte, 0xab);
        assert_eq!(s.reg(Reg::Rbx), 0xffff_ffff_ffff_ffab, "8-bit write merges");
        s.set_reg_w(Reg::Rcx, Width::Word, 0x1_0000 + 5);
        assert_eq!(s.reg_w(Reg::Rcx, Width::Word), 5, "write truncates to width");
    }

    #[test]
    fn memory_roundtrip_and_bounds() {
        let mut s = state();
        let base = s.sandbox().base;
        s.write_mem(base + 64, Width::Qword, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(s.read_mem(base + 64, Width::Qword).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(s.read_mem(base + 64, Width::Byte).unwrap(), 0x08, "little endian");
        assert!(s.read_mem(base - 8, Width::Qword).is_err());
        let end = base + s.sandbox().size();
        assert!(s.read_mem(end - 4, Width::Qword).is_err(), "straddling the end faults");
    }

    #[test]
    fn flags_roundtrip() {
        let mut s = state();
        assert!(!s.flag(Flag::Zf));
        s.set_flag(Flag::Zf, true);
        assert!(s.flag(Flag::Zf));
        let f = s.flags();
        s.set_flag(Flag::Zf, false);
        s.set_flags(f);
        assert!(s.flag(Flag::Zf));
    }

    #[test]
    fn digest_changes_with_state() {
        let mut s = state();
        let d0 = s.digest();
        s.set_reg(Reg::Rax, 1);
        let d1 = s.digest();
        assert_ne!(d0, d1);
        let base = s.sandbox().base;
        s.write_mem(base, Width::Byte, 7).unwrap();
        assert_ne!(d1, s.digest());
    }

    #[test]
    fn checkpoint_by_clone_restores_exactly() {
        let mut s = state();
        let cp = s.clone();
        s.set_reg(Reg::Rdx, 9);
        s.write_mem(s.sandbox().base + 8, Width::Qword, 11).unwrap();
        assert_ne!(s.digest(), cp.digest());
        let restored = cp.clone();
        assert_eq!(restored.digest(), cp.digest());
    }
}
