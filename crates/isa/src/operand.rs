//! Instruction operands: registers, immediates and memory references.

use crate::reg::{Reg, Width};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A memory operand of the form `[base + index*scale + disp]`.
///
/// Generated test cases always use the sandbox base register
/// ([`Reg::R14`]) as `base` after the masking
/// instrumentation (§5.1), but handwritten gadgets and the emulator support
/// the general form.
///
/// # Example
/// ```
/// use rvz_isa::{MemOperand, Reg, Width};
/// let m = MemOperand::base_index(Reg::R14, Reg::Rax);
/// assert_eq!(format!("{}", m.display(Width::Byte)), "byte ptr [R14 + RAX]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemOperand {
    /// Base register.
    pub base: Reg,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Scale applied to the index register (1, 2, 4 or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemOperand {
    /// `[base]`
    pub fn base(base: Reg) -> MemOperand {
        MemOperand { base, index: None, scale: 1, disp: 0 }
    }

    /// `[base + index]`
    pub fn base_index(base: Reg, index: Reg) -> MemOperand {
        MemOperand { base, index: Some(index), scale: 1, disp: 0 }
    }

    /// `[base + disp]`
    pub fn base_disp(base: Reg, disp: i64) -> MemOperand {
        MemOperand { base, index: None, scale: 1, disp }
    }

    /// `[base + index*scale + disp]`
    pub fn full(base: Reg, index: Reg, scale: u8, disp: i64) -> MemOperand {
        MemOperand { base, index: Some(index), scale, disp }
    }

    /// Registers read when computing the effective address: the base, then
    /// the index if there is one.
    pub fn address_regs(&self) -> impl Iterator<Item = Reg> {
        std::iter::once(self.base).chain(self.index)
    }

    /// Wrap with a width for display purposes.
    pub fn display(self, width: Width) -> MemOperandDisplay {
        MemOperandDisplay { mem: self, width }
    }
}

/// Helper returned by [`MemOperand::display`].
#[derive(Debug, Clone, Copy)]
pub struct MemOperandDisplay {
    mem: MemOperand,
    width: Width,
}

impl fmt::Display for MemOperandDisplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}", self.width.ptr_keyword(), self.mem.base)?;
        if let Some(idx) = self.mem.index {
            if self.mem.scale != 1 {
                write!(f, " + {}*{}", idx, self.mem.scale)?;
            } else {
                write!(f, " + {idx}")?;
            }
        }
        if self.mem.disp != 0 {
            if self.mem.disp > 0 {
                write!(f, " + {}", self.mem.disp)?;
            } else {
                write!(f, " - {}", -self.mem.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register accessed at the given width.
    Reg(Reg, Width),
    /// An immediate value.
    Imm(i64),
    /// A memory reference accessed at the given width.
    Mem(MemOperand, Width),
}

impl Operand {
    /// Full-width register operand.
    pub fn reg(r: Reg) -> Operand {
        Operand::Reg(r, Width::Qword)
    }

    /// Register operand at an explicit width.
    pub fn reg_w(r: Reg, w: Width) -> Operand {
        Operand::Reg(r, w)
    }

    /// Immediate operand.
    pub fn imm(v: i64) -> Operand {
        Operand::Imm(v)
    }

    /// Memory operand at qword width.
    pub fn mem(m: MemOperand) -> Operand {
        Operand::Mem(m, Width::Qword)
    }

    /// Memory operand at an explicit width.
    pub fn mem_w(m: MemOperand, w: Width) -> Operand {
        Operand::Mem(m, w)
    }

    /// Returns the access width of the operand (immediates count as qword).
    pub fn width(&self) -> Width {
        match self {
            Operand::Reg(_, w) | Operand::Mem(_, w) => *w,
            Operand::Imm(_) => Width::Qword,
        }
    }

    /// Is this a memory operand?
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(..))
    }

    /// Is this a register operand?
    pub fn is_reg(&self) -> bool {
        matches!(self, Operand::Reg(..))
    }

    /// Is this an immediate operand?
    pub fn is_imm(&self) -> bool {
        matches!(self, Operand::Imm(_))
    }

    /// The memory operand, if any.
    pub fn as_mem(&self) -> Option<(MemOperand, Width)> {
        match self {
            Operand::Mem(m, w) => Some((*m, *w)),
            _ => None,
        }
    }

    /// The register, if this is a register operand.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r, _) => Some(*r),
            _ => None,
        }
    }

    /// Registers read when this operand is used as a *source*.
    pub fn source_regs(&self) -> impl Iterator<Item = Reg> {
        self.as_reg().into_iter().chain(self.dest_addr_regs())
    }

    /// Registers read when this operand is used as a *destination*
    /// (address registers for memory destinations; read-modify-write register
    /// destinations are handled at the instruction level).
    pub fn dest_addr_regs(&self) -> impl Iterator<Item = Reg> {
        self.as_mem().into_iter().flat_map(|(m, _)| m.address_regs())
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r, w) => write!(f, "{}", r.name(*w)),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Mem(m, w) => write!(f, "{}", m.display(*w)),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<MemOperand> for Operand {
    fn from(m: MemOperand) -> Operand {
        Operand::mem(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_operand_constructors() {
        let m = MemOperand::base(Reg::R14);
        assert_eq!(m.index, None);
        assert_eq!(m.disp, 0);
        let m = MemOperand::full(Reg::R14, Reg::Rax, 8, -16);
        assert_eq!(m.scale, 8);
        assert_eq!(m.disp, -16);
        assert_eq!(m.address_regs().collect::<Vec<_>>(), vec![Reg::R14, Reg::Rax]);
    }

    #[test]
    fn mem_operand_display() {
        let m = MemOperand::full(Reg::R14, Reg::Rbx, 4, 8);
        assert_eq!(format!("{}", m.display(Width::Qword)), "qword ptr [R14 + RBX*4 + 8]");
        let m = MemOperand::base_disp(Reg::R14, -64);
        assert_eq!(format!("{}", m.display(Width::Dword)), "dword ptr [R14 - 64]");
    }

    #[test]
    fn operand_kinds() {
        let r = Operand::reg(Reg::Rax);
        let i = Operand::imm(3);
        let m = Operand::mem(MemOperand::base(Reg::R14));
        assert!(r.is_reg() && !r.is_mem() && !r.is_imm());
        assert!(i.is_imm());
        assert!(m.is_mem());
        assert_eq!(r.as_reg(), Some(Reg::Rax));
        assert_eq!(m.as_mem().unwrap().0.base, Reg::R14);
        assert_eq!(i.as_reg(), None);
    }

    #[test]
    fn operand_source_regs() {
        let m = Operand::mem(MemOperand::base_index(Reg::R14, Reg::Rcx));
        assert_eq!(m.source_regs().collect::<Vec<_>>(), vec![Reg::R14, Reg::Rcx]);
        assert_eq!(Operand::imm(1).source_regs().count(), 0);
        assert_eq!(Operand::reg(Reg::Rbx).source_regs().collect::<Vec<_>>(), vec![Reg::Rbx]);
    }

    #[test]
    fn operand_display() {
        assert_eq!(format!("{}", Operand::reg_w(Reg::Rbx, Width::Word)), "BX");
        assert_eq!(format!("{}", Operand::imm(-5)), "-5");
    }

    #[test]
    fn operand_from_conversions() {
        let o: Operand = Reg::Rdx.into();
        assert_eq!(o, Operand::reg(Reg::Rdx));
        let o: Operand = 7i64.into();
        assert_eq!(o, Operand::imm(7));
        let o: Operand = MemOperand::base(Reg::R14).into();
        assert!(o.is_mem());
    }
}
