//! Instruction catalog and ISA subsets.
//!
//! Plays the role of nanoBench's `base.xml` in the original tool: a machine-
//! readable description of the instructions the test-case generator may
//! sample from, grouped into the classes used throughout the paper's
//! evaluation (§6.1): `AR`, `MEM`, `VAR`, `CB` (plus `IND` for the
//! handwritten Table 5 gadgets).

use crate::inst::{AluOp, Cond, ShiftOp, UnaryOp};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Instruction class, following the paper's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrClass {
    /// In-register arithmetic, logic and bitwise operations.
    Ar,
    /// Instructions with memory operands (loads and stores).
    Mem,
    /// Variable-latency operations (division).
    Var,
    /// Conditional branches.
    Cb,
    /// Indirect control flow (indirect jumps, calls, returns).
    Ind,
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::Ar => "AR",
            InstrClass::Mem => "MEM",
            InstrClass::Var => "VAR",
            InstrClass::Cb => "CB",
            InstrClass::Ind => "IND",
        };
        f.write_str(s)
    }
}

/// The syntactic form of a catalog entry; the generator instantiates the
/// form with concrete registers, immediates and sandbox offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum InstrForm {
    AluRegReg(AluOp),
    AluRegImm(AluOp),
    /// ALU with a memory source operand (a load).
    AluRegMem(AluOp),
    /// ALU with a memory destination (a read-modify-write store).
    AluMemReg(AluOp),
    AluMemImm(AluOp),
    MovRegReg,
    MovRegImm,
    /// Load.
    MovRegMem,
    /// Store from a register.
    MovMemReg,
    /// Store an immediate.
    MovMemImm,
    CmovRegReg(Cond),
    /// Conditional load.
    CmovRegMem(Cond),
    SetccReg(Cond),
    CmpRegReg,
    CmpRegImm,
    CmpRegMem,
    TestRegReg,
    TestRegImm,
    ShiftRegImm(ShiftOp),
    UnaryReg(UnaryOp),
    UnaryMem(UnaryOp),
    /// Unsigned division by a register.
    DivReg,
    /// Unsigned division by a memory operand.
    DivMem,
    ImulRegReg,
    ImulRegImm,
    ImulRegMem,
    LeaReg,
    BswapReg,
    XchgRegReg,
    Nop,
    /// Conditional jump terminator.
    CondJmp(Cond),
    /// Unconditional jump terminator.
    Jmp,
    /// Indirect jump terminator.
    IndirectJmp,
    /// Call terminator.
    Call,
    /// Return terminator.
    Ret,
}

impl InstrForm {
    /// Does this form terminate a basic block?
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            InstrForm::CondJmp(_)
                | InstrForm::Jmp
                | InstrForm::IndirectJmp
                | InstrForm::Call
                | InstrForm::Ret
        )
    }

    /// Does this form access memory?
    pub fn accesses_mem(self) -> bool {
        matches!(
            self,
            InstrForm::AluRegMem(_)
                | InstrForm::AluMemReg(_)
                | InstrForm::AluMemImm(_)
                | InstrForm::MovRegMem
                | InstrForm::MovMemReg
                | InstrForm::MovMemImm
                | InstrForm::CmovRegMem(_)
                | InstrForm::CmpRegMem
                | InstrForm::UnaryMem(_)
                | InstrForm::DivMem
                | InstrForm::ImulRegMem
        )
    }
}

/// One entry of the instruction catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InstrSpec {
    /// Human-readable name (mnemonic plus operand shape).
    pub name: &'static str,
    /// Instruction class.
    pub class: InstrClass,
    /// Syntactic form to instantiate.
    pub form: InstrForm,
}

/// A subset of the ISA used for one testing target (Table 2, row 3).
///
/// # Example
/// ```
/// use rvz_isa::IsaSubset;
/// let s = IsaSubset::AR_MEM_CB;
/// assert!(s.ar && s.mem && s.cb && !s.var);
/// assert!(IsaSubset::AR.instruction_count() < s.instruction_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IsaSubset {
    /// Include in-register arithmetic.
    pub ar: bool,
    /// Include memory operands and loads/stores.
    pub mem: bool,
    /// Include variable-latency operations.
    pub var: bool,
    /// Include conditional branches.
    pub cb: bool,
    /// Include indirect control flow.
    pub ind: bool,
}

impl IsaSubset {
    /// `AR`: in-register arithmetic only.
    pub const AR: IsaSubset = IsaSubset { ar: true, mem: false, var: false, cb: false, ind: false };
    /// `AR+MEM`.
    pub const AR_MEM: IsaSubset =
        IsaSubset { ar: true, mem: true, var: false, cb: false, ind: false };
    /// `AR+MEM+VAR`.
    pub const AR_MEM_VAR: IsaSubset =
        IsaSubset { ar: true, mem: true, var: true, cb: false, ind: false };
    /// `AR+CB`.
    pub const AR_CB: IsaSubset =
        IsaSubset { ar: true, mem: false, var: false, cb: true, ind: false };
    /// `AR+MEM+CB`.
    pub const AR_MEM_CB: IsaSubset =
        IsaSubset { ar: true, mem: true, var: false, cb: true, ind: false };
    /// `AR+MEM+CB+VAR`.
    pub const AR_MEM_CB_VAR: IsaSubset =
        IsaSubset { ar: true, mem: true, var: true, cb: true, ind: false };
    /// Everything, including indirect control flow.
    pub const FULL: IsaSubset = IsaSubset { ar: true, mem: true, var: true, cb: true, ind: true };

    /// Does the subset contain the given class?
    pub fn contains(&self, class: InstrClass) -> bool {
        match class {
            InstrClass::Ar => self.ar,
            InstrClass::Mem => self.mem,
            InstrClass::Var => self.var,
            InstrClass::Cb => self.cb,
            InstrClass::Ind => self.ind,
        }
    }

    /// Catalog entries belonging to this subset.
    pub fn specs(&self) -> Vec<InstrSpec> {
        catalog().iter().filter(|s| self.contains(s.class)).copied().collect()
    }

    /// Body (non-terminator) catalog entries belonging to this subset.
    pub fn body_specs(&self) -> Vec<InstrSpec> {
        self.specs().into_iter().filter(|s| !s.form.is_terminator()).collect()
    }

    /// Number of unique catalog entries in this subset (the analogue of the
    /// per-subset instruction counts reported in §6.1).
    pub fn instruction_count(&self) -> usize {
        self.specs().len()
    }

    /// Short name, e.g. `AR+MEM+CB`.
    pub fn name(&self) -> String {
        let mut parts = Vec::new();
        if self.ar {
            parts.push("AR");
        }
        if self.mem {
            parts.push("MEM");
        }
        if self.cb {
            parts.push("CB");
        }
        if self.var {
            parts.push("VAR");
        }
        if self.ind {
            parts.push("IND");
        }
        if parts.is_empty() {
            "EMPTY".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl fmt::Display for IsaSubset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl Default for IsaSubset {
    fn default() -> Self {
        IsaSubset::AR_MEM_CB
    }
}

/// The full instruction catalog, built on first use.
///
/// The entry count is intentionally in the hundreds — like the x86 subsets in
/// the paper — so that the generator's sampling problem has a comparable
/// shape, even though the concrete ISA is smaller.
pub fn catalog() -> &'static [InstrSpec] {
    static CATALOG: OnceLock<Vec<InstrSpec>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> Vec<InstrSpec> {
    let mut v = Vec::new();
    let mut push = |name: &'static str, class: InstrClass, form: InstrForm| {
        v.push(InstrSpec { name, class, form });
    };

    // --- AR: register-register / register-immediate arithmetic ------------
    for op in AluOp::ALL {
        push(alu_name(op, "r, r"), InstrClass::Ar, InstrForm::AluRegReg(op));
        push(alu_name(op, "r, imm"), InstrClass::Ar, InstrForm::AluRegImm(op));
    }
    push("MOV r, r", InstrClass::Ar, InstrForm::MovRegReg);
    push("MOV r, imm", InstrClass::Ar, InstrForm::MovRegImm);
    for cond in Cond::ALL {
        push(cond_name("CMOV", cond, " r, r"), InstrClass::Ar, InstrForm::CmovRegReg(cond));
        push(cond_name("SET", cond, " r8"), InstrClass::Ar, InstrForm::SetccReg(cond));
    }
    push("CMP r, r", InstrClass::Ar, InstrForm::CmpRegReg);
    push("CMP r, imm", InstrClass::Ar, InstrForm::CmpRegImm);
    push("TEST r, r", InstrClass::Ar, InstrForm::TestRegReg);
    push("TEST r, imm", InstrClass::Ar, InstrForm::TestRegImm);
    for op in ShiftOp::ALL {
        push(shift_name(op), InstrClass::Ar, InstrForm::ShiftRegImm(op));
    }
    for op in UnaryOp::ALL {
        push(unary_name(op, "r"), InstrClass::Ar, InstrForm::UnaryReg(op));
    }
    push("IMUL r, r", InstrClass::Ar, InstrForm::ImulRegReg);
    push("IMUL r, imm", InstrClass::Ar, InstrForm::ImulRegImm);
    push("LEA r, [..]", InstrClass::Ar, InstrForm::LeaReg);
    push("BSWAP r", InstrClass::Ar, InstrForm::BswapReg);
    push("XCHG r, r", InstrClass::Ar, InstrForm::XchgRegReg);
    push("NOP", InstrClass::Ar, InstrForm::Nop);

    // --- MEM: memory operands ---------------------------------------------
    for op in AluOp::ALL {
        push(alu_name(op, "r, [m]"), InstrClass::Mem, InstrForm::AluRegMem(op));
        push(alu_name(op, "[m], r"), InstrClass::Mem, InstrForm::AluMemReg(op));
        push(alu_name(op, "[m], imm"), InstrClass::Mem, InstrForm::AluMemImm(op));
    }
    push("MOV r, [m]", InstrClass::Mem, InstrForm::MovRegMem);
    push("MOV [m], r", InstrClass::Mem, InstrForm::MovMemReg);
    push("MOV [m], imm", InstrClass::Mem, InstrForm::MovMemImm);
    for cond in Cond::ALL {
        push(cond_name("CMOV", cond, " r, [m]"), InstrClass::Mem, InstrForm::CmovRegMem(cond));
    }
    push("CMP r, [m]", InstrClass::Mem, InstrForm::CmpRegMem);
    for op in UnaryOp::ALL {
        push(unary_name(op, "[m]"), InstrClass::Mem, InstrForm::UnaryMem(op));
    }
    push("IMUL r, [m]", InstrClass::Mem, InstrForm::ImulRegMem);

    // --- VAR: variable latency ---------------------------------------------
    push("DIV r", InstrClass::Var, InstrForm::DivReg);
    push("DIV [m]", InstrClass::Var, InstrForm::DivMem);

    // --- CB: conditional branches -------------------------------------------
    for cond in Cond::ALL {
        push(cond_name("J", cond, " rel"), InstrClass::Cb, InstrForm::CondJmp(cond));
    }
    push("JMP rel", InstrClass::Cb, InstrForm::Jmp);

    // --- IND: indirect control flow ----------------------------------------
    push("JMP r", InstrClass::Ind, InstrForm::IndirectJmp);
    push("CALL rel", InstrClass::Ind, InstrForm::Call);
    push("RET", InstrClass::Ind, InstrForm::Ret);

    v
}

fn alu_name(op: AluOp, shape: &'static str) -> &'static str {
    // The names are leaked once: the catalog is built once per process.
    Box::leak(format!("{} {}", op.mnemonic(), shape).into_boxed_str())
}

fn cond_name(prefix: &'static str, cond: Cond, shape: &'static str) -> &'static str {
    Box::leak(format!("{}{}{}", prefix, cond.suffix(), shape).into_boxed_str())
}

fn shift_name(op: ShiftOp) -> &'static str {
    Box::leak(format!("{} r, imm", op.mnemonic()).into_boxed_str())
}

fn unary_name(op: UnaryOp, shape: &'static str) -> &'static str {
    Box::leak(format!("{} {}", op.mnemonic(), shape).into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_nonempty_and_classified() {
        let cat = catalog();
        assert!(cat.len() > 100, "catalog should have hundreds of entries, got {}", cat.len());
        assert!(cat.iter().any(|s| s.class == InstrClass::Ar));
        assert!(cat.iter().any(|s| s.class == InstrClass::Mem));
        assert!(cat.iter().any(|s| s.class == InstrClass::Var));
        assert!(cat.iter().any(|s| s.class == InstrClass::Cb));
        assert!(cat.iter().any(|s| s.class == InstrClass::Ind));
    }

    #[test]
    fn catalog_is_built_once() {
        let (a, b) = (catalog(), catalog());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(std::ptr::eq(x.name, y.name), "{} was built twice", x.name);
        }
    }

    #[test]
    fn subsets_are_monotone() {
        let ar = IsaSubset::AR.instruction_count();
        let ar_mem = IsaSubset::AR_MEM.instruction_count();
        let ar_mem_var = IsaSubset::AR_MEM_VAR.instruction_count();
        let ar_mem_cb = IsaSubset::AR_MEM_CB.instruction_count();
        let full = IsaSubset::FULL.instruction_count();
        assert!(ar < ar_mem);
        assert!(ar_mem < ar_mem_var);
        assert!(ar_mem < ar_mem_cb);
        assert!(ar_mem_cb < full);
    }

    #[test]
    fn subset_names() {
        assert_eq!(IsaSubset::AR.name(), "AR");
        assert_eq!(IsaSubset::AR_MEM_CB.name(), "AR+MEM+CB");
        assert_eq!(IsaSubset::AR_MEM_CB_VAR.name(), "AR+MEM+CB+VAR");
        assert_eq!(format!("{}", IsaSubset::FULL), "AR+MEM+CB+VAR+IND");
    }

    #[test]
    fn body_specs_exclude_terminators() {
        for s in IsaSubset::FULL.body_specs() {
            assert!(!s.form.is_terminator(), "{} should not be a terminator", s.name);
        }
    }

    #[test]
    fn mem_forms_marked_as_memory() {
        for s in catalog() {
            if s.class == InstrClass::Mem {
                assert!(s.form.accesses_mem(), "{} should access memory", s.name);
            }
            if s.class == InstrClass::Ar {
                assert!(!s.form.accesses_mem(), "{} should not access memory", s.name);
            }
        }
    }

    #[test]
    fn ar_subset_contains_no_memory_or_branches() {
        for s in IsaSubset::AR.specs() {
            assert_eq!(s.class, InstrClass::Ar);
        }
    }

    #[test]
    fn default_subset() {
        assert_eq!(IsaSubset::default(), IsaSubset::AR_MEM_CB);
    }
}
