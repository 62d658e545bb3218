//! Registry-free JSON export/import of fuzzing reports.
//!
//! The vendored `serde` stand-ins have no-op derives, so the `Serialize`
//! attributes sprinkled over the workspace never produced a wire format.
//! This module is the real serialization seam: explicit `to_json` /
//! `from_json` codecs for [`ViolationReport`] (and every structure it
//! embeds, down to instructions and inputs), built on [`crate::json`].
//! JSON is kept only where a person or script reads the document: the
//! campaign service's result payload (`rvz-service`), exported violation
//! reports and `revizor-analyze`.  Checkpoints, which only programs read,
//! travel and rest in the binary form of [`crate::binfmt`].
//!
//! Design rules:
//!
//! * `u64` values (campaign seeds, sandbox addresses, ctrace digests) are
//!   written as [`Json::UInt`] and therefore survive exactly — no `f64`
//!   detour (the same rule the `table3 --json` document follows).
//! * Enumerations are written as their canonical display labels (`"ADD"`,
//!   `"RAX"`, `"CT-SEQ"`, `"V1"`), so documents stay greppable.
//! * Sandbox memory is hex-encoded into one string per input.
//! * Decoding validates shapes and reports a path-qualified error message;
//!   it never panics on malformed documents.

use crate::json::Json;
use revizor::fuzzer::ViolationReport;
use revizor::staticanalysis::{GadgetSignature, SourceKind, TransmitterKind};
use revizor::VulnClass;
use rvz_analyzer::{EffectivenessStats, Violation};
use rvz_cache::SetVector;
use rvz_executor::HTrace;
use rvz_isa::{
    AluOp, BasicBlock, BlockId, Cond, FlagSet, Input, Instr, MemOperand, Operand, Reg,
    SandboxLayout, ShiftOp, Terminator, TestCase, UnaryOp, Width,
};
use rvz_model::{Contract, ExecutionClause, ObservationClause};

/// Decoding errors are human-readable path + message strings.
pub type DecodeError = String;

// ---------------------------------------------------------------------------
// Small shared accessors.

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    get(v, key)?.as_str().ok_or_else(|| format!("field `{key}` is not a string"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, DecodeError> {
    get(v, key)?.as_u64().ok_or_else(|| format!("field `{key}` is not an integer"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, DecodeError> {
    Ok(get_u64(v, key)? as usize)
}

fn get_bool(v: &Json, key: &str) -> Result<bool, DecodeError> {
    get(v, key)?.as_bool().ok_or_else(|| format!("field `{key}` is not a boolean"))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], DecodeError> {
    get(v, key)?.as_array().ok_or_else(|| format!("field `{key}` is not an array"))
}

fn get_int<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, DecodeError> {
    let n = get_u64(v, key)?;
    T::try_from(n).map_err(|_| format!("field `{key}` value {n} is out of range"))
}

fn in_field<T>(key: &str, r: Result<T, DecodeError>) -> Result<T, DecodeError> {
    r.map_err(|e| format!("{key}: {e}"))
}

/// Exact `i64` codec: non-negative values ride the exact `UInt` channel;
/// negatives are written as plain JSON numbers while exactly
/// representable (|v| ≤ 9·10¹⁵ — the same bound as [`Json::as_u64`]), so
/// third-party clients read the shape they would write; only larger
/// magnitudes (e.g. `i64::MIN` displacements) fall back to storing the
/// magnitude as `{"neg": …}` to survive without an `f64` detour.  Public
/// because the campaign service's wire format reuses it for signed job
/// priorities.
pub fn i64_to_json(v: i64) -> Json {
    if v >= 0 {
        Json::UInt(v as u64)
    } else if v >= -9_000_000_000_000_000 {
        Json::Num(v as f64)
    } else {
        Json::obj().field("neg", v.unsigned_abs())
    }
}

/// Decode a value written by [`i64_to_json`] — plus the plain negative
/// integer form (`-3`) every standard JSON emitter produces, so
/// third-party clients can write `"priority": -3` directly (accepted up
/// to ±9·10¹⁵, the same exactness bound as [`Json::as_u64`]; larger
/// magnitudes need the `{"neg": …}` form).
///
/// # Errors
/// Returns a message for non-integers and out-of-range magnitudes.
pub fn i64_from_json(v: &Json) -> Result<i64, DecodeError> {
    if let Some(n) = v.as_u64() {
        return i64::try_from(n).map_err(|_| format!("integer {n} overflows i64"));
    }
    if let Json::Num(f) = v {
        if f.fract() == 0.0 && f.abs() <= 9e15 {
            return Ok(*f as i64);
        }
    }
    if let Some(m) = v.get("neg").and_then(Json::as_u64) {
        if m == i64::MIN.unsigned_abs() {
            return Ok(i64::MIN);
        }
        let m = i64::try_from(m).map_err(|_| format!("magnitude {m} overflows i64"))?;
        return Ok(-m);
    }
    Err("expected an integer (or {\"neg\": magnitude})".to_string())
}

// ---------------------------------------------------------------------------
// ISA-level codecs.

fn reg_to_json(r: Reg) -> Json {
    Json::Str(r.name(Width::Qword))
}

fn reg_from_json(v: &Json) -> Result<Reg, DecodeError> {
    let name = v.as_str().ok_or("register is not a string")?;
    Reg::ALL
        .into_iter()
        .find(|r| r.name(Width::Qword) == name)
        .ok_or_else(|| format!("unknown register `{name}`"))
}

fn width_label(w: Width) -> &'static str {
    match w {
        Width::Byte => "byte",
        Width::Word => "word",
        Width::Dword => "dword",
        Width::Qword => "qword",
    }
}

fn width_from_label(s: &str) -> Result<Width, DecodeError> {
    Width::ALL
        .into_iter()
        .find(|w| width_label(*w) == s)
        .ok_or_else(|| format!("unknown width `{s}`"))
}

fn cond_from_suffix(s: &str) -> Result<Cond, DecodeError> {
    Cond::ALL
        .into_iter()
        .find(|c| c.suffix() == s)
        .ok_or_else(|| format!("unknown condition code `{s}`"))
}

fn mem_operand_to_json(m: &MemOperand) -> Json {
    Json::obj()
        .field("base", reg_to_json(m.base))
        .field("index", m.index.map(reg_to_json))
        .field("scale", u64::from(m.scale))
        .field("disp", i64_to_json(m.disp))
}

fn mem_operand_from_json(v: &Json) -> Result<MemOperand, DecodeError> {
    let index = match get(v, "index")? {
        Json::Null => None,
        r => Some(reg_from_json(r)?),
    };
    Ok(MemOperand {
        base: reg_from_json(get(v, "base")?)?,
        index,
        scale: get_int(v, "scale")?,
        disp: in_field("disp", i64_from_json(get(v, "disp")?))?,
    })
}

fn operand_to_json(o: &Operand) -> Json {
    match o {
        Operand::Reg(r, w) => Json::obj()
            .field("kind", "reg")
            .field("reg", reg_to_json(*r))
            .field("width", width_label(*w)),
        Operand::Imm(v) => Json::obj().field("kind", "imm").field("value", i64_to_json(*v)),
        Operand::Mem(m, w) => Json::obj()
            .field("kind", "mem")
            .field("mem", mem_operand_to_json(m))
            .field("width", width_label(*w)),
    }
}

fn operand_from_json(v: &Json) -> Result<Operand, DecodeError> {
    match get_str(v, "kind")? {
        "reg" => Ok(Operand::Reg(
            reg_from_json(get(v, "reg")?)?,
            width_from_label(get_str(v, "width")?)?,
        )),
        "imm" => Ok(Operand::Imm(in_field("value", i64_from_json(get(v, "value")?))?)),
        "mem" => Ok(Operand::Mem(
            mem_operand_from_json(get(v, "mem")?)?,
            width_from_label(get_str(v, "width")?)?,
        )),
        k => Err(format!("unknown operand kind `{k}`")),
    }
}

fn instr_to_json(i: &Instr) -> Json {
    match i {
        Instr::Alu { op, dest, src, lock } => Json::obj()
            .field("op", "alu")
            .field("alu", op.mnemonic())
            .field("dest", operand_to_json(dest))
            .field("src", operand_to_json(src))
            .field("lock", *lock),
        Instr::Mov { dest, src } => Json::obj()
            .field("op", "mov")
            .field("dest", operand_to_json(dest))
            .field("src", operand_to_json(src)),
        Instr::Cmov { cond, dest, src, width } => Json::obj()
            .field("op", "cmov")
            .field("cond", cond.suffix())
            .field("dest", reg_to_json(*dest))
            .field("src", operand_to_json(src))
            .field("width", width_label(*width)),
        Instr::Setcc { cond, dest } => Json::obj()
            .field("op", "setcc")
            .field("cond", cond.suffix())
            .field("dest", reg_to_json(*dest)),
        Instr::Cmp { a, b } => Json::obj()
            .field("op", "cmp")
            .field("a", operand_to_json(a))
            .field("b", operand_to_json(b)),
        Instr::Test { a, b } => Json::obj()
            .field("op", "test")
            .field("a", operand_to_json(a))
            .field("b", operand_to_json(b)),
        Instr::Shift { op, dest, amount } => Json::obj()
            .field("op", "shift")
            .field("shift", op.mnemonic())
            .field("dest", operand_to_json(dest))
            .field("amount", operand_to_json(amount)),
        Instr::Unary { op, dest } => Json::obj()
            .field("op", "unary")
            .field("unary", op.mnemonic())
            .field("dest", operand_to_json(dest)),
        Instr::Div { src } => Json::obj().field("op", "div").field("src", operand_to_json(src)),
        Instr::Imul { dest, src } => Json::obj()
            .field("op", "imul")
            .field("dest", reg_to_json(*dest))
            .field("src", operand_to_json(src)),
        Instr::Lea { dest, addr } => Json::obj()
            .field("op", "lea")
            .field("dest", reg_to_json(*dest))
            .field("addr", mem_operand_to_json(addr)),
        Instr::Bswap { dest } => Json::obj().field("op", "bswap").field("dest", reg_to_json(*dest)),
        Instr::Xchg { dest, src } => Json::obj()
            .field("op", "xchg")
            .field("dest", reg_to_json(*dest))
            .field("src", operand_to_json(src)),
        Instr::Lfence => Json::obj().field("op", "lfence"),
        Instr::Mfence => Json::obj().field("op", "mfence"),
        Instr::Nop => Json::obj().field("op", "nop"),
    }
}

fn instr_from_json(v: &Json) -> Result<Instr, DecodeError> {
    let op = get_str(v, "op")?;
    match op {
        "alu" => {
            let mn = get_str(v, "alu")?;
            let alu = AluOp::ALL
                .into_iter()
                .find(|a| a.mnemonic() == mn)
                .ok_or_else(|| format!("unknown ALU op `{mn}`"))?;
            Ok(Instr::Alu {
                op: alu,
                dest: operand_from_json(get(v, "dest")?)?,
                src: operand_from_json(get(v, "src")?)?,
                lock: get_bool(v, "lock")?,
            })
        }
        "mov" => Ok(Instr::Mov {
            dest: operand_from_json(get(v, "dest")?)?,
            src: operand_from_json(get(v, "src")?)?,
        }),
        "cmov" => Ok(Instr::Cmov {
            cond: cond_from_suffix(get_str(v, "cond")?)?,
            dest: reg_from_json(get(v, "dest")?)?,
            src: operand_from_json(get(v, "src")?)?,
            width: width_from_label(get_str(v, "width")?)?,
        }),
        "setcc" => Ok(Instr::Setcc {
            cond: cond_from_suffix(get_str(v, "cond")?)?,
            dest: reg_from_json(get(v, "dest")?)?,
        }),
        "cmp" => Ok(Instr::Cmp {
            a: operand_from_json(get(v, "a")?)?,
            b: operand_from_json(get(v, "b")?)?,
        }),
        "test" => Ok(Instr::Test {
            a: operand_from_json(get(v, "a")?)?,
            b: operand_from_json(get(v, "b")?)?,
        }),
        "shift" => {
            let mn = get_str(v, "shift")?;
            let shift = ShiftOp::ALL
                .into_iter()
                .find(|s| s.mnemonic() == mn)
                .ok_or_else(|| format!("unknown shift op `{mn}`"))?;
            Ok(Instr::Shift {
                op: shift,
                dest: operand_from_json(get(v, "dest")?)?,
                amount: operand_from_json(get(v, "amount")?)?,
            })
        }
        "unary" => {
            let mn = get_str(v, "unary")?;
            let unary = UnaryOp::ALL
                .into_iter()
                .find(|u| u.mnemonic() == mn)
                .ok_or_else(|| format!("unknown unary op `{mn}`"))?;
            Ok(Instr::Unary { op: unary, dest: operand_from_json(get(v, "dest")?)? })
        }
        "div" => Ok(Instr::Div { src: operand_from_json(get(v, "src")?)? }),
        "imul" => Ok(Instr::Imul {
            dest: reg_from_json(get(v, "dest")?)?,
            src: operand_from_json(get(v, "src")?)?,
        }),
        "lea" => Ok(Instr::Lea {
            dest: reg_from_json(get(v, "dest")?)?,
            addr: mem_operand_from_json(get(v, "addr")?)?,
        }),
        "bswap" => Ok(Instr::Bswap { dest: reg_from_json(get(v, "dest")?)? }),
        "xchg" => Ok(Instr::Xchg {
            dest: reg_from_json(get(v, "dest")?)?,
            src: operand_from_json(get(v, "src")?)?,
        }),
        "lfence" => Ok(Instr::Lfence),
        "mfence" => Ok(Instr::Mfence),
        "nop" => Ok(Instr::Nop),
        k => Err(format!("unknown instruction op `{k}`")),
    }
}

fn terminator_to_json(t: &Terminator) -> Json {
    match t {
        Terminator::Exit => Json::obj().field("kind", "exit"),
        Terminator::Jmp { target } => Json::obj().field("kind", "jmp").field("target", target.0),
        Terminator::CondJmp { cond, taken, not_taken } => Json::obj()
            .field("kind", "condjmp")
            .field("cond", cond.suffix())
            .field("taken", taken.0)
            .field("not_taken", not_taken.0),
        Terminator::IndirectJmp { src, table } => Json::obj()
            .field("kind", "indirectjmp")
            .field("src", reg_to_json(*src))
            .field("table", table.iter().map(|b| b.0).collect::<Vec<_>>()),
        Terminator::Call { target, return_to } => Json::obj()
            .field("kind", "call")
            .field("target", target.0)
            .field("return_to", return_to.0),
        Terminator::Ret => Json::obj().field("kind", "ret"),
    }
}

fn terminator_from_json(v: &Json) -> Result<Terminator, DecodeError> {
    match get_str(v, "kind")? {
        "exit" => Ok(Terminator::Exit),
        "jmp" => Ok(Terminator::Jmp { target: BlockId(get_usize(v, "target")?) }),
        "condjmp" => Ok(Terminator::CondJmp {
            cond: cond_from_suffix(get_str(v, "cond")?)?,
            taken: BlockId(get_usize(v, "taken")?),
            not_taken: BlockId(get_usize(v, "not_taken")?),
        }),
        "indirectjmp" => {
            let table = get_arr(v, "table")?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .map(|n| BlockId(n as usize))
                        .ok_or_else(|| "jump-table entry is not an integer".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Terminator::IndirectJmp { src: reg_from_json(get(v, "src")?)?, table })
        }
        "call" => Ok(Terminator::Call {
            target: BlockId(get_usize(v, "target")?),
            return_to: BlockId(get_usize(v, "return_to")?),
        }),
        "ret" => Ok(Terminator::Ret),
        k => Err(format!("unknown terminator kind `{k}`")),
    }
}

fn sandbox_to_json(s: &SandboxLayout) -> Json {
    Json::obj()
        .field("base", s.base)
        .field("data_pages", s.data_pages)
        .field("assist_page", s.assist_page)
        .field("line_offset", s.line_offset)
}

fn sandbox_from_json(v: &Json) -> Result<SandboxLayout, DecodeError> {
    let assist_page = match get(v, "assist_page")? {
        Json::Null => None,
        n => Some(n.as_u64().ok_or("assist_page is not an integer")?),
    };
    Ok(SandboxLayout {
        base: get_u64(v, "base")?,
        data_pages: get_u64(v, "data_pages")?,
        assist_page,
        line_offset: get_u64(v, "line_offset")?,
    })
}

/// Serialize a test case (blocks, sandbox, origin note).
pub fn test_case_to_json(tc: &TestCase) -> Json {
    let blocks: Vec<Json> = tc
        .blocks()
        .iter()
        .map(|b| {
            Json::obj()
                .field("id", b.id.0)
                .field("label", b.label.clone())
                .field("instrs", Json::Arr(b.instrs.iter().map(instr_to_json).collect()))
                .field("terminator", terminator_to_json(&b.terminator))
        })
        .collect();
    Json::obj()
        .field("origin", tc.origin())
        .field("sandbox", sandbox_to_json(&tc.sandbox()))
        .field("blocks", Json::Arr(blocks))
}

/// Deserialize a test case written by [`test_case_to_json`].
pub fn test_case_from_json(v: &Json) -> Result<TestCase, DecodeError> {
    let sandbox = in_field("sandbox", sandbox_from_json(get(v, "sandbox")?))?;
    let mut blocks = Vec::new();
    for (i, b) in get_arr(v, "blocks")?.iter().enumerate() {
        let block = (|| -> Result<BasicBlock, DecodeError> {
            let label = match get(b, "label")? {
                Json::Null => None,
                l => Some(l.as_str().ok_or("label is not a string")?.to_string()),
            };
            let instrs = get_arr(b, "instrs")?
                .iter()
                .enumerate()
                .map(|(k, inst)| in_field(&format!("instrs[{k}]"), instr_from_json(inst)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(BasicBlock {
                id: BlockId(get_usize(b, "id")?),
                label,
                instrs,
                terminator: in_field(
                    "terminator",
                    terminator_from_json(get(b, "terminator")?),
                )?,
            })
        })();
        blocks.push(in_field(&format!("blocks[{i}]"), block)?);
    }
    let origin = get_str(v, "origin")?.to_string();
    Ok(TestCase::new(blocks, sandbox).with_origin(origin))
}

/// Serialize one architectural input (registers, flags, hex-encoded sandbox
/// memory).
pub fn input_to_json(input: &Input) -> Json {
    let mut mem = String::with_capacity(input.mem.len() * 2);
    for byte in &input.mem {
        mem.push_str(&format!("{byte:02x}"));
    }
    Json::obj()
        .field("regs", input.regs.to_vec())
        .field("flags", u64::from(input.flags.bits()))
        .field("mem", mem)
        .field("seed_id", input.seed_id)
}

/// Deserialize an input written by [`input_to_json`].
pub fn input_from_json(v: &Json) -> Result<Input, DecodeError> {
    let regs_json = get_arr(v, "regs")?;
    if regs_json.len() != 16 {
        return Err(format!("expected 16 registers, found {}", regs_json.len()));
    }
    let mut regs = [0u64; 16];
    for (i, r) in regs_json.iter().enumerate() {
        regs[i] = r.as_u64().ok_or_else(|| format!("regs[{i}] is not an integer"))?;
    }
    let hex = get_str(v, "mem")?;
    if hex.len() % 2 != 0 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("mem is not an even-length hex string".to_string());
    }
    let mem = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| {
            u8::from_str_radix(std::str::from_utf8(pair).expect("ascii hex"), 16)
                .expect("validated hex digits")
        })
        .collect();
    Ok(Input {
        regs,
        flags: FlagSet::from_bits(get_int(v, "flags")?),
        mem,
        seed_id: get_u64(v, "seed_id")?,
    })
}

fn htrace_to_json(t: &HTrace) -> Json {
    Json::obj().field("sets", t.sets().bits()).field("samples", u64::from(t.samples()))
}

fn htrace_from_json(v: &Json) -> Result<HTrace, DecodeError> {
    Ok(HTrace::from_parts(
        SetVector::from_bits(get_u64(v, "sets")?),
        get_int(v, "samples")?,
    ))
}

fn violation_to_json(violation: &Violation) -> Json {
    Json::obj()
        .field("input_a", violation.input_a)
        .field("input_b", violation.input_b)
        .field("htrace_a", htrace_to_json(&violation.htrace_a))
        .field("htrace_b", htrace_to_json(&violation.htrace_b))
        .field("ctrace_digest", violation.ctrace_digest)
}

fn violation_from_json(v: &Json) -> Result<Violation, DecodeError> {
    Ok(Violation {
        input_a: get_usize(v, "input_a")?,
        input_b: get_usize(v, "input_b")?,
        htrace_a: in_field("htrace_a", htrace_from_json(get(v, "htrace_a")?))?,
        htrace_b: in_field("htrace_b", htrace_from_json(get(v, "htrace_b")?))?,
        ctrace_digest: get_u64(v, "ctrace_digest")?,
    })
}

// ---------------------------------------------------------------------------
// Contract / vulnerability codecs.

/// Serialize a contract structurally (the name alone would lose the window /
/// nesting parameters).
pub fn contract_to_json(c: &Contract) -> Json {
    Json::obj()
        .field("observation", c.observation.name())
        .field("execution", c.execution.name())
        .field("speculation_window", c.speculation_window)
        .field("nested_speculation", c.nested_speculation)
        .field("expose_speculative_stores", c.expose_speculative_stores)
}

/// Deserialize a contract written by [`contract_to_json`].
pub fn contract_from_json(v: &Json) -> Result<Contract, DecodeError> {
    let obs = get_str(v, "observation")?;
    let observation = [ObservationClause::Mem, ObservationClause::Ct, ObservationClause::Arch]
        .into_iter()
        .find(|o| o.name() == obs)
        .ok_or_else(|| format!("unknown observation clause `{obs}`"))?;
    let exe = get_str(v, "execution")?;
    let execution = [
        ExecutionClause::Seq,
        ExecutionClause::Cond,
        ExecutionClause::Bpas,
        ExecutionClause::CondBpas,
    ]
    .into_iter()
    .find(|e| e.name() == exe)
    .ok_or_else(|| format!("unknown execution clause `{exe}`"))?;
    Ok(Contract {
        observation,
        execution,
        speculation_window: get_usize(v, "speculation_window")?,
        nested_speculation: get_bool(v, "nested_speculation")?,
        expose_speculative_stores: get_bool(v, "expose_speculative_stores")?,
    })
}

/// Resolve a canonical contract name (`"CT-SEQ"`, `"ARCH-SEQ"`,
/// `"CT-COND-NOSPECSTORE"`, ...) to the contract with default parameters —
/// the ergonomic form job submissions use.
pub fn contract_from_name(name: &str) -> Option<Contract> {
    [
        Contract::ct_seq(),
        Contract::ct_bpas(),
        Contract::ct_cond(),
        Contract::ct_cond_bpas(),
        Contract::mem_seq(),
        Contract::mem_cond(),
        Contract::arch_seq(),
        Contract::ct_cond_no_spec_store(),
    ]
    .into_iter()
    .find(|c| c.name() == name)
}

fn vuln_class_from_label(s: &str) -> Result<VulnClass, DecodeError> {
    [
        VulnClass::SpectreV1,
        VulnClass::SpectreV1Var,
        VulnClass::SpectreV4,
        VulnClass::SpectreV4Var,
        VulnClass::Mds,
        VulnClass::LviNull,
        VulnClass::SpeculativeStoreEviction,
        VulnClass::Unknown,
        VulnClass::SpectreV2,
        VulnClass::SpectreV5Ret,
    ]
    .into_iter()
    .find(|v| v.to_string() == s)
    .ok_or_else(|| format!("unknown vulnerability class `{s}`"))
}

// ---------------------------------------------------------------------------
// Reports.

/// Serialize a [`GadgetSignature`] (the static gadget classifier's output).
/// The derived `class` label rides along for consumers that only want the
/// leak-class string; decoding ignores it.
pub fn gadget_signature_to_json(g: &GadgetSignature) -> Json {
    Json::obj()
        .field("source", g.source.to_string())
        .field("transmitter", g.transmitter.to_string())
        .field("through_load", g.through_load)
        .field("var_latency", g.var_latency)
        .field("class", g.label())
}

/// Deserialize a signature written by [`gadget_signature_to_json`].
pub fn gadget_signature_from_json(v: &Json) -> Result<GadgetSignature, DecodeError> {
    let src = get_str(v, "source")?;
    let source = [
        SourceKind::CondBranch,
        SourceKind::IndirectBranch,
        SourceKind::Return,
        SourceKind::StoreBypass,
        SourceKind::AssistLoad,
        SourceKind::VarLatency,
    ]
    .into_iter()
    .find(|k| k.to_string() == src)
    .ok_or_else(|| format!("unknown source kind `{src}`"))?;
    let tx = get_str(v, "transmitter")?;
    let transmitter = [TransmitterKind::Load, TransmitterKind::Store]
        .into_iter()
        .find(|k| k.to_string() == tx)
        .ok_or_else(|| format!("unknown transmitter kind `{tx}`"))?;
    Ok(GadgetSignature {
        source,
        transmitter,
        through_load: get_bool(v, "through_load")?,
        var_latency: get_bool(v, "var_latency")?,
    })
}

/// Serialize the integer-sum [`EffectivenessStats`] aggregate (§5.2).
pub fn effectiveness_stats_to_json(e: &EffectivenessStats) -> Json {
    Json::obj()
        .field("total_inputs", e.total_inputs)
        .field("effective_inputs", e.effective_inputs)
        .field("classes", e.classes)
        .field("singleton_classes", e.singleton_classes)
}

/// Serialize a [`ViolationReport`]: the full counterexample (test case,
/// inputs, diverging trace pair), the violated contract, the exact `u64`
/// campaign seed and the detection counters.
pub fn violation_report_to_json(r: &ViolationReport) -> Json {
    Json::obj()
        .field("test_case", test_case_to_json(&r.test_case))
        .field("inputs", Json::Arr(r.inputs.iter().map(input_to_json).collect()))
        .field("violation", violation_to_json(&r.violation))
        .field("contract", contract_to_json(&r.contract))
        .field("test_case_seed", r.test_case_seed)
        .field("vulnerability", r.vulnerability.to_string())
        .field("gadget", r.gadget.as_ref().map(gadget_signature_to_json))
        .field("test_cases_until_detection", r.test_cases_until_detection)
        .field("inputs_until_detection", r.inputs_until_detection)
}

/// Deserialize a report written by [`violation_report_to_json`].
pub fn violation_report_from_json(v: &Json) -> Result<ViolationReport, DecodeError> {
    let inputs = get_arr(v, "inputs")?
        .iter()
        .enumerate()
        .map(|(i, input)| in_field(&format!("inputs[{i}]"), input_from_json(input)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ViolationReport {
        test_case: in_field("test_case", test_case_from_json(get(v, "test_case")?))?,
        inputs,
        violation: in_field("violation", violation_from_json(get(v, "violation")?))?,
        contract: in_field("contract", contract_from_json(get(v, "contract")?))?,
        test_case_seed: get_u64(v, "test_case_seed")?,
        vulnerability: vuln_class_from_label(get_str(v, "vulnerability")?)?,
        // Absent in reports exported before the static classifier existed.
        gadget: match v.get("gadget") {
            None | Some(Json::Null) => None,
            Some(g) => Some(in_field("gadget", gadget_signature_from_json(g))?),
        },
        test_cases_until_detection: get_usize(v, "test_cases_until_detection")?,
        inputs_until_detection: get_usize(v, "inputs_until_detection")?,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint transfers and result payloads.  Checkpoints themselves move
// and rest only in the binary form (`crate::binfmt`); the result payload
// is JSON because people and scripts read it.

use revizor::orchestrator::{CellReport, MatrixCheckpoint, MatrixReport};

/// A decoded checkpoint-transfer frame (see
/// [`checkpoint_transfer_to_binary`](crate::binfmt::checkpoint_transfer_to_binary)).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointTransfer {
    /// The job the checkpoint belongs to.
    pub job: String,
    /// The sender's [`MatrixCheckpoint::digest`], computed **before**
    /// encoding.  Compare against `checkpoint.digest()` after decoding: a
    /// mismatch means the codec dropped or distorted state in transit.
    pub digest: u64,
    /// The transferred snapshot (its `wave` field is the replication
    /// cursor: a job's transfers must arrive strictly increasing).
    pub checkpoint: MatrixCheckpoint,
}

impl CheckpointTransfer {
    /// Does the sender's digest match the decoded checkpoint?
    pub fn validates(&self) -> bool {
        self.digest == self.checkpoint.digest()
    }
}

/// The **deterministic** part of a matrix result: one object per cell with
/// the verdict, counters, exact unit seed and the full violation report —
/// and no wall-clock fields.  Two runs of the same matrix seed render this
/// byte-identically, which is the campaign service's result contract (kill
/// + resume included); timing lives separately in [`matrix_timing_json`].
pub fn matrix_cells_json(report: &MatrixReport) -> Json {
    Json::Arr(report.cells.iter().map(cell_report_to_json).collect())
}

fn cell_report_to_json(cell: &CellReport) -> Json {
    Json::obj()
        .field("target", cell.target.id)
        .field("contract", cell.contract.name())
        .field("found", cell.found())
        .field("vulnerability", cell.vulnerability().map(|v| v.to_string()))
        .field("gadget_class", cell.violation.as_ref().and_then(|v| v.gadget.map(|g| g.label())))
        .field("test_cases", cell.test_cases)
        .field("statically_filtered", cell.filtered)
        .field("total_inputs", cell.total_inputs)
        .field("effectiveness", effectiveness_stats_to_json(&cell.effectiveness))
        .field("violation", cell.violation.as_ref().map(violation_report_to_json))
}

/// The wall-clock side channel of a matrix result: total duration plus the
/// per-cell attributed detection times, in milliseconds.  Nondeterministic
/// by nature, hence kept out of [`matrix_cells_json`].
pub fn matrix_timing_json(report: &MatrixReport) -> Json {
    Json::obj()
        .field("duration_ms", report.duration.as_secs_f64() * 1000.0)
        .field(
            "cells_ms",
            report
                .cells
                .iter()
                .map(|c| c.detection_time.as_secs_f64() * 1000.0)
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{checkpoint_transfer_from_binary, checkpoint_transfer_to_binary};
    use crate::json::parse;
    use revizor::orchestrator::CampaignMatrix;
    use revizor::targets::Target;
    use revizor::{FuzzerConfig, Revizor};
    use rvz_isa::builder::TestCaseBuilder;

    /// A campaign report with a real V1 violation (Target 5 × CT-SEQ).
    fn v1_report() -> ViolationReport {
        let report = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        report.cells[0].violation.clone().expect("V1 found within 60 test cases")
    }

    #[test]
    fn violation_report_round_trips_on_a_real_v1_violation() {
        let report = v1_report();
        let doc = violation_report_to_json(&report);
        // Through the writer and parser: the decoded report is identical,
        // including the exact u64 seed and every input byte.
        let parsed = parse(&doc.render()).unwrap();
        let decoded = violation_report_from_json(&parsed).unwrap();
        assert_eq!(decoded, report);
        // The pretty and ASCII renderings carry the same document.
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert_eq!(parse(&doc.render_ascii()).unwrap(), doc);
    }

    #[test]
    fn violation_report_replays_after_the_round_trip() {
        // The decoded counterexample is not just structurally equal — it
        // still reproduces the violation through the public API.
        let report = v1_report();
        let doc = violation_report_to_json(&report).render();
        let decoded = violation_report_from_json(&parse(&doc).unwrap()).unwrap();

        let target = Target::target5();
        let config = FuzzerConfig::for_target(&target, decoded.contract.clone());
        let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());
        let outcome = fuzzer.test_with_inputs(&decoded.test_case, &decoded.inputs).unwrap();
        let confirmed = outcome.confirmed_violation.expect("violation must replay");
        assert_eq!(
            (confirmed.input_a, confirmed.input_b),
            (report.violation.input_a, report.violation.input_b)
        );
    }

    #[test]
    fn handwritten_gadget_with_every_terminator_round_trips() {
        // Gadgets exercise Call/Ret/IndirectJmp, which generated code does
        // not; round-trip them explicitly.
        for tc in [
            revizor::gadgets::spectre_v1(),
            revizor::gadgets::spectre_v4(),
            revizor::gadgets::mds_lfb(),
        ] {
            let doc = test_case_to_json(&tc).render();
            let decoded = test_case_from_json(&parse(&doc).unwrap()).unwrap();
            assert_eq!(decoded, tc);
        }
    }

    #[test]
    fn exotic_operands_round_trip() {
        use rvz_isa::Reg;
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.push(Instr::Alu {
                    op: AluOp::Sbb,
                    dest: Operand::Mem(
                        MemOperand::full(Reg::R14, Reg::Rax, 8, -4096),
                        Width::Word,
                    ),
                    src: Operand::Imm(i64::MIN),
                    lock: true,
                });
                b.push(Instr::Lea { dest: Reg::Rcx, addr: MemOperand::base_disp(Reg::R14, -1) });
                b.exit();
            })
            .build();
        let doc = test_case_to_json(&tc).render();
        assert_eq!(test_case_from_json(&parse(&doc).unwrap()).unwrap(), tc);
    }

    #[test]
    fn contract_codec_covers_every_clause_combination() {
        for c in [
            Contract::ct_seq(),
            Contract::ct_bpas(),
            Contract::ct_cond(),
            Contract::ct_cond_bpas(),
            Contract::mem_seq(),
            Contract::mem_cond(),
            Contract::arch_seq(),
            Contract::ct_cond_no_spec_store(),
            Contract::ct_cond().with_speculation_window(17).with_nesting(true),
        ] {
            let doc = contract_to_json(&c).render();
            assert_eq!(contract_from_json(&parse(&doc).unwrap()).unwrap(), c);
        }
    }

    #[test]
    fn contract_names_resolve() {
        assert_eq!(contract_from_name("CT-SEQ"), Some(Contract::ct_seq()));
        assert_eq!(contract_from_name("CT-COND-BPAS"), Some(Contract::ct_cond_bpas()));
        assert_eq!(contract_from_name("ARCH-SEQ"), Some(Contract::arch_seq()));
        assert_eq!(contract_from_name("bogus"), None);
    }

    /// Two waves into a four-contract Target 5 matrix (escalation on, so
    /// the group carries escalation and coverage state worth preserving).
    fn mid_run(matrix: &CampaignMatrix) -> MatrixCheckpoint {
        use revizor::campaign::NoopObserver;
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        run.checkpoint()
    }

    fn escalating_matrix() -> CampaignMatrix {
        CampaignMatrix::new(7)
            .with_budget(40)
            .with_escalation(true)
            .add_cells(Target::target5(), Contract::table3_contracts())
    }

    #[test]
    fn matrix_checkpoint_round_trips_mid_run() {
        use revizor::campaign::NoopObserver;
        let matrix = escalating_matrix();
        let snapshot = mid_run(&matrix);
        let frame = checkpoint_transfer_to_binary("j", &snapshot, &Json::obj());
        let decoded = checkpoint_transfer_from_binary(&frame).unwrap().transfer.checkpoint;
        assert_eq!(decoded, snapshot);
        // The decoded checkpoint is accepted by resume and completes to the
        // same verdicts as the uninterrupted run.
        let baseline = matrix.run();
        let mut resumed = matrix.resume(&decoded).expect("decoded checkpoint resumes");
        while resumed.step(&mut NoopObserver) {}
        let report = resumed.finish(&mut NoopObserver);
        assert_eq!(
            matrix_cells_json(&baseline).render(),
            matrix_cells_json(&report).render(),
            "deterministic payloads must be byte-identical"
        );
    }

    #[test]
    fn checkpoint_transfer_round_trips_and_validates_mid_run() {
        let snapshot = mid_run(&escalating_matrix());
        // Encoded and decoded as the worker protocol sends it.
        let meta = Json::obj().field("op", "wave");
        let frame = checkpoint_transfer_to_binary("j-test-1", &snapshot, &meta);
        let transfer = checkpoint_transfer_from_binary(&frame).unwrap().transfer;
        assert_eq!(transfer.job, "j-test-1");
        assert_eq!(transfer.checkpoint, snapshot);
        assert_eq!(transfer.checkpoint.wave, 2);
        // End-to-end replication validation: the digest computed before
        // encoding matches the digest of the decoded snapshot.
        assert!(transfer.validates(), "encode→decode must preserve the digest");
        // Tampering with the payload (or a codec regression) is caught.
        let mut tampered = transfer.clone();
        tampered.checkpoint.groups[0].next_index += 1;
        assert!(!tampered.validates());
    }

    #[test]
    fn i64_codec_round_trips_priorities() {
        for v in [
            0i64,
            1,
            -1,
            42,
            -42,
            -9_000_000_000_000_000,
            -9_000_000_000_000_001,
            i64::MAX,
            i64::MIN,
        ] {
            let doc = i64_to_json(v).render();
            assert_eq!(i64_from_json(&parse(&doc).unwrap()).unwrap(), v, "{v}");
        }
        // Small negatives are written as the plain number standard
        // consumers expect — not the {"neg": …} escape hatch.
        assert_eq!(i64_to_json(-3).render(), "-3");
        // The plain negative form standard emitters produce (serde_json,
        // python json) decodes too — the documented "any signed integer".
        assert_eq!(i64_from_json(&parse("-3").unwrap()).unwrap(), -3);
        assert_eq!(
            i64_from_json(&parse("-9000000000000000").unwrap()).unwrap(),
            -9_000_000_000_000_000
        );
        assert!(i64_from_json(&parse("-3.5").unwrap()).is_err());
        assert!(i64_from_json(&Json::Str("high".into())).is_err());
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        let cases = [
            "{}",
            r#"{"test_case": 3}"#,
            r#"{"regs": [1,2], "flags": 0, "mem": "zz", "seed_id": 0}"#,
        ];
        for text in cases {
            let doc = parse(text).unwrap();
            assert!(violation_report_from_json(&doc).is_err());
        }
        assert!(input_from_json(&parse(r#"{"regs":[],"flags":0,"mem":"","seed_id":0}"#).unwrap())
            .is_err());
        assert!(input_from_json(
            &parse(r#"{"regs":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"flags":0,"mem":"0g","seed_id":0}"#)
                .unwrap()
        )
        .is_err());
    }
}
