//! The compact binary frame format for checkpoints, reports and spool
//! records.
//!
//! Checkpoints have exactly one encoding, this one: at fleet scale every
//! wave of every job crosses the worker wire and the spool, so they move
//! and rest as length-prefixed binary frames.  JSON ([`crate::report`]) is
//! kept for what people and scripts read — result payloads, violation
//! reports and the client-port protocol.
//!
//! # Frame layout
//!
//! ```text
//! magic   4 bytes   "RVZB"
//! version u8        FORMAT_VERSION (1)
//! kind    u8        frame kind (checkpoint, transfer, grant, record, ...)
//! length  u32 LE    body length in bytes (as stored, i.e. compressed)
//! body    ...       zero-run-packed section table
//! ```
//!
//! The body is a **section table**: a varint section count followed by
//! `tag u8 | varint length | bytes` entries.  Decoders skip unknown tags,
//! so new sections can be added without a version bump; removing or
//! re-typing a section is what `FORMAT_VERSION` guards.
//!
//! The body is stored **zero-run packed** ([`encode_rle`]): alternating
//! `varint literal-length | literal bytes | varint zero-run-length`
//! chunks.  Revizor's architectural inputs are deliberately low-entropy
//! (§5.2: each sandbox word takes one of a handful of cache-line-aligned
//! values), so checkpoint payloads are mostly zero bytes — run-packing
//! them costs one linear pass and shrinks real checkpoints several-fold
//! on top of the structural savings.  Incompressible data expands by a
//! few varint bytes at worst.
//!
//! # Payload encodings
//!
//! * counters and lengths are LEB128 **varints**; signed integers are
//!   zigzag-folded first — instruction streams pack into a few bytes per
//!   instruction;
//! * entropy-bearing words (seeds, digests, cache-set vectors, register
//!   file contents) are **raw little-endian** `u64`s — a varint would
//!   inflate them;
//! * enumerations are one-byte indices into their canonical `ALL` arrays
//!   (`Reg::ALL`, `Cond::ALL`, ...) — the array order is part of the wire
//!   format, guarded by `FORMAT_VERSION`;
//! * strings are varint-length-prefixed UTF-8; sandbox memory is raw
//!   bytes, not hex.
//!
//! Decoding is bounds-checked end to end and **never panics** on malformed
//! input: every reader returns a [`DecodeError`].  The digest-validation
//! contract is unchanged — [`CheckpointTransfer::validates`] compares the
//! sender's pre-encode digest against the digest of the decoded snapshot,
//! so a codec regression is caught end to end.

use crate::json::Json;
use crate::report::{CheckpointTransfer, DecodeError};
use revizor::diversity::{Pattern, PatternCoverage};
use revizor::fuzzer::ViolationReport;
use revizor::orchestrator::{CellProgress, GroupProgress, MatrixCheckpoint};
use revizor::staticanalysis::{GadgetSignature, SourceKind, TransmitterKind};
use revizor::VulnClass;
use rvz_analyzer::{EffectivenessStats, Violation};
use rvz_cache::SetVector;
use rvz_executor::HTrace;
use rvz_isa::{
    AluOp, BasicBlock, BlockId, Cond, FlagSet, Input, Instr, MemOperand, Operand, Reg,
    SandboxLayout, Terminator, TestCase, Width,
};
use rvz_model::{Contract, ExecutionClause, ObservationClause};
use std::collections::BTreeSet;
use std::time::Duration;

/// The frame magic: every binary frame starts with these four bytes.  The
/// first byte (`R`) can never open a JSON line (`{`), which is how the
/// service's framing layer tells the two formats apart on a shared socket.
pub const MAGIC: [u8; 4] = *b"RVZB";

/// The binary format version, bumped on any incompatible payload change
/// (section re-typing, enum reordering).  Adding new section tags does
/// *not* require a bump — decoders skip unknown tags.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed frame header size: magic + version + kind + u32 body length.
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body accepted from the wire: a corrupt or
/// hostile length prefix must not make a reader allocate gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

// Frame kinds.
/// A bare [`MatrixCheckpoint`].
pub const KIND_CHECKPOINT: u8 = 1;
/// A checkpoint transfer (job + digest + checkpoint, plus service meta).
pub const KIND_TRANSFER: u8 = 2;
/// A coordinator work grant (service meta + optional resume checkpoint).
pub const KIND_GRANT: u8 = 3;
/// A spool job record.
pub const KIND_SPOOL_RECORD: u8 = 4;
/// A bare [`ViolationReport`].
pub const KIND_REPORT: u8 = 5;
/// A result-store index entry.
pub const KIND_STORE_ENTRY: u8 = 6;

// Section tags (shared across frame kinds; a tag means the same thing in
// every frame that carries it).
/// Job id (string).
pub const TAG_JOB: u8 = 1;
/// Pre-encode checkpoint digest (u64 LE).
pub const TAG_DIGEST: u8 = 2;
/// Replication cursor / wave counter (varint).
pub const TAG_WAVE: u8 = 3;
/// A [`MatrixCheckpoint`] payload.
pub const TAG_CHECKPOINT: u8 = 4;
/// A binary-JSON document (service meta, job specs, results, events).
pub const TAG_META: u8 = 5;
/// A per-unit record (spool records carry one per work unit).
pub const TAG_UNIT: u8 = 6;
/// A [`ViolationReport`] payload.
pub const TAG_REPORT: u8 = 7;

// ---------------------------------------------------------------------------
// Writer primitives.

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-folded signed varint.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a raw little-endian `u64` (entropy-bearing words).
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------------
// Reader primitives: bounds-checked, never panic.

/// A bounds-checked cursor over a binary payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            if shift == 63 && low > 1 {
                return Err("varint overflows u64".to_string());
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    /// Read a zigzag-folded signed varint.
    pub fn zigzag(&mut self) -> Result<i64, DecodeError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Read a varint into `usize` (or any narrower integer).
    pub fn int<T: TryFrom<u64>>(&mut self) -> Result<T, DecodeError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| format!("integer {v} out of range"))
    }

    /// Read a raw little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid boolean byte {b:#04x}")),
        }
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<String, DecodeError> {
        let len: usize = self.int()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len: usize = self.int()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read an element count and pre-flight it against the bytes left:
    /// every element costs at least one byte, so a count beyond
    /// `remaining()` is corrupt — reject it before allocating.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n: usize = self.int()?;
        if n > self.remaining() {
            return Err(format!("element count {n} exceeds the {} bytes left", self.remaining()));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Zero-run packing (the body compression layer).

/// Zero-run-pack `src`: alternating `varint literal-length | literals |
/// varint zero-run-length` chunks.  Zero runs shorter than four bytes are
/// cheaper left as literals, so they are.
pub fn encode_rle(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 4 + 16);
    let mut i = 0;
    while i < src.len() {
        // Extend the literal chunk until a zero run worth encoding (>= 4
        // bytes) or the end of input.
        let lit_start = i;
        while i < src.len() {
            if src[i] == 0 {
                let mut j = i;
                while j < src.len() && src[j] == 0 {
                    j += 1;
                }
                if j - i >= 4 {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        put_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&src[lit_start..i]);
        let zero_start = i;
        while i < src.len() && src[i] == 0 {
            i += 1;
        }
        put_varint(&mut out, (i - zero_start) as u64);
    }
    out
}

/// Undo [`encode_rle`].  `max` bounds the decoded size so a corrupt or
/// hostile run length cannot make the reader allocate gigabytes.
pub fn decode_rle(src: &[u8], max: usize) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(src);
    let mut out = Vec::with_capacity(src.len() * 2);
    while !r.is_empty() {
        let lit: usize = r.int()?;
        if out.len().saturating_add(lit) > max {
            return Err(format!("run-packed payload exceeds the {max}-byte limit"));
        }
        out.extend_from_slice(r.take(lit)?);
        let zeros: usize = r.int()?;
        if out.len().saturating_add(zeros) > max {
            return Err(format!("run-packed payload exceeds the {max}-byte limit"));
        }
        out.resize(out.len() + zeros, 0);
    }
    Ok(out)
}

fn enum_idx<T: Copy + PartialEq>(all: &[T], v: T) -> u8 {
    all.iter().position(|x| *x == v).expect("enum value in its ALL array") as u8
}

fn enum_at<T: Copy>(all: &[T], idx: u8, what: &str) -> Result<T, DecodeError> {
    all.get(usize::from(idx)).copied().ok_or_else(|| format!("invalid {what} index {idx}"))
}

// ---------------------------------------------------------------------------
// Frames and section tables.

/// Build one frame: header, section table, sections.
pub struct FrameBuilder {
    kind: u8,
    sections: Vec<(u8, Vec<u8>)>,
}

impl FrameBuilder {
    /// Start a frame of `kind`.
    pub fn new(kind: u8) -> FrameBuilder {
        FrameBuilder { kind, sections: Vec::new() }
    }

    /// Append a raw section.
    pub fn section(mut self, tag: u8, bytes: Vec<u8>) -> FrameBuilder {
        self.sections.push((tag, bytes));
        self
    }

    /// Append a string section.
    pub fn str_section(self, tag: u8, s: &str) -> FrameBuilder {
        self.section(tag, s.as_bytes().to_vec())
    }

    /// Append a raw-LE `u64` section.
    pub fn u64_section(self, tag: u8, v: u64) -> FrameBuilder {
        self.section(tag, v.to_le_bytes().to_vec())
    }

    /// Append a varint section.
    pub fn varint_section(self, tag: u8, v: u64) -> FrameBuilder {
        let mut out = Vec::with_capacity(10);
        put_varint(&mut out, v);
        self.section(tag, out)
    }

    /// Append a binary-JSON section.
    pub fn json_section(self, tag: u8, doc: &Json) -> FrameBuilder {
        let mut out = Vec::new();
        enc_json(&mut out, doc);
        self.section(tag, out)
    }

    /// Append a [`MatrixCheckpoint`] section.
    pub fn checkpoint_section(self, tag: u8, cp: &MatrixCheckpoint) -> FrameBuilder {
        let mut out = Vec::new();
        enc_checkpoint(&mut out, cp);
        self.section(tag, out)
    }

    /// Serialize the frame (the body is zero-run packed).
    pub fn build(self) -> Vec<u8> {
        let mut body = Vec::new();
        put_varint(&mut body, self.sections.len() as u64);
        for (tag, bytes) in &self.sections {
            body.push(*tag);
            put_bytes(&mut body, bytes);
        }
        let packed = encode_rle(&body);
        let mut out = Vec::with_capacity(HEADER_LEN + packed.len());
        out.extend_from_slice(&MAGIC);
        out.push(FORMAT_VERSION);
        out.push(self.kind);
        put_u32_le(&mut out, packed.len() as u32);
        out.extend_from_slice(&packed);
        out
    }
}

/// A parsed frame: kind plus its section table (tags may repeat).  Owns
/// the unpacked body; sections borrow from it.
pub struct Frame {
    /// The frame kind byte.
    pub kind: u8,
    body: Vec<u8>,
    sections: Vec<(u8, std::ops::Range<usize>)>,
}

/// How many bytes the frame starting at `buf[0]` occupies, if its header
/// is complete — the service framing layer uses this to wait for exactly
/// one whole frame.  Returns an error for bad magic, a wrong version or an
/// oversized length so a reactor can drop the connection instead of
/// waiting forever.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    if buf.len() < HEADER_LEN {
        // Reject bad magic as early as the bytes allow.
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err("bad frame magic".to_string());
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err("bad frame magic".to_string());
    }
    if buf[4] != FORMAT_VERSION {
        return Err(format!("unsupported binary format version {}", buf[4]));
    }
    let len = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame body of {len} bytes exceeds the {MAX_FRAME} limit"));
    }
    Ok(Some(HEADER_LEN + len))
}

/// Parse one complete frame (header + body).
pub fn parse_frame(buf: &[u8]) -> Result<Frame, DecodeError> {
    let total = frame_len(buf)?.ok_or("truncated frame header")?;
    if buf.len() < total {
        return Err(format!("truncated frame: header promises {total} bytes, have {}", buf.len()));
    }
    let kind = buf[5];
    let body = decode_rle(&buf[HEADER_LEN..total], MAX_FRAME)?;
    let mut r = Reader::new(&body);
    let n = r.count()?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        let len: usize = r.int()?;
        let start = body.len() - r.remaining();
        r.take(len)?;
        sections.push((tag, start..start + len));
    }
    Ok(Frame { kind, body, sections })
}

impl Frame {
    /// The first section with `tag`, if any.
    pub fn section(&self, tag: u8) -> Option<&[u8]> {
        self.sections.iter().find(|(t, _)| *t == tag).map(|(_, r)| &self.body[r.clone()])
    }

    /// All sections with `tag`, in frame order.
    pub fn sections(&self, tag: u8) -> impl Iterator<Item = &[u8]> + '_ {
        self.sections.iter().filter(move |(t, _)| *t == tag).map(|(_, r)| &self.body[r.clone()])
    }

    fn need(&self, tag: u8, what: &str) -> Result<&[u8], DecodeError> {
        self.section(tag).ok_or_else(|| format!("frame is missing its {what} section"))
    }

    /// Decode a required string section.
    pub fn str_section(&self, tag: u8, what: &str) -> Result<String, DecodeError> {
        String::from_utf8(self.need(tag, what)?.to_vec())
            .map_err(|_| format!("{what} section is not valid UTF-8"))
    }

    /// Decode a required raw-LE `u64` section.
    pub fn u64_section(&self, tag: u8, what: &str) -> Result<u64, DecodeError> {
        let b = self.need(tag, what)?;
        Ok(u64::from_le_bytes(
            b.try_into().map_err(|_| format!("{what} section is not 8 bytes"))?,
        ))
    }

    /// Decode a required varint section.
    pub fn varint_section(&self, tag: u8, what: &str) -> Result<u64, DecodeError> {
        Reader::new(self.need(tag, what)?).varint()
    }

    /// Decode a required binary-JSON section.
    pub fn json_section(&self, tag: u8, what: &str) -> Result<Json, DecodeError> {
        let mut r = Reader::new(self.need(tag, what)?);
        dec_json(&mut r)
    }

    /// Decode a required checkpoint section.
    pub fn checkpoint_section(&self, tag: u8, what: &str) -> Result<MatrixCheckpoint, DecodeError> {
        let mut r = Reader::new(self.need(tag, what)?);
        dec_checkpoint(&mut r)
    }
}

// ---------------------------------------------------------------------------
// Generic binary JSON (service meta, job specs, results, events).

const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_NUM: u8 = 3;
const J_UINT: u8 = 4;
const J_STR: u8 = 5;
const J_ARR: u8 = 6;
const J_OBJ: u8 = 7;

/// Encode an arbitrary [`Json`] document in compact binary form.
pub fn enc_json(out: &mut Vec<u8>, doc: &Json) {
    match doc {
        Json::Null => out.push(J_NULL),
        Json::Bool(false) => out.push(J_FALSE),
        Json::Bool(true) => out.push(J_TRUE),
        Json::Num(f) => {
            out.push(J_NUM);
            put_f64(out, *f);
        }
        Json::UInt(v) => {
            out.push(J_UINT);
            put_varint(out, *v);
        }
        Json::Str(s) => {
            out.push(J_STR);
            put_str(out, s);
        }
        Json::Arr(items) => {
            out.push(J_ARR);
            put_varint(out, items.len() as u64);
            for item in items {
                enc_json(out, item);
            }
        }
        Json::Obj(fields) => {
            out.push(J_OBJ);
            put_varint(out, fields.len() as u64);
            for (key, value) in fields {
                put_str(out, key);
                enc_json(out, value);
            }
        }
    }
}

/// Decode a document written by [`enc_json`].
pub fn dec_json(r: &mut Reader) -> Result<Json, DecodeError> {
    match r.u8()? {
        J_NULL => Ok(Json::Null),
        J_FALSE => Ok(Json::Bool(false)),
        J_TRUE => Ok(Json::Bool(true)),
        J_NUM => Ok(Json::Num(r.f64()?)),
        J_UINT => Ok(Json::UInt(r.varint()?)),
        J_STR => Ok(Json::Str(r.str_()?)),
        J_ARR => {
            let n = r.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_json(r)?);
            }
            Ok(Json::Arr(items))
        }
        J_OBJ => {
            let n = r.count()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let key = r.str_()?;
                fields.push((key, dec_json(r)?));
            }
            Ok(Json::Obj(fields))
        }
        t => Err(format!("invalid JSON tag byte {t:#04x}")),
    }
}

// ---------------------------------------------------------------------------
// ISA-level payload codecs.

fn enc_reg(out: &mut Vec<u8>, r: Reg) {
    out.push(enum_idx(&Reg::ALL, r));
}

fn dec_reg(r: &mut Reader) -> Result<Reg, DecodeError> {
    let idx = r.u8()?;
    enum_at(&Reg::ALL, idx, "register")
}

fn enc_width(out: &mut Vec<u8>, w: Width) {
    out.push(enum_idx(&Width::ALL, w));
}

fn dec_width(r: &mut Reader) -> Result<Width, DecodeError> {
    let idx = r.u8()?;
    enum_at(&Width::ALL, idx, "width")
}

fn enc_cond(out: &mut Vec<u8>, c: Cond) {
    out.push(enum_idx(&Cond::ALL, c));
}

fn dec_cond(r: &mut Reader) -> Result<Cond, DecodeError> {
    let idx = r.u8()?;
    enum_at(&Cond::ALL, idx, "condition code")
}

fn enc_mem_operand(out: &mut Vec<u8>, m: &MemOperand) {
    enc_reg(out, m.base);
    match m.index {
        None => out.push(0),
        Some(idx) => {
            out.push(1);
            enc_reg(out, idx);
        }
    }
    out.push(m.scale);
    put_zigzag(out, m.disp);
}

fn dec_mem_operand(r: &mut Reader) -> Result<MemOperand, DecodeError> {
    let base = dec_reg(r)?;
    let index = match r.u8()? {
        0 => None,
        1 => Some(dec_reg(r)?),
        b => return Err(format!("invalid option byte {b:#04x} for index register")),
    };
    Ok(MemOperand { base, index, scale: r.u8()?, disp: r.zigzag()? })
}

const OP_REG: u8 = 0;
const OP_IMM: u8 = 1;
const OP_MEM: u8 = 2;

fn enc_operand(out: &mut Vec<u8>, o: &Operand) {
    match o {
        Operand::Reg(reg, w) => {
            out.push(OP_REG);
            enc_reg(out, *reg);
            enc_width(out, *w);
        }
        Operand::Imm(v) => {
            out.push(OP_IMM);
            put_zigzag(out, *v);
        }
        Operand::Mem(m, w) => {
            out.push(OP_MEM);
            enc_mem_operand(out, m);
            enc_width(out, *w);
        }
    }
}

fn dec_operand(r: &mut Reader) -> Result<Operand, DecodeError> {
    match r.u8()? {
        OP_REG => Ok(Operand::Reg(dec_reg(r)?, dec_width(r)?)),
        OP_IMM => Ok(Operand::Imm(r.zigzag()?)),
        OP_MEM => Ok(Operand::Mem(dec_mem_operand(r)?, dec_width(r)?)),
        t => Err(format!("invalid operand tag {t:#04x}")),
    }
}

const I_ALU: u8 = 0;
const I_MOV: u8 = 1;
const I_CMOV: u8 = 2;
const I_SETCC: u8 = 3;
const I_CMP: u8 = 4;
const I_TEST: u8 = 5;
const I_SHIFT: u8 = 6;
const I_UNARY: u8 = 7;
const I_DIV: u8 = 8;
const I_IMUL: u8 = 9;
const I_LEA: u8 = 10;
const I_BSWAP: u8 = 11;
const I_XCHG: u8 = 12;
const I_LFENCE: u8 = 13;
const I_MFENCE: u8 = 14;
const I_NOP: u8 = 15;

fn enc_instr(out: &mut Vec<u8>, i: &Instr) {
    match i {
        Instr::Alu { op, dest, src, lock } => {
            out.push(I_ALU);
            out.push(enum_idx(&AluOp::ALL, *op));
            enc_operand(out, dest);
            enc_operand(out, src);
            put_bool(out, *lock);
        }
        Instr::Mov { dest, src } => {
            out.push(I_MOV);
            enc_operand(out, dest);
            enc_operand(out, src);
        }
        Instr::Cmov { cond, dest, src, width } => {
            out.push(I_CMOV);
            enc_cond(out, *cond);
            enc_reg(out, *dest);
            enc_operand(out, src);
            enc_width(out, *width);
        }
        Instr::Setcc { cond, dest } => {
            out.push(I_SETCC);
            enc_cond(out, *cond);
            enc_reg(out, *dest);
        }
        Instr::Cmp { a, b } => {
            out.push(I_CMP);
            enc_operand(out, a);
            enc_operand(out, b);
        }
        Instr::Test { a, b } => {
            out.push(I_TEST);
            enc_operand(out, a);
            enc_operand(out, b);
        }
        Instr::Shift { op, dest, amount } => {
            out.push(I_SHIFT);
            out.push(enum_idx(&rvz_isa::ShiftOp::ALL, *op));
            enc_operand(out, dest);
            enc_operand(out, amount);
        }
        Instr::Unary { op, dest } => {
            out.push(I_UNARY);
            out.push(enum_idx(&rvz_isa::UnaryOp::ALL, *op));
            enc_operand(out, dest);
        }
        Instr::Div { src } => {
            out.push(I_DIV);
            enc_operand(out, src);
        }
        Instr::Imul { dest, src } => {
            out.push(I_IMUL);
            enc_reg(out, *dest);
            enc_operand(out, src);
        }
        Instr::Lea { dest, addr } => {
            out.push(I_LEA);
            enc_reg(out, *dest);
            enc_mem_operand(out, addr);
        }
        Instr::Bswap { dest } => {
            out.push(I_BSWAP);
            enc_reg(out, *dest);
        }
        Instr::Xchg { dest, src } => {
            out.push(I_XCHG);
            enc_reg(out, *dest);
            enc_operand(out, src);
        }
        Instr::Lfence => out.push(I_LFENCE),
        Instr::Mfence => out.push(I_MFENCE),
        Instr::Nop => out.push(I_NOP),
    }
}

fn dec_instr(r: &mut Reader) -> Result<Instr, DecodeError> {
    match r.u8()? {
        I_ALU => Ok(Instr::Alu {
            op: {
                let idx = r.u8()?;
                enum_at(&AluOp::ALL, idx, "ALU op")?
            },
            dest: dec_operand(r)?,
            src: dec_operand(r)?,
            lock: r.bool()?,
        }),
        I_MOV => Ok(Instr::Mov { dest: dec_operand(r)?, src: dec_operand(r)? }),
        I_CMOV => Ok(Instr::Cmov {
            cond: dec_cond(r)?,
            dest: dec_reg(r)?,
            src: dec_operand(r)?,
            width: dec_width(r)?,
        }),
        I_SETCC => Ok(Instr::Setcc { cond: dec_cond(r)?, dest: dec_reg(r)? }),
        I_CMP => Ok(Instr::Cmp { a: dec_operand(r)?, b: dec_operand(r)? }),
        I_TEST => Ok(Instr::Test { a: dec_operand(r)?, b: dec_operand(r)? }),
        I_SHIFT => Ok(Instr::Shift {
            op: {
                let idx = r.u8()?;
                enum_at(&rvz_isa::ShiftOp::ALL, idx, "shift op")?
            },
            dest: dec_operand(r)?,
            amount: dec_operand(r)?,
        }),
        I_UNARY => Ok(Instr::Unary {
            op: {
                let idx = r.u8()?;
                enum_at(&rvz_isa::UnaryOp::ALL, idx, "unary op")?
            },
            dest: dec_operand(r)?,
        }),
        I_DIV => Ok(Instr::Div { src: dec_operand(r)? }),
        I_IMUL => Ok(Instr::Imul { dest: dec_reg(r)?, src: dec_operand(r)? }),
        I_LEA => Ok(Instr::Lea { dest: dec_reg(r)?, addr: dec_mem_operand(r)? }),
        I_BSWAP => Ok(Instr::Bswap { dest: dec_reg(r)? }),
        I_XCHG => Ok(Instr::Xchg { dest: dec_reg(r)?, src: dec_operand(r)? }),
        I_LFENCE => Ok(Instr::Lfence),
        I_MFENCE => Ok(Instr::Mfence),
        I_NOP => Ok(Instr::Nop),
        t => Err(format!("invalid instruction tag {t:#04x}")),
    }
}

const T_EXIT: u8 = 0;
const T_JMP: u8 = 1;
const T_CONDJMP: u8 = 2;
const T_INDIRECTJMP: u8 = 3;
const T_CALL: u8 = 4;
const T_RET: u8 = 5;

fn enc_terminator(out: &mut Vec<u8>, t: &Terminator) {
    match t {
        Terminator::Exit => out.push(T_EXIT),
        Terminator::Jmp { target } => {
            out.push(T_JMP);
            put_varint(out, target.0 as u64);
        }
        Terminator::CondJmp { cond, taken, not_taken } => {
            out.push(T_CONDJMP);
            enc_cond(out, *cond);
            put_varint(out, taken.0 as u64);
            put_varint(out, not_taken.0 as u64);
        }
        Terminator::IndirectJmp { src, table } => {
            out.push(T_INDIRECTJMP);
            enc_reg(out, *src);
            put_varint(out, table.len() as u64);
            for b in table {
                put_varint(out, b.0 as u64);
            }
        }
        Terminator::Call { target, return_to } => {
            out.push(T_CALL);
            put_varint(out, target.0 as u64);
            put_varint(out, return_to.0 as u64);
        }
        Terminator::Ret => out.push(T_RET),
    }
}

fn dec_terminator(r: &mut Reader) -> Result<Terminator, DecodeError> {
    match r.u8()? {
        T_EXIT => Ok(Terminator::Exit),
        T_JMP => Ok(Terminator::Jmp { target: BlockId(r.int()?) }),
        T_CONDJMP => Ok(Terminator::CondJmp {
            cond: dec_cond(r)?,
            taken: BlockId(r.int()?),
            not_taken: BlockId(r.int()?),
        }),
        T_INDIRECTJMP => {
            let src = dec_reg(r)?;
            let n = r.count()?;
            let mut table = Vec::with_capacity(n);
            for _ in 0..n {
                table.push(BlockId(r.int()?));
            }
            Ok(Terminator::IndirectJmp { src, table })
        }
        T_CALL => Ok(Terminator::Call {
            target: BlockId(r.int()?),
            return_to: BlockId(r.int()?),
        }),
        T_RET => Ok(Terminator::Ret),
        t => Err(format!("invalid terminator tag {t:#04x}")),
    }
}

fn enc_sandbox(out: &mut Vec<u8>, s: &SandboxLayout) {
    put_u64_le(out, s.base);
    put_varint(out, s.data_pages);
    match s.assist_page {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_u64_le(out, p);
        }
    }
    put_varint(out, s.line_offset);
}

fn dec_sandbox(r: &mut Reader) -> Result<SandboxLayout, DecodeError> {
    let base = r.u64_le()?;
    let data_pages = r.varint()?;
    let assist_page = match r.u8()? {
        0 => None,
        1 => Some(r.u64_le()?),
        b => return Err(format!("invalid option byte {b:#04x} for assist_page")),
    };
    Ok(SandboxLayout { base, data_pages, assist_page, line_offset: r.varint()? })
}

/// Encode a test case: sandbox, origin, then each block's varint-packed
/// instruction stream.
pub fn enc_test_case(out: &mut Vec<u8>, tc: &TestCase) {
    enc_sandbox(out, &tc.sandbox());
    put_str(out, tc.origin());
    put_varint(out, tc.blocks().len() as u64);
    for b in tc.blocks() {
        put_varint(out, b.id.0 as u64);
        match &b.label {
            None => out.push(0),
            Some(label) => {
                out.push(1);
                put_str(out, label);
            }
        }
        put_varint(out, b.instrs.len() as u64);
        for i in &b.instrs {
            enc_instr(out, i);
        }
        enc_terminator(out, &b.terminator);
    }
}

/// Decode a test case written by [`enc_test_case`].
pub fn dec_test_case(r: &mut Reader) -> Result<TestCase, DecodeError> {
    let sandbox = dec_sandbox(r)?;
    let origin = r.str_()?;
    let nblocks = r.count()?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let id = BlockId(r.int()?);
        let label = match r.u8()? {
            0 => None,
            1 => Some(r.str_()?),
            b => return Err(format!("invalid option byte {b:#04x} for block label")),
        };
        let ninstrs = r.count()?;
        let mut instrs = Vec::with_capacity(ninstrs);
        for _ in 0..ninstrs {
            instrs.push(dec_instr(r)?);
        }
        blocks.push(BasicBlock { id, label, instrs, terminator: dec_terminator(r)? });
    }
    Ok(TestCase::new(blocks, sandbox).with_origin(origin))
}

fn enc_input(out: &mut Vec<u8>, input: &Input) {
    for reg in &input.regs {
        put_u64_le(out, *reg);
    }
    out.push(input.flags.bits());
    put_bytes(out, &input.mem);
    put_u64_le(out, input.seed_id);
}

fn dec_input(r: &mut Reader) -> Result<Input, DecodeError> {
    let mut regs = [0u64; 16];
    for reg in &mut regs {
        *reg = r.u64_le()?;
    }
    let flags = FlagSet::from_bits(r.u8()?);
    Ok(Input { regs, flags, mem: r.bytes()?, seed_id: r.u64_le()? })
}

fn enc_htrace(out: &mut Vec<u8>, t: &HTrace) {
    put_u64_le(out, t.sets().bits());
    out.extend_from_slice(&t.samples().to_le_bytes());
}

fn dec_htrace(r: &mut Reader) -> Result<HTrace, DecodeError> {
    let sets = SetVector::from_bits(r.u64_le()?);
    Ok(HTrace::from_parts(sets, r.u32_le()?))
}

fn enc_violation(out: &mut Vec<u8>, v: &Violation) {
    put_varint(out, v.input_a as u64);
    put_varint(out, v.input_b as u64);
    enc_htrace(out, &v.htrace_a);
    enc_htrace(out, &v.htrace_b);
    put_u64_le(out, v.ctrace_digest);
}

fn dec_violation(r: &mut Reader) -> Result<Violation, DecodeError> {
    Ok(Violation {
        input_a: r.int()?,
        input_b: r.int()?,
        htrace_a: dec_htrace(r)?,
        htrace_b: dec_htrace(r)?,
        ctrace_digest: r.u64_le()?,
    })
}

// ---------------------------------------------------------------------------
// Contract / report payload codecs.

const OBSERVATIONS: [ObservationClause; 3] =
    [ObservationClause::Mem, ObservationClause::Ct, ObservationClause::Arch];
const EXECUTIONS: [ExecutionClause; 4] = [
    ExecutionClause::Seq,
    ExecutionClause::Cond,
    ExecutionClause::Bpas,
    ExecutionClause::CondBpas,
];
// The array index is the wire tag: new classes must be appended at the end
// so frames written by older builds keep decoding to the same class.
const VULN_CLASSES: [VulnClass; 10] = [
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
];
const SOURCE_KINDS: [SourceKind; 6] = [
    SourceKind::CondBranch,
    SourceKind::IndirectBranch,
    SourceKind::Return,
    SourceKind::StoreBypass,
    SourceKind::AssistLoad,
    SourceKind::VarLatency,
];
const TRANSMITTER_KINDS: [TransmitterKind; 2] = [TransmitterKind::Load, TransmitterKind::Store];

fn enc_contract(out: &mut Vec<u8>, c: &Contract) {
    out.push(enum_idx(&OBSERVATIONS, c.observation));
    out.push(enum_idx(&EXECUTIONS, c.execution));
    put_varint(out, c.speculation_window as u64);
    put_bool(out, c.nested_speculation);
    put_bool(out, c.expose_speculative_stores);
}

fn dec_contract(r: &mut Reader) -> Result<Contract, DecodeError> {
    let observation = {
        let idx = r.u8()?;
        enum_at(&OBSERVATIONS, idx, "observation clause")?
    };
    let execution = {
        let idx = r.u8()?;
        enum_at(&EXECUTIONS, idx, "execution clause")?
    };
    Ok(Contract {
        observation,
        execution,
        speculation_window: r.int()?,
        nested_speculation: r.bool()?,
        expose_speculative_stores: r.bool()?,
    })
}

fn enc_gadget_signature(out: &mut Vec<u8>, g: &GadgetSignature) {
    out.push(enum_idx(&SOURCE_KINDS, g.source));
    out.push(enum_idx(&TRANSMITTER_KINDS, g.transmitter));
    put_bool(out, g.through_load);
    put_bool(out, g.var_latency);
}

fn dec_gadget_signature(r: &mut Reader) -> Result<GadgetSignature, DecodeError> {
    let source = {
        let idx = r.u8()?;
        enum_at(&SOURCE_KINDS, idx, "source kind")?
    };
    let transmitter = {
        let idx = r.u8()?;
        enum_at(&TRANSMITTER_KINDS, idx, "transmitter kind")?
    };
    Ok(GadgetSignature {
        source,
        transmitter,
        through_load: r.bool()?,
        var_latency: r.bool()?,
    })
}

fn enc_effectiveness(out: &mut Vec<u8>, e: &EffectivenessStats) {
    put_varint(out, e.total_inputs as u64);
    put_varint(out, e.effective_inputs as u64);
    put_varint(out, e.classes as u64);
    put_varint(out, e.singleton_classes as u64);
}

fn dec_effectiveness(r: &mut Reader) -> Result<EffectivenessStats, DecodeError> {
    Ok(EffectivenessStats {
        total_inputs: r.int()?,
        effective_inputs: r.int()?,
        classes: r.int()?,
        singleton_classes: r.int()?,
    })
}

fn enc_duration(out: &mut Vec<u8>, d: Duration) {
    put_varint(out, d.as_nanos().min(u128::from(u64::MAX)) as u64);
}

fn dec_duration(r: &mut Reader) -> Result<Duration, DecodeError> {
    Ok(Duration::from_nanos(r.varint()?))
}

/// Encode a [`ViolationReport`] payload.
pub fn enc_violation_report(out: &mut Vec<u8>, report: &ViolationReport) {
    enc_test_case(out, &report.test_case);
    put_varint(out, report.inputs.len() as u64);
    for input in &report.inputs {
        enc_input(out, input);
    }
    enc_violation(out, &report.violation);
    enc_contract(out, &report.contract);
    put_u64_le(out, report.test_case_seed);
    out.push(enum_idx(&VULN_CLASSES, report.vulnerability));
    match &report.gadget {
        None => out.push(0),
        Some(g) => {
            out.push(1);
            enc_gadget_signature(out, g);
        }
    }
    put_varint(out, report.test_cases_until_detection as u64);
    put_varint(out, report.inputs_until_detection as u64);
}

/// Decode a report written by [`enc_violation_report`].
pub fn dec_violation_report(r: &mut Reader) -> Result<ViolationReport, DecodeError> {
    let test_case = dec_test_case(r)?;
    let n = r.count()?;
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        inputs.push(dec_input(r)?);
    }
    let violation = dec_violation(r)?;
    let contract = dec_contract(r)?;
    let test_case_seed = r.u64_le()?;
    let vulnerability = {
        let idx = r.u8()?;
        enum_at(&VULN_CLASSES, idx, "vulnerability class")?
    };
    let gadget = match r.u8()? {
        0 => None,
        1 => Some(dec_gadget_signature(r)?),
        b => return Err(format!("invalid option byte {b:#04x} for gadget")),
    };
    Ok(ViolationReport {
        test_case,
        inputs,
        violation,
        contract,
        test_case_seed,
        vulnerability,
        gadget,
        test_cases_until_detection: r.int()?,
        inputs_until_detection: r.int()?,
    })
}

fn enc_coverage(out: &mut Vec<u8>, c: &PatternCoverage) {
    // The 8 patterns pack into one bitmask byte; pairs are index pairs.
    let mut mask = 0u8;
    for p in c.covered() {
        mask |= 1 << enum_idx(&Pattern::ALL, *p);
    }
    out.push(mask);
    let pairs = c.covered_pairs();
    put_varint(out, pairs.len() as u64);
    for (a, b) in pairs {
        out.push(enum_idx(&Pattern::ALL, *a));
        out.push(enum_idx(&Pattern::ALL, *b));
    }
}

fn dec_coverage(r: &mut Reader) -> Result<PatternCoverage, DecodeError> {
    let mask = r.u8()?;
    let mut covered = BTreeSet::new();
    for (i, p) in Pattern::ALL.into_iter().enumerate() {
        if mask & (1 << i) != 0 {
            covered.insert(p);
        }
    }
    let n = r.count()?;
    let mut pairs = BTreeSet::new();
    for _ in 0..n {
        let a = {
            let idx = r.u8()?;
            enum_at(&Pattern::ALL, idx, "pattern")?
        };
        let b = {
            let idx = r.u8()?;
            enum_at(&Pattern::ALL, idx, "pattern")?
        };
        pairs.insert((a, b));
    }
    Ok(PatternCoverage::from_parts(covered, pairs))
}

fn enc_cell_progress(out: &mut Vec<u8>, c: &CellProgress) {
    match &c.violation {
        None => out.push(0),
        Some(report) => {
            out.push(1);
            enc_violation_report(out, report);
        }
    }
    put_varint(out, c.test_cases as u64);
    put_varint(out, c.filtered as u64);
    put_varint(out, c.total_inputs as u64);
    enc_effectiveness(out, &c.effectiveness);
    enc_duration(out, c.detection_time);
}

fn dec_cell_progress(r: &mut Reader) -> Result<CellProgress, DecodeError> {
    let violation = match r.u8()? {
        0 => None,
        1 => Some(dec_violation_report(r)?),
        b => return Err(format!("invalid option byte {b:#04x} for cell violation")),
    };
    Ok(CellProgress {
        violation,
        test_cases: r.int()?,
        filtered: r.int()?,
        total_inputs: r.int()?,
        effectiveness: dec_effectiveness(r)?,
        detection_time: dec_duration(r)?,
    })
}

fn enc_group_progress(out: &mut Vec<u8>, g: &GroupProgress) {
    out.push(g.target_id);
    put_varint(out, g.next_index as u64);
    put_varint(out, g.test_cases as u64);
    put_varint(out, g.filtered as u64);
    put_varint(out, g.total_inputs as u64);
    put_varint(out, g.effectiveness.len() as u64);
    for e in &g.effectiveness {
        enc_effectiveness(out, e);
    }
    put_varint(out, g.round as u64);
    enc_duration(out, g.work);
    put_varint(out, g.escalations as u64);
    put_varint(out, g.coverage_level as u64);
    put_bool(out, g.round_improved);
    enc_coverage(out, &g.coverage);
}

fn dec_group_progress(r: &mut Reader) -> Result<GroupProgress, DecodeError> {
    let target_id = r.u8()?;
    let next_index = r.int()?;
    let test_cases = r.int()?;
    let filtered = r.int()?;
    let total_inputs = r.int()?;
    let n = r.count()?;
    let mut effectiveness = Vec::with_capacity(n);
    for _ in 0..n {
        effectiveness.push(dec_effectiveness(r)?);
    }
    Ok(GroupProgress {
        target_id,
        next_index,
        test_cases,
        filtered,
        total_inputs,
        effectiveness,
        round: r.int()?,
        work: dec_duration(r)?,
        escalations: r.int()?,
        coverage_level: r.int()?,
        round_improved: r.bool()?,
        coverage: dec_coverage(r)?,
    })
}

/// Encode a [`MatrixCheckpoint`] payload (no frame header — see
/// [`matrix_checkpoint_to_binary`] for the framed form).
pub fn enc_checkpoint(out: &mut Vec<u8>, cp: &MatrixCheckpoint) {
    put_varint(out, cp.wave as u64);
    put_u64_le(out, cp.seed);
    put_varint(out, cp.budget as u64);
    put_varint(out, cp.round_size as u64);
    put_bool(out, cp.escalation);
    put_u64_le(out, cp.config_digest);
    put_varint(out, cp.cells.len() as u64);
    for cell in &cp.cells {
        match cell {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                enc_cell_progress(out, c);
            }
        }
    }
    put_varint(out, cp.groups.len() as u64);
    for g in &cp.groups {
        enc_group_progress(out, g);
    }
}

/// Decode a checkpoint written by [`enc_checkpoint`].
pub fn dec_checkpoint(r: &mut Reader) -> Result<MatrixCheckpoint, DecodeError> {
    let wave = r.int()?;
    let seed = r.u64_le()?;
    let budget = r.int()?;
    let round_size = r.int()?;
    let escalation = r.bool()?;
    let config_digest = r.u64_le()?;
    let ncells = r.count()?;
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        cells.push(match r.u8()? {
            0 => None,
            1 => Some(dec_cell_progress(r)?),
            b => return Err(format!("invalid option byte {b:#04x} for cell")),
        });
    }
    let ngroups = r.count()?;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        groups.push(dec_group_progress(r)?);
    }
    Ok(MatrixCheckpoint {
        wave,
        seed,
        budget,
        round_size,
        escalation,
        config_digest,
        cells,
        groups,
    })
}

// ---------------------------------------------------------------------------
// Framed top-level codecs (what the service and spool actually move).

/// Serialize a checkpoint as one self-describing frame.
pub fn matrix_checkpoint_to_binary(cp: &MatrixCheckpoint) -> Vec<u8> {
    FrameBuilder::new(KIND_CHECKPOINT).checkpoint_section(TAG_CHECKPOINT, cp).build()
}

/// Decode a frame written by [`matrix_checkpoint_to_binary`].
pub fn matrix_checkpoint_from_binary(buf: &[u8]) -> Result<MatrixCheckpoint, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_CHECKPOINT {
        return Err(format!("expected a checkpoint frame, found kind {}", frame.kind));
    }
    frame.checkpoint_section(TAG_CHECKPOINT, "checkpoint")
}

/// Serialize a violation report as one self-describing frame.
pub fn violation_report_to_binary(report: &ViolationReport) -> Vec<u8> {
    let mut payload = Vec::new();
    enc_violation_report(&mut payload, report);
    FrameBuilder::new(KIND_REPORT).section(TAG_REPORT, payload).build()
}

/// Decode a frame written by [`violation_report_to_binary`].
pub fn violation_report_from_binary(buf: &[u8]) -> Result<ViolationReport, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_REPORT {
        return Err(format!("expected a report frame, found kind {}", frame.kind));
    }
    let mut r = Reader::new(frame.section(TAG_REPORT).ok_or("frame is missing its report section")?);
    dec_violation_report(&mut r)
}

/// Serialize one checkpoint transfer as a binary frame: the digest is
/// computed **before** encoding, `meta` carries the service's routing fields (op, target, lease, events).
pub fn checkpoint_transfer_to_binary(job: &str, cp: &MatrixCheckpoint, meta: &Json) -> Vec<u8> {
    FrameBuilder::new(KIND_TRANSFER)
        .str_section(TAG_JOB, job)
        .varint_section(TAG_WAVE, cp.wave as u64)
        .u64_section(TAG_DIGEST, cp.digest())
        .json_section(TAG_META, meta)
        .checkpoint_section(TAG_CHECKPOINT, cp)
        .build()
}

/// A decoded binary transfer frame: the digest-validating transfer plus
/// the service's routing meta document.
pub struct BinaryTransfer {
    /// The transfer (validate with [`CheckpointTransfer::validates`]).
    pub transfer: CheckpointTransfer,
    /// Routing fields (op, target, lease, events) as a JSON document.
    pub meta: Json,
}

/// Decode a frame written by [`checkpoint_transfer_to_binary`].  This
/// rejects a wave header that disagrees with the payload, and does **not**
/// verify the digest — callers decide.
pub fn checkpoint_transfer_from_binary(buf: &[u8]) -> Result<BinaryTransfer, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_TRANSFER {
        return Err(format!("expected a transfer frame, found kind {}", frame.kind));
    }
    let job = frame.str_section(TAG_JOB, "job")?;
    let wave = frame.varint_section(TAG_WAVE, "wave")? as usize;
    let digest = frame.u64_section(TAG_DIGEST, "digest")?;
    let meta = frame.json_section(TAG_META, "meta")?;
    let checkpoint = frame.checkpoint_section(TAG_CHECKPOINT, "checkpoint")?;
    if wave != checkpoint.wave {
        return Err(format!(
            "transfer wave {wave} disagrees with the checkpoint's wave {}",
            checkpoint.wave
        ));
    }
    Ok(BinaryTransfer { transfer: CheckpointTransfer { job, digest, checkpoint }, meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::violation_report_to_json;
    use revizor::campaign::NoopObserver;
    use revizor::orchestrator::CampaignMatrix;
    use revizor::targets::Target;

    fn mid_run_checkpoint() -> MatrixCheckpoint {
        let matrix = CampaignMatrix::new(7)
            .with_budget(40)
            .add_cells(Target::target5(), Contract::table3_contracts());
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        run.checkpoint()
    }

    fn v1_report() -> ViolationReport {
        let report = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        report.cells[0].violation.clone().expect("V1 found within 60 test cases")
    }

    #[test]
    fn checkpoint_frame_round_trips_and_preserves_the_digest() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        let decoded = matrix_checkpoint_from_binary(&frame).unwrap();
        assert_eq!(decoded, cp);
        assert_eq!(decoded.digest(), cp.digest());
        // Deterministic encoding: same checkpoint, same bytes.
        assert_eq!(matrix_checkpoint_to_binary(&decoded), frame);
    }

    #[test]
    fn violation_report_frame_round_trips_on_a_real_v1() {
        let report = v1_report();
        let frame = violation_report_to_binary(&report);
        let decoded = violation_report_from_binary(&frame).unwrap();
        assert_eq!(decoded, report);
        // Binary ↔ JSON is lossless: both forms decode to the same value,
        // so their JSON renderings agree byte for byte.
        assert_eq!(
            violation_report_to_json(&decoded).render(),
            violation_report_to_json(&report).render()
        );
    }

    #[test]
    fn transfer_frame_round_trips_validates_and_rejects_wave_mismatch() {
        let cp = mid_run_checkpoint();
        let meta = Json::obj().field("op", "wave").field("target", 5u64).field("lease", 77u64);
        let frame = checkpoint_transfer_to_binary("j-bin-1", &cp, &meta);
        let decoded = checkpoint_transfer_from_binary(&frame).unwrap();
        assert_eq!(decoded.transfer.job, "j-bin-1");
        assert_eq!(decoded.transfer.checkpoint, cp);
        assert!(decoded.transfer.validates());
        assert_eq!(decoded.meta.get("lease").and_then(Json::as_u64), Some(77));
        assert_eq!(decoded.transfer.digest, cp.digest());
        // A frame whose wave header disagrees with its payload is rejected.
        let bad = FrameBuilder::new(KIND_TRANSFER)
            .str_section(TAG_JOB, "j")
            .varint_section(TAG_WAVE, cp.wave as u64 + 7)
            .u64_section(TAG_DIGEST, cp.digest())
            .json_section(TAG_META, &meta)
            .checkpoint_section(TAG_CHECKPOINT, &cp)
            .build();
        assert!(checkpoint_transfer_from_binary(&bad).is_err());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let report = v1_report();
        let bin = violation_report_to_binary(&report).len();
        let json = violation_report_to_json(&report).render().len();
        assert!(
            bin * 3 <= json,
            "binary violation report ({bin} B) must be at least 3x smaller than JSON ({json} B)"
        );
    }

    #[test]
    fn truncation_at_every_boundary_errors_cleanly() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        // Every strict prefix must error, never panic.  Sampling all
        // lengths is cheap enough at this frame size.
        for len in 0..frame.len() {
            assert!(matrix_checkpoint_from_binary(&frame[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let cp = mid_run_checkpoint();
        let frame = FrameBuilder::new(KIND_CHECKPOINT)
            .section(200, vec![1, 2, 3])
            .checkpoint_section(TAG_CHECKPOINT, &cp)
            .section(201, Vec::new())
            .build();
        assert_eq!(matrix_checkpoint_from_binary(&frame).unwrap(), cp);
    }

    #[test]
    fn wrong_magic_version_and_kind_are_rejected() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matrix_checkpoint_from_binary(&bad_magic).is_err());
        let mut bad_version = frame.clone();
        bad_version[4] = FORMAT_VERSION + 1;
        assert!(matrix_checkpoint_from_binary(&bad_version).is_err());
        let mut bad_kind = frame;
        bad_kind[5] = KIND_TRANSFER;
        assert!(matrix_checkpoint_from_binary(&bad_kind).is_err());
        // frame_len mirrors the header checks for the framing layer.
        assert!(frame_len(b"JUNKJUNKJUNK").is_err());
        assert_eq!(frame_len(b"RVZ").unwrap(), None);
    }

    #[test]
    fn binary_json_round_trips() {
        let doc = Json::obj()
            .field("op", "grant")
            .field("lease", u64::MAX)
            .field("pi", 3.25)
            .field("neg", Json::Num(-17.0))
            .field("none", Json::Null)
            .field("flag", true)
            .field("items", Json::Arr(vec![Json::UInt(1), Json::Str("two".into())]));
        let mut out = Vec::new();
        enc_json(&mut out, &doc);
        let decoded = dec_json(&mut Reader::new(&out)).unwrap();
        assert_eq!(decoded, doc);
        for len in 0..out.len() {
            assert!(dec_json(&mut Reader::new(&out[..len])).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn zero_run_packing_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 1000],
            vec![1, 2, 3],
            vec![0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 2, 0],
            (0..=255u8).collect(),
            (0..4096).map(|i| if i % 8 == 0 { (i / 8) as u8 } else { 0 }).collect(),
        ];
        for src in cases {
            let packed = encode_rle(&src);
            assert_eq!(decode_rle(&packed, MAX_FRAME).unwrap(), src);
        }
        // A low-entropy sandbox-style payload (one value byte per u64
        // word) packs to ~3 bytes per 8: lit-length, literal, run-length.
        let sparse: Vec<u8> = (0..4096).map(|i| if i % 8 == 0 { 0x40 } else { 0 }).collect();
        assert!(encode_rle(&sparse).len() * 2 < sparse.len());
        // A hostile run length is bounded, not allocated.
        let mut hostile = Vec::new();
        put_varint(&mut hostile, 0);
        put_varint(&mut hostile, u64::MAX);
        assert!(decode_rle(&hostile, MAX_FRAME).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            assert_eq!(Reader::new(&out).zigzag().unwrap(), v, "{v}");
        }
    }
}
