//! Contract traces.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// One contract-prescribed observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Observation {
    /// Address of a data load or store (`MEM`, `CT`, `ARCH`).
    MemAddr(u64),
    /// Program counter of an executed instruction (`CT`, `ARCH`).
    Pc(u64),
    /// Value returned by a load (`ARCH` only).
    LoadValue(u64),
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::MemAddr(a) => write!(f, "mem:{a:#x}"),
            Observation::Pc(a) => write!(f, "pc:{a:#x}"),
            Observation::LoadValue(v) => write!(f, "val:{v:#x}"),
        }
    }
}

/// A contract trace: the ordered sequence of observations the contract
/// permits an attacker to make during one execution (`CTrace` in §2.2).
///
/// Equality of contract traces defines the *input classes* of the relational
/// analysis, so `CTrace` implements `Eq`/`Hash`.  Both use a class key
/// computed once at construction: one multiply per observation, cheap
/// enough for the large input sets of fuzzing.  The key is private and
/// unstable; the stable value that violation reports carry is
/// [`CTrace::digest`], computed on demand.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CTrace {
    observations: Vec<Observation>,
    key: u64,
}

/// Multiplier of the class-key mix (odd, so each step is invertible).
const KEY_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Per-kind salts, so equal values of different observation kinds mix as
/// different words.
const KEY_SALT: [u64; 3] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0];

impl Observation {
    /// The kind tag and value of the observation (the digest's encoding).
    fn tag_value(self) -> (u8, u64) {
        match self {
            Observation::MemAddr(a) => (1, a),
            Observation::Pc(a) => (2, a),
            Observation::LoadValue(a) => (3, a),
        }
    }

    /// The observation's word in the piece hash: its salted value, mixed
    /// so that every bit of it reaches the high bits.
    pub(crate) fn piece_word(self) -> u64 {
        let (tag, v) = self.tag_value();
        let z = (v ^ KEY_SALT[usize::from(tag - 1)]).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }
}

/// Base of the piece hash, a polynomial in wrapping `u64` arithmetic:
/// `H([]) = 0` and `H(s ++ [o]) = H(s) * PIECE_BASE + o.piece_word()`.  It
/// composes, `H(a ++ b) = H(a) * PIECE_BASE^|b| + H(b)`, so the hash of a
/// trace follows from the hashes and lengths of the pieces it is cut into,
/// wherever the cuts fall.
pub(crate) const PIECE_BASE: u64 = 0x2545_f491_4f6c_dd1d;

/// One step of the piece hash: `H(s ++ [o])` from `h = H(s)`.
pub(crate) fn piece_step(h: u64, o: Observation) -> u64 {
    h.wrapping_mul(PIECE_BASE).wrapping_add(o.piece_word())
}

/// The digest of the empty trace; see [`CTrace::digest`].
pub(crate) const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The digest of a trace that continues, after a prefix whose digest is
/// `digest`, with `observations`.
pub(crate) fn digest_extend(digest: u64, observations: &[Observation]) -> u64 {
    let mut h = digest;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for &o in observations {
        let (tag, v) = o.tag_value();
        mix(tag);
        for b in v.to_le_bytes() {
            mix(b);
        }
    }
    h
}

/// One step of the class-key mix: fold in one salted observation word.
fn key_step(h: u64, o: Observation) -> u64 {
    let (tag, v) = o.tag_value();
    (h.rotate_left(23) ^ v ^ KEY_SALT[usize::from(tag - 1)]).wrapping_mul(KEY_MUL)
}

/// The class key: seeded with the length, one [`key_step`] per observation,
/// and a final fold that brings the multiply's well-mixed high bits down to
/// the low bits a hash table indexes by.
fn class_key(observations: &[Observation]) -> u64 {
    let h = observations.iter().fold(observations.len() as u64, |h, &o| key_step(h, o));
    h ^ (h >> 32)
}

impl CTrace {
    /// Build a trace from observations.
    pub fn new(observations: Vec<Observation>) -> CTrace {
        let key = class_key(&observations);
        CTrace { observations, key }
    }

    /// The empty trace.
    pub fn empty() -> CTrace {
        CTrace::new(Vec::new())
    }

    /// The observations in order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The stable digest of the trace, as recorded in violation reports
    /// (`ctrace_digest`).  Computed on demand, byte by byte, so call it for
    /// reported traces only.
    ///
    /// The algorithm is FNV-1a-shaped (offset basis `0xcbf29ce484222325`,
    /// xor-then-multiply per byte of a tag byte plus the little-endian
    /// value of each observation), but its multiplier is
    /// `0x1000_0000_01b3` (2^44 + 0x1b3), not the FNV prime
    /// `0x100_0000_01b3` (2^40 + 0x1b3).  It is kept as is because the
    /// `ctrace_digest` of stored and reported violations depends on it.
    pub fn digest(&self) -> u64 {
        digest_extend(DIGEST_BASIS, &self.observations)
    }

    /// Memory-address observations only.
    pub fn mem_addrs(&self) -> Vec<u64> {
        self.observations
            .iter()
            .filter_map(|o| match o {
                Observation::MemAddr(a) => Some(*a),
                _ => None,
            })
            .collect()
    }
}

/// A group of inputs that share the same contract trace (an equivalence
/// class of contract-trace equality, §4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputClass {
    /// Indices (into the input vector) of the members, in priming order.
    pub members: Vec<usize>,
}

impl InputClass {
    /// A class is *effective* if it has at least two members; singleton
    /// classes cannot witness a violation and are discarded (CH2).
    pub fn is_effective(&self) -> bool {
        self.members.len() >= 2
    }
}

impl PartialEq for CTrace {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.observations == other.observations
    }
}

impl Eq for CTrace {}

impl Hash for CTrace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key);
    }
}

impl fmt::Display for CTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, o) in self.observations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Observation> for CTrace {
    fn from_iter<T: IntoIterator<Item = Observation>>(iter: T) -> CTrace {
        CTrace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hash_by_content() {
        let a = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x220)]);
        let b = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x220)]);
        let c = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x230)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn order_matters() {
        let a = CTrace::new(vec![Observation::MemAddr(1), Observation::MemAddr(2)]);
        let b = CTrace::new(vec![Observation::MemAddr(2), Observation::MemAddr(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn observation_kind_matters() {
        let a = CTrace::new(vec![Observation::MemAddr(5)]);
        let b = CTrace::new(vec![Observation::Pc(5)]);
        let c = CTrace::new(vec![Observation::LoadValue(5)]);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn display_format() {
        let t = CTrace::new(vec![Observation::MemAddr(0x110), Observation::Pc(0x4000)]);
        assert_eq!(format!("{t}"), "[mem:0x110, pc:0x4000]");
        assert_eq!(format!("{}", CTrace::empty()), "[]");
    }

    #[test]
    fn mem_addrs_filter() {
        let t = CTrace::new(vec![
            Observation::Pc(1),
            Observation::MemAddr(0x100),
            Observation::LoadValue(7),
            Observation::MemAddr(0x200),
        ]);
        assert_eq!(t.mem_addrs(), vec![0x100, 0x200]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let t: CTrace = vec![Observation::Pc(3)].into_iter().collect();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn digest_is_stable() {
        let a = CTrace::new(vec![Observation::MemAddr(42)]);
        let b = CTrace::new(vec![Observation::MemAddr(42)]);
        assert_eq!(a.digest(), b.digest());
        // Violation reports carry the digest: pin its values.
        let t = CTrace::new(vec![Observation::MemAddr(0x110), Observation::Pc(0x4000)]);
        assert_eq!(t.digest(), 0xd4e0_e590_16bf_fa4f);
        assert_eq!(CTrace::empty().digest(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn equal_class_keys_do_not_make_traces_equal() {
        // Pick the second step's value of `y` so that it cancels the
        // difference the first step left in the mix state: both traces
        // then reach the same state, so the same key.
        let (a0, b0) = (Observation::MemAddr(0x110), Observation::MemAddr(0x220));
        let a1 = Observation::MemAddr(0x340);
        let (ha, hb) = (key_step(2, a0), key_step(2, b0));
        let b1 = Observation::MemAddr(0x340 ^ ha.rotate_left(23) ^ hb.rotate_left(23));
        let x = CTrace::new(vec![a0, a1]);
        let y = CTrace::new(vec![b0, b1]);
        assert_eq!(x.key, y.key, "constructed collision");
        assert_ne!(x, y);
        assert_ne!(x.digest(), y.digest());
        let set: HashSet<CTrace> = [x, y].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
