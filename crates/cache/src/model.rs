//! LRU set-associative cache model.

use crate::set_vector::SetVector;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Cache::take_touched_sets`] tokens, unique process-wide so a
/// token never matches a different cache's record.  Only uniqueness
/// matters, so `Relaxed` suffices.
static NEXT_LOOK: AtomicU64 = AtomicU64::new(1);

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: u64,
}

impl CacheConfig {
    /// The 32 KiB, 8-way L1D of the Skylake / Coffee Lake parts tested in
    /// the paper: 64 sets × 8 ways × 64 B.
    pub fn l1d() -> CacheConfig {
        CacheConfig { sets: 64, ways: 8, line_size: 64 }
    }

    /// A tiny cache useful for eviction-heavy unit tests.
    pub fn tiny(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig { sets, ways, line_size: 64 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.line_size
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::l1d()
    }
}

/// One cache line: tag plus LRU age (smaller = more recently used).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Line {
    tag: u64,
    age: u32,
}

/// An LRU set-associative cache.
///
/// Addresses are mapped to sets by `(addr / line_size) % sets`; the tag is
/// the full line address, so distinct addresses never alias incorrectly.
///
/// The cache's state is its lines, as
/// [`functional_state`](Cache::functional_state) writes them.  Besides them
/// the cache records which sets the generic paths
/// ([`access`](Cache::access), [`probe_access`](Cache::probe_access),
/// [`flush`](Cache::flush), [`flush_all`](Cache::flush_all)) touched since a
/// side channel last looked ([`take_touched_sets`](Cache::take_touched_sets)).
/// That record is bookkeeping, not cache state: a new, cloned or
/// deserialized cache counts every set as touched.
///
/// The bulk paths ([`prime_resident`](Cache::prime_resident),
/// [`probe_resident`](Cache::probe_resident)) write no line: they mark the
/// set's ages as pending a rewrite the set's line order alone determines,
/// and every path that reads or changes a set's ages or lines settles the
/// set first.  The functional state, cloning and `Debug` see the settled
/// ages.
#[derive(Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    /// Bit `s` set: set `s` is due the as-walked ages of a prime
    /// (`len - 1` down to 0 in line order).  Sets past the 64th never pend.
    pending_walked: u64,
    /// Bit `s` set: set `s` is due the all-zero ages of a probe.
    pending_zero: u64,
    /// Bit `s` set: set `s` was not touched since the last
    /// [`take_touched_sets`](Cache::take_touched_sets).  Zero — every set
    /// touched — is the safe default.
    #[serde(skip)]
    untouched: u64,
    /// Token of the last [`take_touched_sets`](Cache::take_touched_sets);
    /// 0 before the first.
    #[serde(skip)]
    look: u64,
    /// [`prime_set`](Cache::prime_set)'s replay list, kept to reuse its
    /// allocation.
    #[serde(skip)]
    scratch: Vec<(u64, u32, Option<u32>)>,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            config: self.config,
            sets: self.sets.clone(),
            pending_walked: self.pending_walked,
            pending_zero: self.pending_zero,
            untouched: 0,
            look: 0,
            scratch: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sets: Vec<Vec<Line>> =
            (0..self.sets.len()).map(|s| self.settled(s).collect()).collect();
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("sets", &sets)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Create an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        Cache {
            config,
            sets: vec![Vec::new(); config.sets],
            pending_walked: 0,
            pending_zero: 0,
            untouched: 0,
            look: 0,
            scratch: Vec::new(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Line-granular tag of an address.
    #[inline]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr / self.config.line_size
    }

    /// Set index of an address.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        (self.tag_of(addr) as usize) % self.config.sets
    }

    /// The bit of `set` in the pending-age masks; 0 past the 64th set.
    #[inline]
    fn pending_bit(set: usize) -> u64 {
        1u64.checked_shl(set as u32).unwrap_or(0)
    }

    /// Apply `set`'s pending bulk age rewrite, if any.  Every path that
    /// reads or changes a set's ages or line list calls this first; the
    /// rewrite depends on line order, so it must land before a line moves.
    #[inline]
    fn settle(&mut self, set: usize) {
        let bit = Self::pending_bit(set);
        if (self.pending_walked | self.pending_zero) & bit == 0 {
            return;
        }
        let walked = self.pending_walked & bit != 0;
        self.pending_walked &= !bit;
        self.pending_zero &= !bit;
        let lines = &mut self.sets[set];
        if walked {
            Self::age_as_walked(lines);
        } else {
            lines.iter_mut().for_each(|l| l.age = 0);
        }
    }

    /// The lines of `set` as [`settle`](Cache::settle) would leave them.
    fn settled(&self, set: usize) -> impl Iterator<Item = Line> + '_ {
        let bit = Self::pending_bit(set);
        let (walked, zero) = (self.pending_walked & bit != 0, self.pending_zero & bit != 0);
        let lines = &self.sets[set];
        lines.iter().enumerate().map(move |(i, l)| Line {
            tag: l.tag,
            age: if walked {
                Self::walked_age(lines.len(), i)
            } else if zero {
                0
            } else {
                l.age
            },
        })
    }

    /// Record a generic-path touch of `set`.  Geometries with more than 64
    /// sets always report every set as touched, so the aliased bit is moot.
    #[inline]
    fn touch(&mut self, set: usize) {
        self.untouched &= !(1u64 << (set % SetVector::SETS));
    }

    /// The sets touched through the generic paths since the caller's
    /// previous look at this cache, and start a new record.
    ///
    /// `token` identifies that previous look: pass the value this call left
    /// in it last time (any value for a first look).  If another caller
    /// looked at this cache in between, or the token came from a different
    /// cache, every set counts as touched.  So does every set of a new,
    /// cloned or [`flush_all`](Cache::flush_all)ed cache, and of a geometry
    /// with more than [`SetVector::SETS`] sets.  The bulk side-channel paths
    /// ([`prime_set`](Cache::prime_set), [`probe_set`](Cache::probe_set) and
    /// their `*_resident` forms) do not count as touches: their caller knows
    /// what they left behind.
    pub fn take_touched_sets(&mut self, token: &mut u64) -> SetVector {
        let untouched = std::mem::replace(&mut self.untouched, u64::MAX);
        let same_reader = *token == self.look && self.look != 0;
        self.look = NEXT_LOOK.fetch_add(1, Ordering::Relaxed);
        *token = self.look;
        if same_reader && self.config.sets <= SetVector::SETS {
            SetVector::from_bits(!untouched)
        } else {
            SetVector::from_bits(u64::MAX)
        }
    }

    /// Access (load or store) the line containing `addr`, filling it on a
    /// miss and updating LRU state.  Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        let set_idx = self.set_of(addr);
        self.touch(set_idx);
        self.settle(set_idx);
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];
        // Age everything, then handle hit/miss.
        for line in set.iter_mut() {
            line.age = line.age.saturating_add(1);
        }
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.age = 0;
            return true;
        }
        if set.len() >= ways {
            // Evict the oldest line.
            let victim = set
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| l.age)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set.remove(victim);
        }
        set.push(Line { tag, age: 0 });
        false
    }

    /// Access without filling: returns whether the line is present and
    /// refreshes its LRU age if it is (models a probe load that hits).
    pub fn probe_access(&mut self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        let set_idx = self.set_of(addr);
        self.touch(set_idx);
        self.settle(set_idx);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
            line.age = 0;
            true
        } else {
            false
        }
    }

    /// Does `set` hold exactly the lines `tags`, in that order?
    fn holds_in_order(&self, set: usize, tags: &[u64]) -> bool {
        let lines = &self.sets[set];
        lines.len() == tags.len() && lines.iter().map(|l| l.tag).eq(tags.iter().copied())
    }

    /// Bulk-fill one set with the given lines, exactly as if the `tags`
    /// (distinct) had been [`access`](Cache::access)ed in order: hits
    /// refresh in place, misses evict the LRU victim and survivors age — the
    /// resulting set (line order included) is bit-identical to the
    /// sequential walk's.  Returns whether
    /// the set now holds exactly `tags`, in walk order — the layout
    /// [`prime_resident`](Cache::prime_resident) relies on.
    ///
    /// This is the executor's priming fast path: a Prime+Probe prepare
    /// walks `sets × ways` attacker lines, and replaying that walk through
    /// the generic access path costs `O(ways²)` aging *writes* per set;
    /// here the ages are reconstructed once at the end.
    pub fn prime_set(&mut self, set: usize, tags: &[u64]) -> bool {
        if tags.is_empty() {
            return self.sets[set].is_empty();
        }
        self.settle(set);
        // Steady-state fast path: the set already holds exactly the walk's
        // lines in walk order (true for every set the victim left alone
        // since the previous prime — misses append in walk order and hits
        // refresh in place, so a full prime from a cold set always leaves
        // this layout).  Every access hits; only the ages move.
        if self.holds_in_order(set, tags) {
            Self::age_as_walked(&mut self.sets[set]);
            return true;
        }
        let ways = self.config.ways;
        let lines = &mut self.sets[set];
        // Cold fast path (every set after a `flush_all`): the walk fills an
        // empty set in order, missing on every access and evicting nothing.
        if lines.is_empty() && tags.len() <= ways {
            let len = tags.len();
            let walked = tags.iter().enumerate();
            lines.extend(walked.map(|(i, &tag)| Line { tag, age: Self::walked_age(len, i) }));
            return true;
        }
        let walk_len = tags.len() as u32;

        // Replay the walk on a scratch list mirroring the real line order,
        // without the per-access aging writes.  `Some(i)` marks a line
        // (re-)accessed at walk index `i` — "fresh".  At any point a fresh
        // line is strictly younger than every stale occupant, so the LRU
        // victim of a miss is the stale line `access` would pick (greatest
        // age, last position on ties; stale lines age uniformly and never
        // reorder).  Only once no stale occupant is left (more tags than
        // ways) does the oldest fresh line — the smallest walk index — get
        // evicted.
        let scratch = &mut self.scratch;
        scratch.clear();
        scratch.extend(lines.iter().map(|l| (l.tag, l.age, None)));
        for (walk_idx, &tag) in tags.iter().enumerate() {
            if let Some(entry) = scratch.iter_mut().find(|e| e.0 == tag) {
                entry.2 = Some(walk_idx as u32);
                continue;
            }
            if scratch.len() >= ways {
                let victim = scratch
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.2.is_none())
                    .max_by_key(|&(i, &(_, age, _))| (age, i))
                    .map(|(i, _)| i)
                    .or_else(|| {
                        // No stale occupant left (more tags than ways):
                        // the oldest fresh line is the LRU victim.
                        scratch
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &(_, _, idx))| idx)
                            .map(|(i, _)| i)
                    });
                if let Some(v) = victim {
                    scratch.remove(v);
                }
            }
            scratch.push((tag, 0, Some(walk_idx as u32)));
        }

        lines.clear();
        lines.extend(scratch.iter().map(|&(tag, age, fresh)| match fresh {
            // Fresh lines: accessed at walk index `i`, then aged once per
            // later access.
            Some(i) => Line { tag, age: walk_len - 1 - i },
            // Stale survivors (partial fill): aged once per access.
            None => Line { tag, age: age.saturating_add(walk_len) },
        }));
        self.holds_in_order(set, tags)
    }

    /// Age of line `i` of `len` once all were just accessed in line order.
    #[inline]
    fn walked_age(len: usize, i: usize) -> u32 {
        (len - 1 - i) as u32
    }

    /// Ages of a set whose lines were all just accessed, in line order.
    fn age_as_walked(lines: &mut [Line]) {
        let len = lines.len();
        for (i, line) in lines.iter_mut().enumerate() {
            line.age = Self::walked_age(len, i);
        }
    }

    /// [`prime_set`](Cache::prime_set) on every set in `sets`, each of which
    /// the caller knows to hold exactly its walk's `ways` lines in walk
    /// order — a set `prime_set` last reported in that layout, with no touch
    /// since ([`take_touched_sets`](Cache::take_touched_sets)).  Every
    /// access hits, so only the ages move.  No line is read or written: the
    /// sets' as-walked ages pend until a path that looks at them settles
    /// the set.
    pub fn prime_resident(&mut self, sets: SetVector) {
        self.pending_walked |= sets.bits();
        self.pending_zero &= !sets.bits();
    }

    /// Probe one set for the given lines: returns how many of the `tags`
    /// (distinct) are resident, refreshing the LRU age of each hit exactly
    /// like [`probe_access`](Cache::probe_access) — but in a single pass
    /// over the set instead of one lookup per tag.
    pub fn probe_set(&mut self, set: usize, tags: &[u64]) -> usize {
        self.settle(set);
        // Steady-state fast path, as in `prime_set`: every line hits.
        if self.holds_in_order(set, tags) {
            for line in self.sets[set].iter_mut() {
                line.age = 0;
            }
            return tags.len();
        }
        let mut hits = 0;
        for line in self.sets[set].iter_mut() {
            if tags.contains(&line.tag) {
                line.age = 0;
                hits += 1;
            }
        }
        hits
    }

    /// [`probe_set`](Cache::probe_set) on every set in `sets`, each holding
    /// exactly its probe's lines (see [`prime_resident`](Cache::prime_resident)):
    /// every line hits, so every age drops to 0 — pending, like the ages
    /// of a bulk prime, which the zeros supersede.
    pub fn probe_resident(&mut self, sets: SetVector) {
        self.pending_zero |= sets.bits();
        self.pending_walked &= !sets.bits();
    }

    /// Is the line containing `addr` currently cached?
    pub fn is_cached(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_of(addr)].iter().any(|l| l.tag == tag)
    }

    /// Flush the line containing `addr` (CLFLUSH).
    pub fn flush(&mut self, addr: u64) {
        let tag = self.tag_of(addr);
        let set_idx = self.set_of(addr);
        self.touch(set_idx);
        // The as-walked ages follow line position, which removal shifts.
        self.settle(set_idx);
        self.sets[set_idx].retain(|l| l.tag != tag);
    }

    /// Flush the entire cache.
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.pending_walked = 0;
        self.pending_zero = 0;
        self.untouched = 0;
    }

    /// Number of valid lines in a set.
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.sets[set].len()
    }

    /// Tags currently resident in a set.
    pub fn set_tags(&self, set: usize) -> Vec<u64> {
        self.sets[set].iter().map(|l| l.tag).collect()
    }

    /// The settled lines of a set as `(tag, LRU age)` pairs, in line order.
    pub fn set_lines(&self, set: usize) -> Vec<(u64, u32)> {
        self.settled(set).map(|l| (l.tag, l.age)).collect()
    }

    /// Append the cache's functional state to `out` in canonical form.  Per
    /// set: a header word holding the line count and how the settled ages
    /// are encoded, then each line's tag in line order, then — only when
    /// the ages are neither the as-walked ages of a prime nor the all-zero
    /// ages of a probe — the ages in line order, two per word.  The header
    /// names the first of those patterns the ages match, so two caches
    /// append the same words exactly when their settled lines (tags, order
    /// and ages) are equal, and then they behave identically from here on.
    /// The touched-set record is left out.
    pub fn functional_state(&self, out: &mut Vec<u64>) {
        for set in 0..self.sets.len() {
            let lines = &self.sets[set];
            let ages = self.age_pattern(set);
            out.push(lines.len() as u64 | ages);
            out.extend(lines.iter().map(|l| l.tag));
            if ages == Self::AGES_LISTED {
                out.extend(
                    lines.chunks(2).map(|two| two.iter().fold(0, |w, l| w << 32 | u64::from(l.age))),
                );
            }
        }
    }

    /// State header flag: the set's settled ages are all zero, and it holds
    /// more than one line (otherwise they are as walked).
    const AGES_ZERO: u64 = 1 << 32;
    /// State header flag: the set's ages follow its tags.
    const AGES_LISTED: u64 = 2 << 32;

    /// How [`functional_state`](Cache::functional_state) encodes the
    /// settled ages of `set`: 0 when they are as walked, else
    /// [`AGES_ZERO`](Cache::AGES_ZERO) or [`AGES_LISTED`](Cache::AGES_LISTED).
    /// A pending rewrite names its pattern without a look at the lines.
    fn age_pattern(&self, set: usize) -> u64 {
        let bit = Self::pending_bit(set);
        let lines = &self.sets[set];
        let len = lines.len();
        let (pending_walked, pending_zero) =
            (self.pending_walked & bit != 0, self.pending_zero & bit != 0);
        let walked = pending_walked
            || if pending_zero {
                len <= 1
            } else {
                lines.iter().enumerate().all(|(i, l)| l.age == Self::walked_age(len, i))
            };
        if walked {
            0
        } else if pending_zero || lines.iter().all(|l| l.age == 0) {
            Self::AGES_ZERO
        } else {
            Self::AGES_LISTED
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(c: &Cache) -> Vec<u64> {
        let mut out = Vec::new();
        c.functional_state(&mut out);
        out
    }

    #[test]
    fn config_capacity() {
        assert_eq!(CacheConfig::l1d().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::tiny(2, 2).capacity(), 256);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f), "same line");
        assert!(!c.access(0x140), "next line misses");
    }

    #[test]
    fn set_mapping() {
        let c = Cache::new(CacheConfig::l1d());
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(64), 1);
        assert_eq!(c.set_of(64 * 64), 0);
        assert_eq!(c.set_of(63), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(CacheConfig::tiny(1, 2));
        c.access(0); // A
        c.access(64); // B  (set 0 again since only 1 set)
        c.access(0); // A refreshed
        c.access(128); // C evicts B (least recently used)
        assert!(c.is_cached(0));
        assert!(!c.is_cached(64));
        assert!(c.is_cached(128));
    }

    #[test]
    fn associativity_respected() {
        let cfg = CacheConfig::tiny(4, 2);
        let mut c = Cache::new(cfg);
        // Three lines mapping to set 0: strides of sets*line_size.
        let stride = cfg.sets as u64 * cfg.line_size;
        c.access(0);
        c.access(stride);
        c.access(2 * stride);
        assert_eq!(c.set_occupancy(0), 2);
        assert!(!c.is_cached(0), "oldest evicted");
    }

    #[test]
    fn flush_removes_line() {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(0x1000);
        assert!(c.is_cached(0x1000));
        c.flush(0x1000);
        assert!(!c.is_cached(0x1000));
        c.access(0x2000);
        c.flush_all();
        assert!(!c.is_cached(0x2000));
    }

    #[test]
    fn probe_access_does_not_fill() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert!(!c.probe_access(0x40));
        assert!(!c.is_cached(0x40));
        c.access(0x40);
        assert!(c.probe_access(0x40));
    }

    #[test]
    fn prime_set_matches_sequential_accesses() {
        // The bulk fill must leave the set bit-identical (tags and LRU ages)
        // to accessing the same lines in order through the generic path.
        let cfg = CacheConfig::tiny(2, 4);
        let stride = cfg.sets as u64 * cfg.line_size;
        let attacker: Vec<u64> = (0..4u64).map(|w| (0x8000 + w * stride) / cfg.line_size).collect();

        let mut slow = Cache::new(cfg);
        let mut fast = Cache::new(cfg);
        // Pre-pollute both with victim lines in set 0.
        for c in [&mut slow, &mut fast] {
            c.access(0);
            c.access(2 * stride);
        }
        for &tag in &attacker {
            slow.access(tag * cfg.line_size);
        }
        fast.prime_set(0, &attacker);
        assert_eq!(state(&slow), state(&fast));

        // Warm re-prime after a victim eviction: the victim displaces the
        // oldest attacker line, and during the re-prime walk a still-resident
        // attacker line becomes the LRU victim before its own access — the
        // corner where membership-at-entry accounting would miss the
        // re-fill.  The state must still match the sequential walk.
        for c in [&mut slow, &mut fast] {
            c.access(4 * stride);
        }
        for &tag in &attacker {
            slow.access(tag * cfg.line_size);
        }
        fast.prime_set(0, &attacker);
        assert_eq!(state(&slow), state(&fast));
    }

    #[test]
    fn partial_prime_matches_sequential_and_keeps_occupants() {
        // Fewer tags than ways: room remains, so a resident victim line
        // survives the walk (aged) instead of being evicted.
        let cfg = CacheConfig::tiny(1, 4);
        let mut slow = Cache::new(cfg);
        let mut fast = Cache::new(cfg);
        for c in [&mut slow, &mut fast] {
            c.access(0);
        }
        let tags = [100u64, 200];
        for &t in &tags {
            slow.access(t * cfg.line_size);
        }
        fast.prime_set(0, &tags);
        assert_eq!(state(&slow), state(&fast));
        assert!(fast.is_cached(0), "occupant survives a partial prime");
    }

    #[test]
    fn warm_prime_with_hits_preserves_line_order() {
        // Hits refresh lines in place: when the resident order differs from
        // the walk order, the final line order (which decides future LRU
        // tie-breaks) must match the sequential walk, not the tag list.
        let cfg = CacheConfig::tiny(1, 2);
        let mut slow = Cache::new(cfg);
        let mut fast = Cache::new(cfg);
        for c in [&mut slow, &mut fast] {
            c.access(11 * cfg.line_size);
            c.access(10 * cfg.line_size);
        }
        let tags = [10u64, 11];
        for &t in &tags {
            slow.access(t * cfg.line_size);
        }
        fast.prime_set(0, &tags);
        assert_eq!(state(&slow), state(&fast));
    }

    #[test]
    fn prime_set_is_idempotent() {
        let cfg = CacheConfig::tiny(1, 2);
        let mut c = Cache::new(cfg);
        c.prime_set(0, &[10, 11]);
        let primed = state(&c);
        c.prime_set(0, &[10, 11]);
        assert_eq!(state(&c), primed, "resident lines hit on re-prime");
        assert_eq!(c.set_tags(0), vec![10, 11]);
        c.prime_set(0, &[]);
        assert_eq!(c.set_tags(0), vec![10, 11], "empty prime is a no-op");
    }

    #[test]
    fn probe_set_counts_and_refreshes_like_probe_access() {
        let cfg = CacheConfig::tiny(1, 3);
        let mut a = Cache::new(cfg);
        let mut b = Cache::new(cfg);
        for c in [&mut a, &mut b] {
            c.prime_set(0, &[1, 2, 3]);
            c.access(9 * 64); // victim evicts tag 1 (oldest)
        }
        let tags = [1u64, 2, 3];
        let hits_slow =
            tags.iter().filter(|&&t| a.probe_access(t * cfg.line_size)).count();
        let hits_fast = b.probe_set(0, &tags);
        assert_eq!(hits_slow, hits_fast);
        assert_eq!(hits_fast, 2);
        assert_eq!(a.sets[0], b.sets[0], "hit ages refreshed identically");
    }

    #[test]
    fn functional_state_settles_pending_ages() {
        // A bulk re-prime only marks ages pending; the state must read the
        // ages a sequential re-prime writes.
        let cfg = CacheConfig::tiny(2, 2);
        let mut bulk = Cache::new(cfg);
        let mut walked = Cache::new(cfg);
        for c in [&mut bulk, &mut walked] {
            c.prime_set(0, &[10, 12]);
            c.access(10 * 64);
        }
        bulk.prime_resident(SetVector::from_sets([0]));
        walked.prime_set(0, &[10, 12]);
        assert_eq!(state(&bulk), state(&walked));
        walked.access(0);
        assert_ne!(state(&bulk), state(&walked), "a new line is state");
    }

    #[test]
    fn set_tags_reported() {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(0x0);
        c.access(0x1000);
        let tags = c.set_tags(0);
        assert!(tags.contains(&0));
        assert!(tags.contains(&(0x1000 / 64)));
    }
}
