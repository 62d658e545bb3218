//! Branch prediction structures: conditional predictor, BTB and RSB.
//!
//! These structures are the microarchitectural context (`Ctx` in
//! Definition 1) that the executor cannot set directly and instead controls
//! through *priming*: running many inputs in sequence so that earlier inputs
//! train the predictors for later ones (§5.3).
//!
//! Prediction is pluggable: [`SpecCpu`](crate::SpecCpu) consults the three
//! trait objects [`DirectionPredictor`] (conditional direction),
//! [`TargetPredictor`] (indirect-jump targets) and [`ReturnPredictor`]
//! (return targets), built from the [`PredictorConfig`] carried in
//! [`UarchConfig`](crate::UarchConfig).  Besides the paper-default trio
//! (bimodal [`BranchPredictor`], last-target [`Btb`], 16-entry stack
//! [`Rsb`]) the zoo provides a TAGE-style predictor ([`Tage`]), a
//! loop-termination predictor ([`LoopPredictor`]), a set-associative tagged
//! BTB whose index/tag aliasing enables cross-site V2 collisions
//! ([`SetAssocBtb`]) and a cyclic (wrap-around) RSB whose over/underflow
//! predicts stale targets, ret2spec-style ([`CyclicRsb`]).
//!
//! All predictor tables are ordered maps (`BTreeMap`), never hash maps, so
//! every rendering of predictor state — `Debug` output, snapshots, future
//! serialized forms — is canonical: independent of insertion order and of
//! any per-process hash seed.

use rvz_isa::BlockId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A site identifier for a branch: the block whose terminator it is.
pub type BranchSite = usize;

// ---------------------------------------------------------------------------
// Prediction traits
// ---------------------------------------------------------------------------

/// Direction prediction for conditional branches.
///
/// Implementations must be deterministic functions of their update history:
/// verdict reproducibility across resume/steal/parallelism relies on it.
pub trait DirectionPredictor: fmt::Debug + Send + Sync {
    /// Predict the direction of the branch at `site`.
    fn predict(&self, site: BranchSite) -> bool;
    /// Update with the architecturally resolved direction.
    fn update(&mut self, site: BranchSite, taken: bool);
    /// Total predictions made so far.
    fn predictions(&self) -> u64;
    /// Total mispredictions observed so far.  A site's first-ever encounter
    /// is not counted: there was no history to predict from.
    fn mispredictions(&self) -> u64;
    /// Forget everything (power-on state).
    fn reset(&mut self);
    /// Append the predictor's functional state to `out` in canonical form:
    /// two predictors that append the same words predict every future
    /// update sequence identically.  Statistics are left out.
    fn functional_state(&self, out: &mut Vec<u64>);
    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn DirectionPredictor>;
}

impl Clone for Box<dyn DirectionPredictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Target prediction for indirect jumps (the structure behind Spectre V2).
pub trait TargetPredictor: fmt::Debug + Send + Sync {
    /// Predicted target for the site, if any.
    fn predict(&self, site: BranchSite) -> Option<BlockId>;
    /// Record the architecturally resolved target.
    fn update(&mut self, site: BranchSite, target: BlockId);
    /// Forget everything.
    fn reset(&mut self);
    /// Append the BTB's functional state to `out` in canonical form (see
    /// [`DirectionPredictor::functional_state`]).
    fn functional_state(&self, out: &mut Vec<u64>);
    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn TargetPredictor>;
}

impl Clone for Box<dyn TargetPredictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Return-target prediction (the structure behind Spectre V5 / ret2spec).
pub trait ReturnPredictor: fmt::Debug + Send + Sync {
    /// Record a call's return target.
    fn push(&mut self, target: BlockId);
    /// Predict (and consume) the target of the next return.
    fn pop_predict(&mut self) -> Option<BlockId>;
    /// Number of live entries.
    fn depth(&self) -> usize;
    /// Forget everything.
    fn reset(&mut self);
    /// Append the RSB's functional state to `out` in canonical form (see
    /// [`DirectionPredictor::functional_state`]).
    fn functional_state(&self, out: &mut Vec<u64>);
    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn ReturnPredictor>;
}

impl Clone for Box<dyn ReturnPredictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Bimodal direction predictor
// ---------------------------------------------------------------------------

/// Two-bit saturating-counter predictor for conditional branches, indexed by
/// branch site (a classic bimodal predictor), optionally mixing global
/// history bits into the index (gshare-style).  With zero history bits —
/// the default — per-site counters make the predictor easy to mistrain
/// through priming, which is exactly the property the paper relies on to
/// surface Spectre V1 with few inputs (Table 5).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BranchPredictor {
    counters: BTreeMap<u64, u8>,
    history: u64,
    history_bits: u32,
    seen_sites: BTreeSet<u64>,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// New predictor with all counters weakly not-taken and no history
    /// mixing (the paper-default configuration).
    pub fn new() -> BranchPredictor {
        BranchPredictor::default()
    }

    /// New predictor mixing the given number of global-history bits into
    /// the counter index.  Values are clamped to 63 bits (the width of the
    /// history register that can be mixed without overflow).
    pub fn with_history_bits(bits: u32) -> BranchPredictor {
        BranchPredictor { history_bits: bits.min(63), ..BranchPredictor::default() }
    }

    /// The number of global-history bits mixed into the index.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    fn key(&self, site: BranchSite) -> u64 {
        // `(1 << bits) - 1` overflows for bits >= 64 and the shift must not
        // exceed 63; `history_mask` handles both, and with zero bits the
        // key degenerates to the plain site (the historical behaviour).
        let mask = history_mask(self.history_bits);
        ((site as u64) << self.history_bits) ^ (self.history & mask)
    }
}

/// All-ones mask of the low `bits` bits, saturating at 64 bits.
fn history_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl DirectionPredictor for BranchPredictor {
    fn predict(&self, site: BranchSite) -> bool {
        let c = self.counters.get(&self.key(site)).copied().unwrap_or(1);
        c >= 2
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let key = self.key(site);
        let predicted = self.predict(site);
        self.predictions += 1;
        // The first encounter of a site has no training to predict from, so
        // it does not count as a misprediction in the statistics.  (The
        // CPU's own speculation decision is made at the call site and is
        // unaffected by these counters.)
        if self.seen_sites.contains(&(site as u64)) && predicted != taken {
            self.mispredictions += 1;
        }
        self.seen_sites.insert(site as u64);
        let c = self.counters.entry(key).or_insert(1);
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | (taken as u64);
    }

    fn predictions(&self) -> u64 {
        self.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    fn reset(&mut self) {
        let bits = self.history_bits;
        *self = BranchPredictor { history_bits: bits, ..BranchPredictor::default() };
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        // Only the history bits `key` mixes in are state: with zero history
        // bits the register is dead, however many branches shifted into it.
        out.push(self.history & history_mask(self.history_bits));
        out.push(self.counters.len() as u64);
        out.extend(self.counters.iter().flat_map(|(&key, &c)| [key, u64::from(c)]));
    }

    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// TAGE direction predictor
// ---------------------------------------------------------------------------

/// One tagged component of the TAGE predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TageTable {
    /// Geometric history length of this component.
    history_len: u32,
    /// Index → entry.  The index space is 2^[`Tage::INDEX_BITS`]; the map
    /// stays sparse until sites actually collide.
    entries: BTreeMap<u64, TageEntry>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TageEntry {
    tag: u64,
    /// Three-bit signed counter: 0..=7, taken when >= 4.
    ctr: u8,
    /// Two-bit useful counter guarding replacement.
    useful: u8,
}

/// A TAGE-style conditional predictor: a bimodal base table plus tagged
/// components with geometrically growing history lengths (4/8/16/32) and
/// useful-bit replacement.  The longest matching component provides the
/// prediction; on a misprediction an entry is allocated in the next longer
/// component whose slot is not useful.
///
/// Because the prediction depends on the global history register, two runs
/// that differ only in an *earlier* branch direction can predict a later
/// branch differently — the predictor-state-dependent leak scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tage {
    base: BranchPredictor,
    tables: Vec<TageTable>,
    history: u64,
    seen_sites: BTreeSet<u64>,
    predictions: u64,
    mispredictions: u64,
}

impl Tage {
    /// Index space of each tagged component (2^9 = 512 entries).
    const INDEX_BITS: u32 = 9;
    /// Tag width of each tagged component.
    const TAG_BITS: u32 = 7;
    /// Geometric history lengths of the tagged components.
    const HISTORY_LENGTHS: [u32; 4] = [4, 8, 16, 32];

    /// New TAGE predictor with empty tables.
    pub fn new() -> Tage {
        Tage {
            base: BranchPredictor::new(),
            tables: Self::HISTORY_LENGTHS
                .iter()
                .map(|&history_len| TageTable { history_len, entries: BTreeMap::new() })
                .collect(),
            history: 0,
            seen_sites: BTreeSet::new(),
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, site: BranchSite, history_len: u32) -> u64 {
        let h = self.history & history_mask(history_len);
        // Spread sites across the index space (golden-ratio multiply) and
        // fold in two phases of the history so different history lengths
        // decorrelate; without the spread, nearby sites under different
        // histories land on the same slot and thrash each other's entries.
        let spread = (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
        let mixed = spread ^ h ^ (h >> 5) ^ ((history_len as u64) << 3);
        mixed & history_mask(Self::INDEX_BITS)
    }

    fn tag(&self, site: BranchSite, history_len: u32) -> u64 {
        let h = self.history & history_mask(history_len);
        ((site as u64) ^ h.wrapping_mul(0x9e37_79b9) ^ (h >> 11)) & history_mask(Self::TAG_BITS)
    }

    /// The longest-history component with a tag match, if any.
    fn provider(&self, site: BranchSite) -> Option<usize> {
        (0..self.tables.len()).rev().find(|&t| {
            let table = &self.tables[t];
            let idx = self.index(site, table.history_len);
            table.entries.get(&idx).is_some_and(|e| e.tag == self.tag(site, table.history_len))
        })
    }

    /// Prediction of component `t` (`None` = base bimodal) at `site`.
    fn component_predict(&self, t: Option<usize>, site: BranchSite) -> bool {
        match t {
            Some(t) => {
                let table = &self.tables[t];
                let idx = self.index(site, table.history_len);
                table.entries.get(&idx).map(|e| e.ctr >= 4).unwrap_or(false)
            }
            None => self.base.predict(site),
        }
    }

    /// The next-longest matching component below `t` (the alternate
    /// prediction source).
    fn altpred_source(&self, site: BranchSite, below: usize) -> Option<usize> {
        (0..below).rev().find(|&t| {
            let table = &self.tables[t];
            let idx = self.index(site, table.history_len);
            table.entries.get(&idx).is_some_and(|e| e.tag == self.tag(site, table.history_len))
        })
    }
}

impl Default for Tage {
    fn default() -> Self {
        Tage::new()
    }
}

impl DirectionPredictor for Tage {
    fn predict(&self, site: BranchSite) -> bool {
        self.component_predict(self.provider(site), site)
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let provider = self.provider(site);
        let predicted = self.component_predict(provider, site);
        let altpred = match provider {
            Some(p) => self.component_predict(self.altpred_source(site, p), site),
            None => self.base.predict(site),
        };
        self.predictions += 1;
        if self.seen_sites.contains(&(site as u64)) && predicted != taken {
            self.mispredictions += 1;
        }
        self.seen_sites.insert(site as u64);

        // Update the provider's counter (or the base table).
        match provider {
            Some(p) => {
                let idx = self.index(site, self.tables[p].history_len);
                if let Some(e) = self.tables[p].entries.get_mut(&idx) {
                    if taken {
                        e.ctr = (e.ctr + 1).min(7);
                    } else {
                        e.ctr = e.ctr.saturating_sub(1);
                    }
                    // The useful counter tracks whether the provider beats
                    // its alternate.
                    if predicted != altpred {
                        if predicted == taken {
                            e.useful = (e.useful + 1).min(3);
                        } else {
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
            }
            None => {
                // Base-table update shares the bimodal structure but not
                // its history register or statistics.
                self.base.update(site, taken);
            }
        }

        // On a misprediction, allocate in a longer component whose slot is
        // not useful; if every candidate is useful, age them instead.
        if predicted != taken {
            let first_longer = provider.map(|p| p + 1).unwrap_or(0);
            let mut allocated = false;
            for t in first_longer..self.tables.len() {
                let history_len = self.tables[t].history_len;
                let idx = self.index(site, history_len);
                let tag = self.tag(site, history_len);
                let slot = self.tables[t].entries.get(&idx);
                if slot.is_none() || slot.is_some_and(|e| e.useful == 0) {
                    self.tables[t].entries.insert(
                        idx,
                        TageEntry { tag, ctr: if taken { 4 } else { 3 }, useful: 0 },
                    );
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in first_longer..self.tables.len() {
                    let idx = self.index(site, self.tables[t].history_len);
                    if let Some(e) = self.tables[t].entries.get_mut(&idx) {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }

        self.history = (self.history << 1) | (taken as u64);
    }

    fn predictions(&self) -> u64 {
        self.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    fn reset(&mut self) {
        *self = Tage::new();
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        self.base.functional_state(out);
        // The longest component reads 32 history bits; older ones are dead.
        let longest = Self::HISTORY_LENGTHS[Self::HISTORY_LENGTHS.len() - 1];
        out.push(self.history & history_mask(longest));
        for table in &self.tables {
            out.push(table.entries.len() as u64);
            out.extend(table.entries.iter().flat_map(|(&idx, e)| {
                [idx, e.tag, (u64::from(e.ctr) << 8) | u64::from(e.useful)]
            }));
        }
    }

    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Loop predictor
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LoopEntry {
    /// Learned trip count (taken iterations before the exit).
    trip: u32,
    /// Taken iterations observed in the current traversal.
    current: u32,
    /// Confidence: consecutive traversals confirming `trip`.
    confidence: u8,
}

/// A loop-termination predictor: per-site trip-count table with a
/// confidence counter, falling back to a bimodal predictor until a stable
/// trip count is learned.  Once confident, it predicts *taken* for the
/// first `trip` encounters of a traversal and *not-taken* on the exit —
/// so an input-dependent trip count re-mistrains it every traversal.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoopPredictor {
    loops: BTreeMap<u64, LoopEntry>,
    fallback: BranchPredictor,
    seen_sites: BTreeSet<u64>,
    predictions: u64,
    mispredictions: u64,
}

impl LoopPredictor {
    /// Confidence threshold before loop predictions are used.
    const CONFIDENT: u8 = 2;

    /// New predictor with an empty loop table.
    pub fn new() -> LoopPredictor {
        LoopPredictor::default()
    }
}

impl DirectionPredictor for LoopPredictor {
    fn predict(&self, site: BranchSite) -> bool {
        match self.loops.get(&(site as u64)) {
            Some(e) if e.confidence >= Self::CONFIDENT => e.current < e.trip,
            _ => self.fallback.predict(site),
        }
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let predicted = self.predict(site);
        self.predictions += 1;
        if self.seen_sites.contains(&(site as u64)) && predicted != taken {
            self.mispredictions += 1;
        }
        self.seen_sites.insert(site as u64);
        let e = self.loops.entry(site as u64).or_default();
        if taken {
            e.current = e.current.saturating_add(1);
        } else {
            // The traversal ended: confirm or re-learn the trip count.
            if e.current == e.trip {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.trip = e.current;
                e.confidence = 0;
            }
            e.current = 0;
        }
        self.fallback.update(site, taken);
    }

    fn predictions(&self) -> u64 {
        self.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    fn reset(&mut self) {
        *self = LoopPredictor::default();
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        out.push(self.loops.len() as u64);
        out.extend(self.loops.iter().flat_map(|(&site, e)| {
            [site, u64::from(e.trip), u64::from(e.current), u64::from(e.confidence)]
        }));
        self.fallback.functional_state(out);
    }

    fn clone_box(&self) -> Box<dyn DirectionPredictor> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Branch target buffers
// ---------------------------------------------------------------------------

/// Branch target buffer for indirect jumps: predicts the last observed
/// target of each site (the mechanism behind Spectre V2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Btb {
    targets: BTreeMap<BranchSite, BlockId>,
}

impl Btb {
    /// Empty BTB.
    pub fn new() -> Btb {
        Btb::default()
    }
}

impl TargetPredictor for Btb {
    fn predict(&self, site: BranchSite) -> Option<BlockId> {
        self.targets.get(&site).copied()
    }

    fn update(&mut self, site: BranchSite, target: BlockId) {
        self.targets.insert(site, target);
    }

    fn reset(&mut self) {
        self.targets.clear();
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        out.push(self.targets.len() as u64);
        out.extend(self.targets.iter().flat_map(|(&site, b)| [site as u64, b.0 as u64]));
    }

    fn clone_box(&self) -> Box<dyn TargetPredictor> {
        Box::new(self.clone())
    }
}

/// A set-associative, tagged BTB.  The site is split into a set index (low
/// bits) and a *partial* tag; sites whose index and partial tag both match
/// share an entry, so training one site injects a target into another —
/// the cross-address-space collision behind classic Spectre V2 attacks.
///
/// With `sets` sets and `tag_bits` tag bits, sites congruent modulo
/// `sets << tag_bits` alias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocBtb {
    /// Per-set ways, most recently used first: `(partial tag, target)`.
    sets: Vec<Vec<(u64, BlockId)>>,
    ways: usize,
    index_bits: u32,
    tag_bits: u32,
}

impl SetAssocBtb {
    /// BTB with the given geometry.  `sets` is rounded up to a power of
    /// two; `ways >= 1`.
    pub fn new(sets: usize, ways: usize, tag_bits: u32) -> SetAssocBtb {
        let sets = sets.max(1).next_power_of_two();
        SetAssocBtb {
            sets: vec![Vec::new(); sets],
            ways: ways.max(1),
            index_bits: sets.trailing_zeros(),
            tag_bits: tag_bits.min(56),
        }
    }

    /// The tiny aliasing geometry used by the BTB-collision target: 2 sets
    /// × 2 ways with a 1-bit tag, so sites congruent mod 4 share an entry.
    pub fn aliasing_2x2() -> SetAssocBtb {
        SetAssocBtb::new(2, 2, 1)
    }

    fn set_of(&self, site: BranchSite) -> usize {
        site & (self.sets.len() - 1)
    }

    fn tag_of(&self, site: BranchSite) -> u64 {
        ((site as u64) >> self.index_bits) & history_mask(self.tag_bits)
    }
}

impl TargetPredictor for SetAssocBtb {
    fn predict(&self, site: BranchSite) -> Option<BlockId> {
        let tag = self.tag_of(site);
        self.sets[self.set_of(site)].iter().find(|(t, _)| *t == tag).map(|(_, b)| *b)
    }

    fn update(&mut self, site: BranchSite, target: BlockId) {
        let tag = self.tag_of(site);
        let set_idx = self.set_of(site);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|(t, _)| *t == tag) {
            set.remove(pos);
        }
        set.insert(0, (tag, target));
        set.truncate(ways);
    }

    fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        // Way order is recency order, which decides the next victim.
        for set in &self.sets {
            out.push(set.len() as u64);
            out.extend(set.iter().flat_map(|&(tag, b)| [tag, b.0 as u64]));
        }
    }

    fn clone_box(&self) -> Box<dyn TargetPredictor> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Return stack buffers
// ---------------------------------------------------------------------------

/// Return stack buffer: predicts return targets from a small hardware stack
/// (the mechanism behind Spectre V5 / ret2spec).  Overflow drops the oldest
/// entry; underflow predicts nothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rsb {
    stack: VecDeque<BlockId>,
    capacity: usize,
}

impl Rsb {
    /// RSB with the conventional 16-entry capacity.
    pub fn new() -> Rsb {
        Rsb::with_capacity(16)
    }

    /// RSB with a specific capacity.
    pub fn with_capacity(capacity: usize) -> Rsb {
        Rsb { stack: VecDeque::with_capacity(capacity), capacity }
    }
}

impl ReturnPredictor for Rsb {
    fn push(&mut self, target: BlockId) {
        if self.stack.len() == self.capacity {
            self.stack.pop_front();
        }
        self.stack.push_back(target);
    }

    fn pop_predict(&mut self) -> Option<BlockId> {
        self.stack.pop_back()
    }

    fn depth(&self) -> usize {
        self.stack.len()
    }

    fn reset(&mut self) {
        self.stack.clear();
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        out.push(self.stack.len() as u64);
        out.extend(self.stack.iter().map(|b| b.0 as u64));
    }

    fn clone_box(&self) -> Box<dyn ReturnPredictor> {
        Box::new(self.clone())
    }
}

impl Default for Rsb {
    fn default() -> Self {
        Rsb::new()
    }
}

/// A cyclic (wrap-around) RSB, as implemented by real parts: pushes
/// overwrite the oldest slot and pops past the live region return **stale**
/// entries instead of nothing.  A call chain deeper than the capacity
/// therefore mispredicts its outermost returns toward the *newest* return
/// sites — the deep over/underflow behaviour ret2spec exploits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CyclicRsb {
    ring: Vec<Option<BlockId>>,
    top: usize,
    live: usize,
}

impl CyclicRsb {
    /// Cyclic RSB with the given capacity (minimum 1).
    pub fn with_capacity(capacity: usize) -> CyclicRsb {
        CyclicRsb { ring: vec![None; capacity.max(1)], top: 0, live: 0 }
    }
}

impl ReturnPredictor for CyclicRsb {
    fn push(&mut self, target: BlockId) {
        self.ring[self.top] = Some(target);
        self.top = (self.top + 1) % self.ring.len();
        self.live = (self.live + 1).min(self.ring.len());
    }

    fn pop_predict(&mut self) -> Option<BlockId> {
        self.top = (self.top + self.ring.len() - 1) % self.ring.len();
        self.live = self.live.saturating_sub(1);
        // Deliberately not cleared: popping past the live region wraps
        // around and serves stale entries.
        self.ring[self.top]
    }

    fn depth(&self) -> usize {
        self.live
    }

    fn reset(&mut self) {
        for slot in &mut self.ring {
            *slot = None;
        }
        self.top = 0;
        self.live = 0;
    }

    fn functional_state(&self, out: &mut Vec<u64>) {
        // Stale slots past the live region are state: underflow serves them.
        out.push(self.top as u64);
        out.push(self.live as u64);
        out.extend(self.ring.iter().map(|slot| slot.map_or(u64::MAX, |b| b.0 as u64)));
    }

    fn clone_box(&self) -> Box<dyn ReturnPredictor> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Predictor configuration
// ---------------------------------------------------------------------------

/// Which conditional-direction predictor to instantiate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectionKind {
    /// Bimodal two-bit counters, optionally gshare-mixed with global
    /// history ([`BranchPredictor`]).
    Bimodal {
        /// Global-history bits mixed into the counter index (0 = classic
        /// per-site bimodal, the paper default).
        history_bits: u32,
    },
    /// TAGE-style tagged geometric-history predictor ([`Tage`]).
    Tage,
    /// Loop-termination predictor with bimodal fallback
    /// ([`LoopPredictor`]).
    Loop,
}

impl Default for DirectionKind {
    fn default() -> Self {
        DirectionKind::Bimodal { history_bits: 0 }
    }
}

/// Which indirect-target predictor to instantiate.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TargetKind {
    /// Per-site last-target table ([`Btb`]), no aliasing.
    #[default]
    LastTarget,
    /// Set-associative tagged BTB ([`SetAssocBtb`]); small geometries
    /// alias sites congruent mod `sets << tag_bits`.
    SetAssociative {
        /// Number of sets (rounded up to a power of two).
        sets: usize,
        /// Ways per set.
        ways: usize,
        /// Partial-tag width in bits.
        tag_bits: u32,
    },
}

/// Which return predictor to instantiate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReturnKind {
    /// Plain stack that drops on overflow and predicts nothing on
    /// underflow ([`Rsb`]).
    Stack {
        /// Entry capacity.
        capacity: usize,
    },
    /// Cyclic wrap-around buffer that serves stale entries on deep
    /// over/underflow ([`CyclicRsb`]).
    Cyclic {
        /// Entry capacity.
        capacity: usize,
    },
}

impl Default for ReturnKind {
    fn default() -> Self {
        ReturnKind::Stack { capacity: 16 }
    }
}

/// Selection of the three prediction structures of a
/// [`SpecCpu`](crate::SpecCpu).  The default reproduces the paper-era
/// behaviour exactly (bimodal without history, last-target BTB, 16-entry
/// stack RSB), so configurations serialized before this type existed load
/// unchanged and produce byte-identical verdicts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Conditional-direction predictor.
    #[serde(default)]
    pub direction: DirectionKind,
    /// Indirect-target predictor.
    #[serde(default)]
    pub target: TargetKind,
    /// Return predictor.
    #[serde(default)]
    pub ret: ReturnKind,
}

impl PredictorConfig {
    /// TAGE conditional prediction, default BTB/RSB.
    pub fn tage() -> PredictorConfig {
        PredictorConfig { direction: DirectionKind::Tage, ..PredictorConfig::default() }
    }

    /// Loop-predictor conditional prediction, default BTB/RSB.
    pub fn loop_predictor() -> PredictorConfig {
        PredictorConfig { direction: DirectionKind::Loop, ..PredictorConfig::default() }
    }

    /// The tiny aliasing set-associative BTB (2 sets × 2 ways, 1-bit tag),
    /// default direction/return predictors.
    pub fn aliasing_btb() -> PredictorConfig {
        PredictorConfig {
            target: TargetKind::SetAssociative { sets: 2, ways: 2, tag_bits: 1 },
            ..PredictorConfig::default()
        }
    }

    /// A cyclic RSB of the given capacity, default direction/target
    /// predictors.
    pub fn cyclic_rsb(capacity: usize) -> PredictorConfig {
        PredictorConfig { ret: ReturnKind::Cyclic { capacity }, ..PredictorConfig::default() }
    }

    /// Is this the paper-default selection?
    pub fn is_default(&self) -> bool {
        *self == PredictorConfig::default()
    }

    /// Short human-readable label of the non-default parts (empty for the
    /// default selection).  Used in CPU names and matrix-cell descriptions.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match &self.direction {
            DirectionKind::Bimodal { history_bits: 0 } => {}
            DirectionKind::Bimodal { history_bits } => {
                parts.push(format!("gshare{history_bits}"));
            }
            DirectionKind::Tage => parts.push("TAGE".to_string()),
            DirectionKind::Loop => parts.push("loop".to_string()),
        }
        match &self.target {
            TargetKind::LastTarget => {}
            TargetKind::SetAssociative { sets, ways, tag_bits } => {
                parts.push(format!("btb{sets}x{ways}t{tag_bits}"));
            }
        }
        match &self.ret {
            ReturnKind::Stack { capacity: 16 } => {}
            ReturnKind::Stack { capacity } => parts.push(format!("rsb{capacity}")),
            ReturnKind::Cyclic { capacity } => parts.push(format!("cyclic-rsb{capacity}")),
        }
        parts.join("+")
    }

    /// Instantiate the conditional-direction predictor.
    pub fn build_direction(&self) -> Box<dyn DirectionPredictor> {
        match &self.direction {
            DirectionKind::Bimodal { history_bits: 0 } => Box::new(BranchPredictor::new()),
            DirectionKind::Bimodal { history_bits } => {
                Box::new(BranchPredictor::with_history_bits(*history_bits))
            }
            DirectionKind::Tage => Box::new(Tage::new()),
            DirectionKind::Loop => Box::new(LoopPredictor::new()),
        }
    }

    /// Instantiate the indirect-target predictor.
    pub fn build_target(&self) -> Box<dyn TargetPredictor> {
        match &self.target {
            TargetKind::LastTarget => Box::new(Btb::new()),
            TargetKind::SetAssociative { sets, ways, tag_bits } => {
                Box::new(SetAssocBtb::new(*sets, *ways, *tag_bits))
            }
        }
    }

    /// Instantiate the return predictor.
    pub fn build_return(&self) -> Box<dyn ReturnPredictor> {
        match &self.ret {
            ReturnKind::Stack { capacity } => Box::new(Rsb::with_capacity(*capacity)),
            ReturnKind::Cyclic { capacity } => Box::new(CyclicRsb::with_capacity(*capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_initially_predicts_not_taken() {
        let p = BranchPredictor::new();
        assert!(!p.predict(0));
    }

    #[test]
    fn predictor_trains_towards_taken() {
        let mut p = BranchPredictor::new();
        // With history involved, train repeatedly until stable.
        for _ in 0..8 {
            p.update(5, true);
        }
        assert!(p.predict(5));
        assert!(p.predictions() >= 8);
    }

    #[test]
    fn predictor_counts_mispredictions_after_first_encounter() {
        let mut p = BranchPredictor::new();
        p.update(1, true); // first-ever encounter: not a misprediction
        assert_eq!(p.mispredictions(), 0, "no history, nothing to mispredict against");
        p.update(1, false); // trained weakly-taken now predicts taken -> wrong
        assert_eq!(p.mispredictions(), 1);
        for _ in 0..8 {
            p.update(1, true);
        }
        let before = p.mispredictions();
        p.update(1, true);
        assert_eq!(p.mispredictions(), before, "well-trained branch predicts correctly");
    }

    #[test]
    fn predictor_reset() {
        let mut p = BranchPredictor::new();
        for _ in 0..8 {
            p.update(3, true);
        }
        p.reset();
        assert!(!p.predict(3));
        assert_eq!(p.predictions(), 0);
    }

    #[test]
    fn alternating_pattern_causes_mispredictions() {
        let mut p = BranchPredictor::new();
        for i in 0..32 {
            p.update(7, i % 2 == 0);
        }
        assert!(p.mispredictions() > 0);
    }

    #[test]
    fn history_mixing_takes_effect_with_nonzero_bits() {
        // With 4 history bits the same site indexes different counters
        // under different histories, so a history-correlated pattern
        // becomes predictable where the history-free bimodal keeps
        // mispredicting.
        let mut with_history = BranchPredictor::with_history_bits(4);
        assert_eq!(with_history.history_bits(), 4);
        let mut without = BranchPredictor::new();
        // Pattern: branch 9 is taken exactly when the previous outcome of
        // branch 9 was not-taken (period-2 alternation).
        let mut mis_with = 0u64;
        let mut mis_without = 0u64;
        for i in 0..64 {
            let taken = i % 2 == 0;
            let (pw, pn) = (with_history.predict(9), without.predict(9));
            if i > 8 {
                mis_with += (pw != taken) as u64;
                mis_without += (pn != taken) as u64;
            }
            with_history.update(9, taken);
            without.update(9, taken);
        }
        assert_eq!(mis_with, 0, "history-indexed counters learn the alternation");
        assert!(mis_without > 0, "history-free bimodal cannot");
        // Reset keeps the configured history width.
        with_history.reset();
        assert_eq!(with_history.history_bits(), 4);
    }

    #[test]
    fn history_mask_is_overflow_safe() {
        assert_eq!(history_mask(0), 0);
        assert_eq!(history_mask(1), 1);
        assert_eq!(history_mask(63), (1u64 << 63) - 1);
        assert_eq!(history_mask(64), u64::MAX);
        assert_eq!(history_mask(200), u64::MAX);
        // Requested widths clamp instead of overflowing the shift.
        let p = BranchPredictor::with_history_bits(200);
        assert_eq!(p.history_bits(), 63);
    }

    #[test]
    fn tage_learns_history_correlated_pattern() {
        let mut t = Tage::new();
        // Branch 3's direction equals the direction branch 2 took just
        // before it — pure history correlation, invisible to bimodal.
        let mut mispredicts_late = 0u64;
        for i in 0..256 {
            let dir2 = (i / 3) % 2 == 0; // slowly alternating
            t.update(2, dir2);
            let predicted = t.predict(3);
            if i > 128 && predicted != dir2 {
                mispredicts_late += 1;
            }
            t.update(3, dir2);
        }
        assert!(
            mispredicts_late <= 8,
            "TAGE should learn the correlation, got {mispredicts_late} late mispredictions"
        );
    }

    #[test]
    fn tage_prediction_depends_on_history() {
        // Train: after history-bit 1 at site 0, site 5 is taken; after
        // history-bit 0 it is not.  A bimodal predictor would collapse
        // both to one counter.
        let mut t = Tage::new();
        for _ in 0..64 {
            t.update(0, true);
            t.update(5, true);
            t.update(0, false);
            t.update(5, false);
        }
        // Probe the two trained history contexts: right after site 0 goes
        // taken, site 5 is predicted taken; half a cycle later (site 0
        // not-taken), the same site is predicted not-taken.  Only the
        // global history distinguishes the two probes.
        let mut probe_taken = t.clone();
        probe_taken.update(0, true);
        let mut probe_not = t.clone();
        probe_not.update(0, true);
        probe_not.update(5, true);
        probe_not.update(0, false);
        assert!(probe_taken.predict(5), "after site 0 taken, site 5 follows");
        assert!(!probe_not.predict(5), "after site 0 not-taken, site 5 follows");
        assert_ne!(
            probe_taken.predict(5),
            probe_not.predict(5),
            "prediction of site 5 must depend on the global history"
        );
    }

    #[test]
    fn tage_stats_and_reset() {
        let mut t = Tage::new();
        t.update(1, true);
        assert_eq!(t.mispredictions(), 0, "first encounter is not a misprediction");
        for i in 0..16 {
            t.update(1, i % 2 == 0);
        }
        assert!(t.predictions() >= 16);
        t.reset();
        assert_eq!(t.predictions(), 0);
        assert!(!t.predict(1));
    }

    #[test]
    fn loop_predictor_learns_trip_count() {
        let mut p = LoopPredictor::new();
        // A loop that runs exactly 3 taken iterations, repeatedly.
        for _ in 0..6 {
            for _ in 0..3 {
                p.update(4, true);
            }
            p.update(4, false);
        }
        // Confident now: predicts taken for 3 iterations, then not-taken.
        assert!(p.predict(4));
        p.update(4, true);
        assert!(p.predict(4));
        p.update(4, true);
        assert!(p.predict(4));
        p.update(4, true);
        assert!(!p.predict(4), "the learned exit iteration predicts not-taken");
    }

    #[test]
    fn loop_predictor_falls_back_to_bimodal() {
        let mut p = LoopPredictor::new();
        for _ in 0..8 {
            p.update(2, true); // never a not-taken: no trip count learned
        }
        assert!(p.predict(2), "bimodal fallback trains toward taken");
        p.reset();
        assert!(!p.predict(2));
        assert_eq!(p.predictions(), 0);
    }

    #[test]
    fn btb_predicts_last_target() {
        let mut b = Btb::new();
        assert_eq!(b.predict(0), None);
        b.update(0, BlockId(3));
        assert_eq!(b.predict(0), Some(BlockId(3)));
        b.update(0, BlockId(5));
        assert_eq!(b.predict(0), Some(BlockId(5)));
        b.reset();
        assert_eq!(b.predict(0), None);
    }

    #[test]
    fn set_assoc_btb_aliases_congruent_sites() {
        // 2 sets × 2 ways, 1-bit tag: sites congruent mod 4 share an entry.
        let mut b = SetAssocBtb::aliasing_2x2();
        b.update(1, BlockId(2));
        assert_eq!(b.predict(1), Some(BlockId(2)));
        assert_eq!(b.predict(5), Some(BlockId(2)), "site 5 aliases site 1 (mod 4)");
        assert_eq!(b.predict(3), None, "site 3 has a different tag");
        // Updating the aliased site overwrites the shared entry.
        b.update(5, BlockId(6));
        assert_eq!(b.predict(1), Some(BlockId(6)));
        b.reset();
        assert_eq!(b.predict(1), None);
    }

    #[test]
    fn set_assoc_btb_evicts_lru_way() {
        // 1 set × 2 ways, wide tags: no aliasing, but only two live entries.
        let mut b = SetAssocBtb::new(1, 2, 16);
        b.update(1, BlockId(1));
        b.update(2, BlockId(2));
        b.update(3, BlockId(3)); // evicts site 1 (least recently used)
        assert_eq!(b.predict(1), None);
        assert_eq!(b.predict(2), Some(BlockId(2)));
        assert_eq!(b.predict(3), Some(BlockId(3)));
        // A hit refreshes recency.
        b.update(2, BlockId(2));
        b.update(4, BlockId(4)); // now site 3 is the LRU victim
        assert_eq!(b.predict(3), None);
        assert_eq!(b.predict(2), Some(BlockId(2)));
    }

    #[test]
    fn rsb_predicts_in_lifo_order() {
        let mut r = Rsb::new();
        r.push(BlockId(1));
        r.push(BlockId(2));
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop_predict(), Some(BlockId(2)));
        assert_eq!(r.pop_predict(), Some(BlockId(1)));
        assert_eq!(r.pop_predict(), None);
    }

    #[test]
    fn rsb_overflows_by_dropping_oldest() {
        let mut r = Rsb::with_capacity(2);
        r.push(BlockId(1));
        r.push(BlockId(2));
        r.push(BlockId(3));
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop_predict(), Some(BlockId(3)));
        assert_eq!(r.pop_predict(), Some(BlockId(2)));
        assert_eq!(r.pop_predict(), None, "oldest entry was dropped");
    }

    #[test]
    fn rsb_ring_matches_vec_remove_semantics() {
        // The ring-buffer implementation must be behaviour-identical to the
        // old `Vec::remove(0)` version across interleaved pushes and pops.
        let capacity = 3;
        let mut ring = Rsb::with_capacity(capacity);
        let mut model: Vec<BlockId> = Vec::new();
        let ops: Vec<i64> = vec![1, 2, 3, 4, -1, 5, -1, -1, -1, -1, 6, 7, 8, 9, 10, -1, -1];
        for op in ops {
            if op >= 0 {
                if model.len() == capacity {
                    model.remove(0);
                }
                model.push(BlockId(op as usize));
                ring.push(BlockId(op as usize));
            } else {
                assert_eq!(ring.pop_predict(), model.pop());
            }
            assert_eq!(ring.depth(), model.len());
        }
    }

    #[test]
    fn cyclic_rsb_serves_stale_entries_past_underflow() {
        // 20 pushes into a 4-entry ring, then 20 pops: the first 4 pops are
        // correct LIFO, the rest wrap around into stale entries.
        let mut r = CyclicRsb::with_capacity(4);
        for i in 1..=20 {
            r.push(BlockId(i));
        }
        assert_eq!(r.depth(), 4);
        assert_eq!(r.pop_predict(), Some(BlockId(20)));
        assert_eq!(r.pop_predict(), Some(BlockId(19)));
        assert_eq!(r.pop_predict(), Some(BlockId(18)));
        assert_eq!(r.pop_predict(), Some(BlockId(17)));
        // Underflow: wraps back to the newest entries instead of None.
        assert_eq!(r.pop_predict(), Some(BlockId(20)), "stale entry after wrap-around");
        assert_eq!(r.pop_predict(), Some(BlockId(19)));
        r.reset();
        assert_eq!(r.pop_predict(), None);
    }

    #[test]
    fn cyclic_rsb_is_lifo_within_capacity() {
        let mut r = CyclicRsb::with_capacity(16);
        r.push(BlockId(1));
        r.push(BlockId(2));
        assert_eq!(r.pop_predict(), Some(BlockId(2)));
        assert_eq!(r.pop_predict(), Some(BlockId(1)));
        assert_eq!(r.pop_predict(), None, "nothing was ever written there");
    }

    #[test]
    fn predictor_config_default_reproduces_paper_trio() {
        let config = PredictorConfig::default();
        assert!(config.is_default());
        assert_eq!(config.label(), "");
        let d = config.build_direction();
        assert!(!d.predict(0), "bimodal weakly not-taken");
        let t = config.build_target();
        assert_eq!(t.predict(0), None);
        let mut r = config.build_return();
        for i in 0..20 {
            r.push(BlockId(i));
        }
        assert_eq!(r.depth(), 16, "default RSB capacity is 16");
        for _ in 0..16 {
            r.pop_predict();
        }
        assert_eq!(r.pop_predict(), None, "stack RSB predicts nothing on underflow");
    }

    #[test]
    fn predictor_config_labels() {
        assert_eq!(PredictorConfig::tage().label(), "TAGE");
        assert_eq!(PredictorConfig::loop_predictor().label(), "loop");
        assert_eq!(PredictorConfig::aliasing_btb().label(), "btb2x2t1");
        assert_eq!(PredictorConfig::cyclic_rsb(16).label(), "cyclic-rsb16");
        let combined = PredictorConfig {
            direction: DirectionKind::Tage,
            target: TargetKind::SetAssociative { sets: 2, ways: 2, tag_bits: 1 },
            ret: ReturnKind::Cyclic { capacity: 8 },
        };
        assert_eq!(combined.label(), "TAGE+btb2x2t1+cyclic-rsb8");
    }

    #[test]
    fn boxed_predictors_clone_independently() {
        let mut a: Box<dyn DirectionPredictor> = Box::new(BranchPredictor::new());
        for _ in 0..4 {
            a.update(1, true);
        }
        let mut b = a.clone();
        b.update(1, false);
        b.update(1, false);
        b.update(1, false);
        assert!(a.predict(1), "original unaffected by the clone's updates");
        assert!(!b.predict(1));
    }

    fn state_of(p: &dyn DirectionPredictor) -> Vec<u64> {
        let mut out = Vec::new();
        p.functional_state(&mut out);
        out
    }

    #[test]
    fn functional_state_reads_only_live_history_bits() {
        // History bits no index or tag reads are not state: without them a
        // predictor that keeps shifting outcomes in never repeats.
        let mut a = BranchPredictor::new();
        let mut b = BranchPredictor::new();
        a.update(3, true);
        a.update(3, false);
        a.update(3, false);
        b.update(3, false);
        assert_eq!(state_of(&a), state_of(&b), "zero history bits: only counters count");
        let mut a = BranchPredictor::with_history_bits(2);
        let mut b = BranchPredictor::with_history_bits(2);
        for taken in [true, true, false, true] {
            a.update(5, taken);
        }
        for taken in [false, true, false, true] {
            b.update(5, taken);
        }
        assert_ne!(state_of(&a), state_of(&b), "same low history, different counters");

        // TAGE reads 32 history bits; a difference beyond them is dead.
        let mut a = Tage::new();
        let mut b = Tage::new();
        b.update(9, true);
        b.update(9, true);
        for _ in 0..32 {
            a.update(7, false);
            b.update(7, false);
        }
        a.base = b.base.clone();
        a.tables = b.tables.clone();
        assert_ne!(a.history, b.history);
        assert_eq!(state_of(&a), state_of(&b));
        assert_ne!(a.predictions(), b.predictions(), "statistics are not state");
    }

    #[test]
    fn target_and_return_state_keeps_order() {
        // Way order is LRU order and stale ring slots are served on
        // underflow, so both are state.
        let state = |p: &dyn TargetPredictor| {
            let mut out = Vec::new();
            p.functional_state(&mut out);
            out
        };
        let mut ab = SetAssocBtb::aliasing_2x2();
        let mut ba = SetAssocBtb::aliasing_2x2();
        ab.update(0, BlockId(1));
        ab.update(2, BlockId(2));
        ba.update(2, BlockId(2));
        ba.update(0, BlockId(1));
        assert_ne!(state(&ab), state(&ba));
        let ring = |p: &dyn ReturnPredictor| {
            let mut out = Vec::new();
            p.functional_state(&mut out);
            out
        };
        let mut popped = CyclicRsb::with_capacity(2);
        popped.push(BlockId(4));
        popped.pop_predict();
        assert_ne!(ring(&popped), ring(&CyclicRsb::with_capacity(2)));
        let mut rsb = Rsb::new();
        rsb.push(BlockId(4));
        rsb.pop_predict();
        assert_eq!(ring(&rsb), ring(&Rsb::new()));
    }

    #[test]
    fn predictor_state_renders_canonically() {
        // Ordered maps make the Debug rendering a canonical encoding of the
        // state: two predictors trained to the same contents in different
        // site orders render byte-identically.  (Checkpoint digests hash
        // Debug renderings, so this is a determinism requirement, not a
        // cosmetic one.)
        let mut ascending = BranchPredictor::new();
        let mut descending = BranchPredictor::new();
        for site in 0..64usize {
            ascending.update(site, true);
        }
        for site in (0..64usize).rev() {
            descending.update(site, true);
        }
        // Same per-site state, but the history registers differ by
        // construction order — splice them to equal values before
        // comparing renderings.
        let a = format!("{ascending:?}");
        let d = format!("{descending:?}");
        let strip = |s: &str| {
            // Drop the history field, which legitimately differs.
            s.replace("history: ", "#").to_string()
        };
        let (a, d) = (strip(&a), strip(&d));
        let key_section = |s: &str| s.split("counters: ").nth(1).unwrap().to_string();
        assert_eq!(key_section(&a), key_section(&d), "counter tables must render canonically");

        let mut btb_fwd = Btb::new();
        let mut btb_rev = Btb::new();
        for site in 0..32usize {
            btb_fwd.update(site, BlockId(site % 4));
        }
        for site in (0..32usize).rev() {
            btb_rev.update(site, BlockId(site % 4));
        }
        assert_eq!(format!("{btb_fwd:?}"), format!("{btb_rev:?}"));
    }
}
