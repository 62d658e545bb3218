//! Cache side-channel measurement primitives.
//!
//! The executor records hardware traces by performing a genuine cache attack
//! against the CPU under test, but "in a fully controlled environment"
//! (§5.3).  These types implement the three attacks supported by the paper —
//! Prime+Probe, Flush+Reload and Evict+Reload — against the [`Cache`] model.
//!
//! A channel is built once per measurement session and reused across every
//! repetition of every input: the attacker's address lists are a pure
//! function of the cache geometry (or of the victim sandbox), so they are
//! computed once per geometry and cached inside the channel instead of being
//! rebuilt on each of the `repetitions × inputs` measurements.

use crate::model::{Cache, CacheConfig};
use crate::set_vector::SetVector;

/// Base address of the attacker's probing buffer.  It is disjoint from any
/// victim sandbox address, so attacker lines never alias victim lines.
pub const ATTACKER_BASE: u64 = 0xF000_0000;

/// A cache side channel: prepares the cache before the victim executes and
/// measures the victim's footprint afterwards.
///
/// Channels are stateful so they can cache derived data (attacker address
/// lists, victim line lists) across measurements; [`reset`](SideChannel::reset)
/// clears the measurement state without discarding those caches.
pub trait SideChannel: std::fmt::Debug {
    /// Human-readable name (e.g. `P+P`).
    fn name(&self) -> &'static str;

    /// Prepare the cache before the victim runs.
    fn prepare(&mut self, cache: &mut Cache);

    /// Measure the victim's footprint after it ran, as a [`SetVector`].
    fn measure(&mut self, cache: &mut Cache) -> SetVector;

    /// Forget any in-flight measurement state so the channel can be reused
    /// for a fresh session.  Cached per-geometry data (which is a pure
    /// function of the cache configuration) survives a reset.
    fn reset(&mut self) {}
}

/// Prime+Probe: fill every set with attacker lines, then detect which sets
/// lost at least one attacker line to the victim.
///
/// This is the paper's default threat model; the executor uses the L1D miss
/// counter while re-probing, which is modelled by missing probes of the
/// attacker's lines.
///
/// A measurement pays only for the sets the victim touched.  The channel
/// remembers which sets it left holding exactly its attacker lines in walk
/// order ("steady"); a steady set the cache reports untouched since the
/// channel's previous look ([`Cache::take_touched_sets`]) is still in that
/// layout, so walking it again would hit on every line.  Such sets get that
/// walk's outcome in bulk ([`Cache::prime_resident`] /
/// [`Cache::probe_resident`]); every other set takes the per-set path.  The
/// cache ends up bit-identical to the full sequential walk either way.
#[derive(Debug, Clone, Default)]
pub struct PrimeProbe {
    /// Geometry the cached tag table was built for.
    geometry: Option<CacheConfig>,
    /// Attacker line tags, `ways` consecutive entries per set, in the order
    /// the sequential prime walk would access them.
    tags: Vec<u64>,
    /// Sets left holding exactly their attacker lines, in walk order, at
    /// the channel's last look.
    steady: SetVector,
    /// The cache's token for that look.
    look: u64,
}

impl PrimeProbe {
    /// Create a Prime+Probe channel.
    pub fn new() -> PrimeProbe {
        PrimeProbe::default()
    }

    /// The attacker line covering `(set, way)` of the given geometry.
    pub fn attacker_addr(cfg: CacheConfig, set: usize, way: usize) -> u64 {
        ATTACKER_BASE + ((way * cfg.sets + set) as u64) * cfg.line_size
    }

    /// (Re)build the per-set attacker tag table when the geometry changes.
    fn ensure_geometry(&mut self, cfg: CacheConfig) {
        if self.geometry == Some(cfg) {
            return;
        }
        self.tags.clear();
        self.tags.reserve(cfg.sets * cfg.ways);
        for set in 0..cfg.sets {
            for way in 0..cfg.ways {
                self.tags.push(Self::attacker_addr(cfg, set, way) / cfg.line_size);
            }
        }
        self.geometry = Some(cfg);
    }

    /// Attacker tags of one set, ordered way 0 to way `ways - 1`.
    fn set_tags(&self, cfg: CacheConfig, set: usize) -> &[u64] {
        &self.tags[set * cfg.ways..(set + 1) * cfg.ways]
    }

    /// Steady sets nothing touched since the channel's previous look: they
    /// still hold exactly their attacker lines in walk order.
    fn resident_sets(&mut self, cache: &mut Cache) -> SetVector {
        self.ensure_geometry(cache.config());
        self.steady.difference(cache.take_touched_sets(&mut self.look))
    }
}

impl SideChannel for PrimeProbe {
    fn name(&self) -> &'static str {
        "P+P"
    }

    fn prepare(&mut self, cache: &mut Cache) {
        let cfg = cache.config();
        let resident = self.resident_sets(cache);
        cache.prime_resident(resident);
        // The sequential walk (way-major over all sets) touches each set's
        // lines in way order and never mixes sets, so bulk-filling one set
        // at a time leaves the cache in the identical state.
        let mut steady = resident;
        for set in (0..cfg.sets).filter(|&set| !resident.contains(set)) {
            if cache.prime_set(set, self.set_tags(cfg, set)) && set < SetVector::SETS {
                steady.insert(set);
            }
        }
        self.steady = steady;
    }

    fn measure(&mut self, cache: &mut Cache) -> SetVector {
        let cfg = cache.config();
        let resident = self.resident_sets(cache);
        cache.probe_resident(resident);
        let mut v = SetVector::EMPTY;
        for set in (0..cfg.sets.min(SetVector::SETS)).filter(|&set| !resident.contains(set)) {
            if cache.probe_set(set, self.set_tags(cfg, set)) < cfg.ways {
                v.insert(set);
            }
        }
        // Probing moves no line, but the touched sets' layout is unknown
        // here; the next prime finds out.
        self.steady = resident;
        v
    }

    fn reset(&mut self) {
        self.steady = SetVector::EMPTY;
    }
}

/// Flush+Reload: flush all victim lines before the run, then reload them and
/// record which ones the victim brought back into the cache.
///
/// On a 4 KiB sandbox this produces traces equivalent to Prime+Probe, as
/// noted in §6.1 (64 lines of one page map 1:1 onto the 64 L1D sets).
#[derive(Debug, Clone)]
pub struct FlushReload {
    victim_base: u64,
    victim_len: u64,
    /// Line size the cached victim line list was built for.
    line_size: Option<u64>,
    /// Line-aligned addresses of the monitored victim lines.
    lines: Vec<u64>,
}

impl FlushReload {
    /// Create a Flush+Reload channel monitoring `[victim_base, victim_base + victim_len)`.
    pub fn new(victim_base: u64, victim_len: u64) -> FlushReload {
        FlushReload { victim_base, victim_len, line_size: None, lines: Vec::new() }
    }

    /// (Re)build the victim line list when the line size changes.
    fn ensure_lines(&mut self, cache: &Cache) {
        let line = cache.config().line_size;
        if self.line_size == Some(line) {
            return;
        }
        let first = self.victim_base / line;
        let last = (self.victim_base + self.victim_len).div_ceil(line);
        self.lines.clear();
        self.lines.extend((first..last).map(|l| l * line));
        self.line_size = Some(line);
    }
}

impl SideChannel for FlushReload {
    fn name(&self) -> &'static str {
        "F+R"
    }

    fn prepare(&mut self, cache: &mut Cache) {
        self.ensure_lines(cache);
        for &addr in &self.lines {
            cache.flush(addr);
        }
    }

    fn measure(&mut self, cache: &mut Cache) -> SetVector {
        self.ensure_lines(cache);
        let mut v = SetVector::EMPTY;
        for &addr in &self.lines {
            if cache.is_cached(addr) {
                v.insert(cache.set_of(addr));
            }
        }
        v
    }
}

/// Evict+Reload: like Flush+Reload but evicts the victim lines by walking an
/// eviction set instead of flushing them (useful when `CLFLUSH` is not
/// available to the attacker).
#[derive(Debug, Clone)]
pub struct EvictReload {
    /// Eviction sets: filling every cache set with attacker lines pushes out
    /// any victim line, exactly like a Prime+Probe prepare.
    evict: PrimeProbe,
    inner: FlushReload,
}

impl EvictReload {
    /// Create an Evict+Reload channel monitoring `[victim_base, victim_base + victim_len)`.
    pub fn new(victim_base: u64, victim_len: u64) -> EvictReload {
        EvictReload { evict: PrimeProbe::new(), inner: FlushReload::new(victim_base, victim_len) }
    }
}

impl SideChannel for EvictReload {
    fn name(&self) -> &'static str {
        "E+R"
    }

    fn prepare(&mut self, cache: &mut Cache) {
        self.evict.prepare(cache);
    }

    fn measure(&mut self, cache: &mut Cache) -> SetVector {
        self.inner.measure(cache)
    }

    fn reset(&mut self) {
        self.evict.reset();
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CacheConfig;

    fn victim_touch(cache: &mut Cache, addrs: &[u64]) {
        for &a in addrs {
            cache.access(a);
        }
    }

    #[test]
    fn prime_probe_detects_victim_sets() {
        let mut cache = Cache::new(CacheConfig::l1d());
        let mut pp = PrimeProbe::new();
        pp.prepare(&mut cache);
        // Victim touches lines in sets 0, 4, 5 (addresses inside a 4K page).
        victim_touch(&mut cache, &[0x10_0000, 0x10_0100, 0x10_0140]);
        let v = pp.measure(&mut cache);
        assert!(v.contains(0) && v.contains(4) && v.contains(5));
        assert_eq!(v.count(), 3);
    }

    #[test]
    fn prime_probe_empty_when_victim_idle() {
        let mut cache = Cache::new(CacheConfig::l1d());
        let mut pp = PrimeProbe::new();
        pp.prepare(&mut cache);
        let v = pp.measure(&mut cache);
        assert!(v.is_empty());
    }

    #[test]
    fn prime_probe_survives_geometry_change() {
        // The cached tag table is keyed by geometry; reusing one channel
        // across caches with different shapes must rebuild it.
        let mut pp = PrimeProbe::new();
        let mut big = Cache::new(CacheConfig::l1d());
        pp.prepare(&mut big);
        let mut tiny = Cache::new(CacheConfig::tiny(4, 2));
        pp.prepare(&mut tiny);
        victim_touch(&mut tiny, &[0x40]);
        let v = pp.measure(&mut tiny);
        assert!(v.contains(1));
        assert_eq!(v.count(), 1);
    }

    #[test]
    fn reset_clears_measurement_state_only() {
        let mut cache = Cache::new(CacheConfig::l1d());
        let mut pp = PrimeProbe::new();
        pp.prepare(&mut cache);
        assert_eq!(pp.steady.count(), 64, "a cold prime leaves every set steady");
        let tags = pp.tags.clone();
        pp.reset();
        assert!(pp.steady.is_empty(), "reset forgets the steady sets");
        assert_eq!(pp.geometry, Some(CacheConfig::l1d()), "per-geometry cache survives reset");
        assert_eq!(pp.tags, tags);
        // The channel is immediately reusable.
        pp.prepare(&mut cache);
        victim_touch(&mut cache, &[0x10_0080]);
        assert!(pp.measure(&mut cache).contains(2));
    }

    #[test]
    fn flush_reload_detects_victim_lines() {
        let mut cache = Cache::new(CacheConfig::l1d());
        let base = 0x10_0000;
        let mut fr = FlushReload::new(base, 4096);
        // Warm a victim line, then prepare (flush) removes it.
        cache.access(base + 0x80);
        fr.prepare(&mut cache);
        assert!(fr.measure(&mut cache).is_empty());
        victim_touch(&mut cache, &[base + 0x80, base + 0xc0]);
        let v = fr.measure(&mut cache);
        assert!(v.contains(2) && v.contains(3));
        assert_eq!(v.count(), 2);
    }

    #[test]
    fn evict_reload_matches_flush_reload_on_one_page() {
        let base = 0x10_0000;
        let victim = [base + 0x40, base + 0x800];

        let mut c1 = Cache::new(CacheConfig::l1d());
        let mut fr = FlushReload::new(base, 4096);
        fr.prepare(&mut c1);
        victim_touch(&mut c1, &victim);
        let t1 = fr.measure(&mut c1);

        let mut c2 = Cache::new(CacheConfig::l1d());
        let mut er = EvictReload::new(base, 4096);
        er.prepare(&mut c2);
        victim_touch(&mut c2, &victim);
        let t2 = er.measure(&mut c2);

        assert_eq!(t1, t2, "§6.1: F+R and E+R traces are equivalent on a 4K sandbox");
    }

    #[test]
    fn prime_probe_and_flush_reload_equivalent_on_one_page() {
        // The paper argues the 64 lines of a 4 KiB sandbox map 1:1 onto the
        // 64 L1D sets, so P+P and F+R observe the same thing.
        let base = 0x10_0000u64;
        let victim = [base, base + 0x40 * 7, base + 0x40 * 63];

        let mut c1 = Cache::new(CacheConfig::l1d());
        let mut pp = PrimeProbe::new();
        pp.prepare(&mut c1);
        victim_touch(&mut c1, &victim);
        let t1 = pp.measure(&mut c1);

        let mut c2 = Cache::new(CacheConfig::l1d());
        let mut fr = FlushReload::new(base, 4096);
        fr.prepare(&mut c2);
        victim_touch(&mut c2, &victim);
        let t2 = fr.measure(&mut c2);

        assert_eq!(t1, t2);
    }

    #[test]
    fn channel_names() {
        assert_eq!(PrimeProbe::new().name(), "P+P");
        assert_eq!(FlushReload::new(0, 64).name(), "F+R");
        assert_eq!(EvictReload::new(0, 64).name(), "E+R");
    }
}
