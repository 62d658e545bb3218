//! The side channels' bulk paths against a plain sequential walk.
//!
//! `PrimeProbe` (and `EvictReload`, which primes through it) skips the sets
//! the victim left alone and leaves their ages pending a bulk rewrite.  Over
//! random interleavings of primes, victim accesses and non-filling loads,
//! probes, flushes (single lines and a Flush+Reload prepare), full flushes,
//! channel resets and clones of the channel-driven caches, every measurement
//! must equal the one a walk over `Cache::access` / `Cache::probe_access`
//! takes, and the cache must stay bit-identical to the walked one: its
//! functional state (tags, line order, LRU ages), and what `is_cached`,
//! `set_tags` and `set_occupancy` report.
//!
//! The functional state is a compact encoding of the settled lines: ages
//! that form the as-walked or all-zero pattern are named, not written.
//! Over random sequences of every path that moves lines or ages, two
//! caches' encodings must be equal exactly when their settled lines are.

use proptest::prelude::*;
use rvz_cache::{Cache, CacheConfig, EvictReload, FlushReload, PrimeProbe, SetVector, SideChannel};

const VICTIM_BASE: u64 = 0x10_0000;
const VICTIM_LEN: u64 = 4096;

/// The geometries under test; the last has more sets than a `SetVector`.
fn geometries() -> [CacheConfig; 4] {
    [
        CacheConfig::l1d(),
        CacheConfig::tiny(4, 2),
        CacheConfig::tiny(2, 4),
        CacheConfig::tiny(128, 2),
    ]
}

/// The attacker's prime walk, one `access` per line.
fn walk_prime(cache: &mut Cache) {
    let cfg = cache.config();
    for way in 0..cfg.ways {
        for set in 0..cfg.sets {
            cache.access(PrimeProbe::attacker_addr(cfg, set, way));
        }
    }
}

/// The attacker's probe walk, one `probe_access` per line.
fn walk_probe(cache: &mut Cache) -> SetVector {
    let cfg = cache.config();
    let mut v = SetVector::EMPTY;
    for set in 0..cfg.sets.min(SetVector::SETS) {
        let hits = (0..cfg.ways)
            .filter(|&way| cache.probe_access(PrimeProbe::attacker_addr(cfg, set, way)))
            .count();
        if hits < cfg.ways {
            v.insert(set);
        }
    }
    v
}

/// Evict+Reload's reload, one `is_cached` per victim line.
fn walk_reload(cache: &Cache) -> SetVector {
    let line = cache.config().line_size;
    (VICTIM_BASE / line..(VICTIM_BASE + VICTIM_LEN) / line)
        .map(|l| l * line)
        .filter(|&addr| cache.is_cached(addr))
        .map(|addr| cache.set_of(addr))
        .collect()
}

/// Flush+Reload's prepare, one `flush` per victim line.
fn walk_flush(cache: &mut Cache) {
    let line = cache.config().line_size;
    for l in VICTIM_BASE / line..(VICTIM_BASE + VICTIM_LEN) / line {
        cache.flush(l * line);
    }
}

fn state(cache: &Cache) -> Vec<u64> {
    let mut out = Vec::new();
    cache.functional_state(&mut out);
    out
}

/// Do the read-only views of `a` and `b` agree, for `addr` and every set?
fn same_view(a: &Cache, b: &Cache, addr: u64) -> bool {
    a.is_cached(addr) == b.is_cached(addr)
        && (0..a.config().sets)
            .all(|s| a.set_tags(s) == b.set_tags(s) && a.set_occupancy(s) == b.set_occupancy(s))
}

/// Number of op kinds [`check`] decodes from `x % OPS`.
const OPS: u64 = 20;

/// An op of the given kind carrying `payload`'s higher bits.
fn op(kind: u64, payload: u64) -> u64 {
    payload - payload % OPS + kind
}

/// An address for a victim access or flush: mostly victim lines spread
/// over every set, sometimes one of the attacker's own lines (or the line
/// just past a set's attacker ways).
fn addr_of(cfg: CacheConfig, x: u64) -> u64 {
    let set = (x >> 8) as usize % cfg.sets;
    if (x >> 4).is_multiple_of(4) {
        PrimeProbe::attacker_addr(cfg, set, (x >> 20) as usize % (cfg.ways + 1))
    } else {
        let lines = (2 * cfg.sets * cfg.ways) as u64;
        VICTIM_BASE + ((x >> 8) % lines) * cfg.line_size + (x >> 40) % cfg.line_size
    }
}

/// Replay `ops` on a channel-driven cache and on a walked one, checking
/// measurements and cache state after every step.
fn check(cfg: CacheConfig, ops: &[u64]) -> Result<(), String> {
    let mut pp = PrimeProbe::new();
    let mut er = EvictReload::new(VICTIM_BASE, VICTIM_LEN);
    let mut fr = FlushReload::new(VICTIM_BASE, VICTIM_LEN);
    let (mut pp_cache, mut pp_ref) = (Cache::new(cfg), Cache::new(cfg));
    let (mut er_cache, mut er_ref) = (Cache::new(cfg), Cache::new(cfg));
    for (step, &x) in ops.iter().enumerate() {
        let caches = [&mut pp_cache, &mut pp_ref, &mut er_cache, &mut er_ref];
        match x % OPS {
            0..=3 => {
                pp.prepare(&mut pp_cache);
                walk_prime(&mut pp_ref);
                er.prepare(&mut er_cache);
                walk_prime(&mut er_ref);
            }
            4..=7 | 14 => caches.into_iter().for_each(|c| {
                c.access(addr_of(cfg, x));
            }),
            8 => caches.into_iter().for_each(|c| {
                c.probe_access(addr_of(cfg, x));
            }),
            9..=11 => {
                prop_assert_eq!(pp.measure(&mut pp_cache), walk_probe(&mut pp_ref));
                prop_assert_eq!(er.measure(&mut er_cache), walk_reload(&er_ref));
            }
            12 | 13 => caches.into_iter().for_each(|c| c.flush(addr_of(cfg, x))),
            15 if (x >> 8).is_multiple_of(2) => caches.into_iter().for_each(Cache::flush_all),
            15 => {
                pp.reset();
                er.reset();
            }
            16 | 17 => {
                pp_cache = pp_cache.clone();
                er_cache = er_cache.clone();
            }
            _ => {
                fr.prepare(&mut pp_cache);
                fr.prepare(&mut er_cache);
                walk_flush(&mut pp_ref);
                walk_flush(&mut er_ref);
            }
        }
        let diverged = |channel| format!("{channel} cache diverged at step {step} ({cfg:?})");
        prop_assert!(state(&pp_cache) == state(&pp_ref), "{}", diverged("P+P"));
        prop_assert!(state(&er_cache) == state(&er_ref), "{}", diverged("E+R"));
        let addr = addr_of(cfg, x);
        prop_assert!(same_view(&pp_cache, &pp_ref, addr), "P+P view diverged at step {step}");
        prop_assert!(same_view(&er_cache, &er_ref, addr), "E+R view diverged at step {step}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_paths_match_the_sequential_walk(ops in proptest::collection::vec(any::<u64>(), 1..80)) {
        for cfg in geometries() {
            check(cfg, &ops)?;
        }
    }
}

#[test]
fn steady_prime_probe_cycles_match_the_sequential_walk() {
    // The common executor cycle: prime, victim run, probe — repeated, so
    // most sets stay steady across measurements and take the bulk path.
    for cfg in geometries() {
        let mut ops = Vec::new();
        for round in 0..20u64 {
            ops.push(op(0, 0)); // prime
            ops.push(op(4, 1 << 4 | (round * 97) << 8)); // victim access
            ops.push(op(9, 0)); // probe
        }
        check(cfg, &ops).unwrap();
    }
}

#[test]
fn flushes_and_clones_of_pending_sets_match_the_sequential_walk() {
    // Back-to-back primes and probes leave steady sets' ages pending.  A
    // Flush+Reload prepare flushes around them, a single flush removes an
    // attacker line from the middle of one (shifting the positions the
    // as-walked ages follow), and a clone must carry the pending ages over.
    let (prime, probe, clone, flush) = (op(0, 0), op(9, 0), op(16, 0), op(18, 0));
    let evict = op(12, 3 << 20); // attacker line: set 0, way 3
    for cfg in geometries() {
        let ops = [
            prime, prime, evict, probe, prime, prime, flush, probe, prime, probe, probe, evict,
            prime, prime, clone, evict, probe, prime, prime, clone, probe, flush, prime,
        ];
        check(cfg, &ops).unwrap();
    }
}

/// Apply one random line- or age-moving op to `cache`, within one set of a
/// small geometry so that two caches often end up alike.  The bulk paths
/// run without their preconditions: the encoding must be canonical for
/// whatever settled lines they leave.
fn apply(cache: &mut Cache, x: u64) {
    let cfg = cache.config();
    let set = (x >> 8) as usize % cfg.sets;
    let line = |way: u64| (way * cfg.sets as u64 + set as u64) * cfg.line_size;
    let way = (x >> 16) % (2 * cfg.ways as u64);
    let tags: Vec<u64> = (0..(x >> 24) % (cfg.ways as u64 + 2))
        .map(|k| cache.tag_of(line(way + k)))
        .collect();
    match x % 8 {
        0 | 1 => {
            cache.access(line(way));
        }
        2 => {
            cache.probe_access(line(way));
        }
        3 => cache.flush(line(way)),
        4 => {
            cache.prime_set(set, &tags);
        }
        5 => {
            cache.probe_set(set, &tags);
        }
        6 => cache.prime_resident(SetVector::from_sets([set])),
        _ => cache.probe_resident(SetVector::from_sets([set])),
    }
}

/// Do `a` and `b` encode alike exactly when their settled lines (tags and
/// ages, in line order, as `Debug` shows them) are equal?
fn encodes_lines_exactly(a: &Cache, b: &Cache) -> Result<bool, String> {
    let same_lines = format!("{a:?}") == format!("{b:?}");
    prop_assert!((state(a) == state(b)) == same_lines, "{:?} vs {:?}", a, b);
    Ok(same_lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn functional_state_is_canonical_and_injective(
        shared in proptest::collection::vec(any::<u64>(), 0..24),
        ops_a in proptest::collection::vec(any::<u64>(), 0..8),
        ops_b in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        for cfg in [CacheConfig::tiny(1, 3), CacheConfig::tiny(2, 2), CacheConfig::tiny(2, 4)] {
            let (mut a, mut b) = (Cache::new(cfg), Cache::new(cfg));
            for &x in &shared {
                apply(&mut a, x);
                apply(&mut b, x);
                prop_assert!(encodes_lines_exactly(&a, &b)?);
            }
            for k in 0..ops_a.len().max(ops_b.len()) {
                ops_a.get(k).into_iter().for_each(|&x| apply(&mut a, x));
                ops_b.get(k).into_iter().for_each(|&x| apply(&mut b, x));
                encodes_lines_exactly(&a, &b)?;
            }
        }
    }
}

#[test]
fn functional_state_names_the_age_pattern_however_it_was_reached() {
    // The same settled lines, once with ages pending a bulk rewrite and
    // once written line by line, encode alike; different ages do not.
    let cfg = CacheConfig::tiny(1, 3);
    let line = |way: u64| way * cfg.line_size;
    let (mut pending, mut written) = (Cache::new(cfg), Cache::new(cfg));
    for c in [&mut pending, &mut written] {
        for way in 0..3 {
            c.access(line(way));
        }
    }
    pending.prime_resident(SetVector::from_sets([0]));
    assert_eq!(state(&pending), state(&written), "as walked");
    pending.probe_resident(SetVector::from_sets([0]));
    for way in 0..3 {
        written.probe_access(line(way));
    }
    assert_eq!(state(&pending), state(&written), "all zero");
    written.access(line(1));
    assert_ne!(state(&pending), state(&written), "listed ages");
    pending.flush(line(0));
    pending.flush(line(2));
    written.flush(line(0));
    written.flush(line(2));
    assert_eq!(format!("{pending:?}"), format!("{written:?}"), "one line of age 0");
    assert_eq!(state(&pending), state(&written));
}
