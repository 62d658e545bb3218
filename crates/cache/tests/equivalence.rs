//! The side channels' bulk paths against a plain sequential walk.
//!
//! `PrimeProbe` (and `EvictReload`, which primes through it) skips the sets
//! the victim left alone and rewrites their ages in bulk.  Over random
//! interleavings of primes, victim accesses, probes, flushes, full flushes,
//! counter resets and channel resets, every measurement must equal the one
//! a walk over `Cache::access` / `Cache::probe_access` takes, and the cache
//! must stay bit-identical to the walked one: tags, line order, LRU ages,
//! access and miss counters.

use proptest::prelude::*;
use rvz_cache::{Cache, CacheConfig, EvictReload, PrimeProbe, SetVector, SideChannel};

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
    let (mut pp_cache, mut pp_ref) = (Cache::new(cfg), Cache::new(cfg));
    let (mut er_cache, mut er_ref) = (Cache::new(cfg), Cache::new(cfg));
    for (step, &x) in ops.iter().enumerate() {
        let caches = [&mut pp_cache, &mut pp_ref, &mut er_cache, &mut er_ref];
        match x % 16 {
            0..=3 => {
                pp.prepare(&mut pp_cache);
                walk_prime(&mut pp_ref);
                er.prepare(&mut er_cache);
                walk_prime(&mut er_ref);
            }
            4..=8 => caches.into_iter().for_each(|c| {
                c.access(addr_of(cfg, x));
            }),
            9..=11 => {
                prop_assert_eq!(pp.measure(&mut pp_cache), walk_probe(&mut pp_ref));
                prop_assert_eq!(er.measure(&mut er_cache), walk_reload(&er_ref));
            }
            12 | 13 => caches.into_iter().for_each(|c| c.flush(addr_of(cfg, x))),
            14 => caches.into_iter().for_each(Cache::reset_counters),
            _ if (x >> 8).is_multiple_of(2) => caches.into_iter().for_each(Cache::flush_all),
            _ => {
                pp.reset();
                er.reset();
            }
        }
        prop_assert!(pp_cache == pp_ref, "P+P cache diverged at step {step} ({:?})", cfg);
        prop_assert!(er_cache == er_ref, "E+R cache diverged at step {step} ({:?})", cfg);
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
            ops.push(0); // prime
            ops.push(4 | 1 << 4 | (round * 97) << 8); // victim access
            ops.push(9); // probe
        }
        check(cfg, &ops).unwrap();
    }
}
