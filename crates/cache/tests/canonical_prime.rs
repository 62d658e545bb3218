//! A Prime+Probe prime leaves every cache in one canonical state.
//!
//! Two caches with different histories, primed, hold the same `(tag, age)`
//! lines in every set, possibly in different orders.  Over random victim
//! `Cache::access` sequences between each prime and measurement — the only
//! way the simulated CPU reaches the cache — the measurements must agree
//! and every later prime must again leave the same lines, whatever their
//! order.  Evict+Reload primes the same way and reloads instead of
//! probing.  This is why `PrimeProbe::describe_prepared` and
//! `EvictReload::describe_prepared` append nothing.

use proptest::prelude::*;
use rvz_cache::{Cache, CacheConfig, EvictReload, PrimeProbe, SideChannel};

const VICTIM_BASE: u64 = 0x10_0000;

/// The geometries under test; the last has more sets than a `SetVector`.
fn geometries() -> [CacheConfig; 4] {
    [
        CacheConfig::l1d(),
        CacheConfig::tiny(4, 2),
        CacheConfig::tiny(2, 4),
        CacheConfig::tiny(128, 2),
    ]
}

/// A victim line: mostly one of three hot lines per set, so a run mixes
/// hits with misses, and sometimes one of twice as many lines as the cache
/// holds.
fn victim_addr(cfg: CacheConfig, x: u64) -> u64 {
    let lines = if x.is_multiple_of(4) { 2 * cfg.sets * cfg.ways } else { 3 * cfg.sets };
    VICTIM_BASE + (x >> 2) % lines as u64 * cfg.line_size
}

/// A history access: a victim line, or one of the attacker's own lines
/// (which reorders the set the next prime finds it in).
fn history_addr(cfg: CacheConfig, x: u64) -> u64 {
    if x.is_multiple_of(2) {
        victim_addr(cfg, x >> 1)
    } else {
        let set = (x >> 1) as usize % cfg.sets;
        PrimeProbe::attacker_addr(cfg, set, (x >> 20) as usize % cfg.ways)
    }
}

/// The channels whose prepare is a full prime: Prime+Probe, and
/// Evict+Reload monitoring every line [`victim_addr`] can return.
fn priming_channels(cfg: CacheConfig) -> [Box<dyn SideChannel>; 2] {
    let lines = (2 * cfg.sets * cfg.ways).max(3 * cfg.sets) as u64;
    [Box::new(PrimeProbe::new()), Box::new(EvictReload::new(VICTIM_BASE, lines * cfg.line_size))]
}

/// Every set's settled lines, sorted: the lines without their order.
fn lines(cache: &Cache) -> Vec<Vec<(u64, u32)>> {
    let sets = 0..cache.config().sets;
    sets.map(|s| {
        let mut lines = cache.set_lines(s);
        lines.sort_unstable();
        lines
    })
    .collect()
}

/// Does some set hold its lines in a different order in `a` than in `b`?
fn orders_differ(a: &Cache, b: &Cache) -> bool {
    (0..a.config().sets).any(|s| a.set_lines(s) != b.set_lines(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn primed_caches_measure_alike_whatever_their_line_order(
        history_a in proptest::collection::vec(any::<u64>(), 0..48),
        history_b in proptest::collection::vec(any::<u64>(), 0..48),
        rounds in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..64), 1..6),
    ) {
        for cfg in geometries() {
            for (mut pa, mut pb) in priming_channels(cfg).into_iter().zip(priming_channels(cfg)) {
                // Cache `a` holds victim lines before its first prime, so
                // the prime refills every set in walk order.  Cache `b`
                // has a history of victim and attacker lines and then walks
                // every set's attacker lines in reverse, so its prime keeps
                // that reverse order.
                let (mut a, mut b) = (Cache::new(cfg), Cache::new(cfg));
                history_a.iter().for_each(|&x| { a.access(victim_addr(cfg, x)); });
                history_b.iter().for_each(|&x| { b.access(history_addr(cfg, x)); });
                for set in 0..cfg.sets {
                    for way in (0..cfg.ways).rev() {
                        b.access(PrimeProbe::attacker_addr(cfg, set, way));
                    }
                }
                pa.prepare(&mut a);
                pb.prepare(&mut b);
                let name = pa.name();
                prop_assert!(orders_differ(&a, &b), "{name}: the primes leave different line orders");
                prop_assert_eq!(lines(&a), lines(&b));
                for victim in &rounds {
                    for &x in victim {
                        let addr = victim_addr(cfg, x);
                        prop_assert_eq!(a.access(addr), b.access(addr));
                    }
                    prop_assert_eq!(pa.measure(&mut a), pb.measure(&mut b));
                    pa.prepare(&mut a);
                    pb.prepare(&mut b);
                    prop_assert_eq!(lines(&a), lines(&b));
                }
            }
        }
    }
}
