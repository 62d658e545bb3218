//! Input classes, effectiveness statistics and violation detection.

use rvz_executor::HTrace;
pub use rvz_model::InputClass;
use rvz_model::CTrace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a [`CTrace`] to its class key, which is already a well-mixed
/// 64-bit hash: re-hashing it would cost more than the class lookup.  The
/// traces are the contract model's output, not outside input.
#[derive(Default)]
struct ClassKeyHasher(u64);

impl Hasher for ClassKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Input-effectiveness statistics, reported by the fuzzer to gauge how much
/// of the input generation effort is wasted (§5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffectivenessStats {
    /// Total inputs analyzed.
    pub total_inputs: usize,
    /// Inputs belonging to a class with at least two members.
    pub effective_inputs: usize,
    /// Number of distinct classes.
    pub classes: usize,
    /// Number of singleton (ineffective) classes.
    pub singleton_classes: usize,
}

impl EffectivenessStats {
    /// Accumulate another test case's statistics into this one (field-wise
    /// sums).  Campaign drivers use this to aggregate per-cell totals out
    /// of per-test-case analyses; the sums stay exact integers, so
    /// aggregates survive serialization round trips byte-identically.
    pub fn merge(&mut self, other: &EffectivenessStats) {
        self.total_inputs += other.total_inputs;
        self.effective_inputs += other.effective_inputs;
        self.classes += other.classes;
        self.singleton_classes += other.singleton_classes;
    }

    /// Fraction of inputs that are effective (0.0 when there are no inputs).
    pub fn effectiveness(&self) -> f64 {
        if self.total_inputs == 0 {
            0.0
        } else {
            self.effective_inputs as f64 / self.total_inputs as f64
        }
    }
}

/// A contract counterexample: two inputs with equal contract traces but
/// non-equivalent hardware traces (Definition 1 violated).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Index of the first input.
    pub input_a: usize,
    /// Index of the second input.
    pub input_b: usize,
    /// Hardware trace of the first input.
    pub htrace_a: HTrace,
    /// Hardware trace of the second input.
    pub htrace_b: HTrace,
    /// [`CTrace::digest`] of the shared contract trace.
    pub ctrace_digest: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "contract violation: inputs #{} and #{} share a contract trace", self.input_a, self.input_b)?;
        writeln!(f, "  htrace[{:>3}] = {}", self.input_a, self.htrace_a)?;
        write!(f, "  htrace[{:>3}] = {}", self.input_b, self.htrace_b)
    }
}

/// The outcome of one relational analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisResult {
    /// All detected violations (possibly several per class).
    pub violations: Vec<Violation>,
    /// Input-effectiveness statistics.
    pub stats: EffectivenessStats,
}

impl AnalysisResult {
    /// Did the analysis find at least one violation?
    pub fn has_violation(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The relational analyzer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer {
    /// Report at most one violation per input class (the fuzzer only needs
    /// one counterexample to stop); set to `false` to enumerate all pairs.
    pub first_violation_per_class: bool,
}

impl Analyzer {
    /// Analyzer with the default setting (one violation per class).
    pub fn new() -> Analyzer {
        Analyzer { first_violation_per_class: true }
    }

    /// Group inputs into classes by contract-trace equality, preserving
    /// priming order within each class; classes come in order of first
    /// appearance.  The key is the trace itself (hashed by its class key,
    /// compared observation by observation), so two traces whose keys
    /// collide still form two classes.
    pub fn input_classes(&self, ctraces: &[CTrace]) -> Vec<InputClass> {
        let mut index: HashMap<&CTrace, usize, BuildHasherDefault<ClassKeyHasher>> =
            HashMap::default();
        let mut classes: Vec<InputClass> = Vec::new();
        for (i, ct) in ctraces.iter().enumerate() {
            let class = *index.entry(ct).or_insert_with(|| {
                classes.push(InputClass { members: Vec::new() });
                classes.len() - 1
            });
            classes[class].members.push(i);
        }
        classes
    }

    /// Compute effectiveness statistics for a set of classes.
    pub fn effectiveness(&self, classes: &[InputClass], total_inputs: usize) -> EffectivenessStats {
        let singleton_classes = classes.iter().filter(|c| !c.is_effective()).count();
        let effective_inputs =
            classes.iter().filter(|c| c.is_effective()).map(|c| c.members.len()).sum();
        EffectivenessStats {
            total_inputs,
            effective_inputs,
            classes: classes.len(),
            singleton_classes,
        }
    }

    /// Run the full relational check of Definition 1 on parallel vectors of
    /// contract and hardware traces (index `i` belongs to input `i`).
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn check(&self, ctraces: &[CTrace], htraces: &[HTrace]) -> AnalysisResult {
        assert_eq!(ctraces.len(), htraces.len(), "one hardware trace per contract trace");
        let classes = self.input_classes(ctraces);
        self.check_classes(&classes, htraces, |i| ctraces[i].digest())
    }

    /// [`Analyzer::check`] over classes the caller already grouped (the
    /// contract model's slate pass groups them without building traces):
    /// `classes` partitions the inputs of `htraces` by contract-trace
    /// equality, and `ctrace_digest(i)` is the [`CTrace::digest`] of input
    /// `i`'s trace.  Only a reported violation asks for its digest.
    pub fn check_classes(
        &self,
        classes: &[InputClass],
        htraces: &[HTrace],
        ctrace_digest: impl Fn(usize) -> u64,
    ) -> AnalysisResult {
        let stats = self.effectiveness(classes, htraces.len());
        let mut violations = Vec::new();
        for class in classes.iter().filter(|c| c.is_effective()) {
            'class: for (k, &a) in class.members.iter().enumerate() {
                for &b in &class.members[k + 1..] {
                    if !htraces[a].equivalent(&htraces[b]) {
                        violations.push(Violation {
                            input_a: a,
                            input_b: b,
                            htrace_a: htraces[a],
                            htrace_b: htraces[b],
                            ctrace_digest: ctrace_digest(a),
                        });
                        if self.first_violation_per_class {
                            break 'class;
                        }
                    }
                }
            }
        }
        AnalysisResult { violations, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_cache::SetVector;
    use rvz_model::Observation;

    fn ct(addrs: &[u64]) -> CTrace {
        CTrace::new(addrs.iter().map(|a| Observation::MemAddr(*a)).collect())
    }

    fn ht(sets: &[usize]) -> HTrace {
        HTrace::from_sets(SetVector::from_sets(sets.iter().copied()))
    }

    #[test]
    fn class_members_have_equal_traces() {
        let a = Analyzer::new();
        let traces: Vec<CTrace> = (0..40u64).map(|i| ct(&[i % 7, i % 3])).collect();
        let classes = a.input_classes(&traces);
        assert_eq!(classes.len(), 21, "one class per distinct trace");
        for class in &classes {
            let first = &traces[class.members[0]];
            assert!(class.members.iter().all(|&m| traces[m] == *first));
        }
        let firsts: Vec<usize> = classes.iter().map(|c| c.members[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "first-appearance order");
    }

    /// Random traces over a small alphabet, so that many repeat: lengths
    /// 0..=3, every observation kind, four values per kind.
    fn random_traces(seed: u64, n: usize) -> Vec<CTrace> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        (0..n)
            .map(|_| {
                let len = next() % 4;
                (0..len)
                    .map(|_| {
                        let v = 0x100 * (next() % 4);
                        match next() % 3 {
                            0 => Observation::MemAddr(v),
                            1 => Observation::Pc(v),
                            _ => Observation::LoadValue(v),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn input_classes_match_naive_grouping_by_observations() {
        let a = Analyzer::new();
        for seed in 0..20 {
            let traces = random_traces(seed, 60);
            let mut naive: Vec<Vec<usize>> = Vec::new();
            for (i, t) in traces.iter().enumerate() {
                match naive
                    .iter_mut()
                    .find(|m| traces[m[0]].observations() == t.observations())
                {
                    Some(members) => members.push(i),
                    None => naive.push(vec![i]),
                }
            }
            let classes: Vec<Vec<usize>> =
                a.input_classes(&traces).into_iter().map(|c| c.members).collect();
            assert_eq!(classes, naive, "seed {seed}");
        }
    }

    #[test]
    fn violations_carry_the_digest_of_their_shared_trace() {
        let a = Analyzer { first_violation_per_class: false };
        let traces = random_traces(7, 60);
        let htraces: Vec<HTrace> = (0..traces.len()).map(|i| ht(&[i % 5])).collect();
        let r = a.check(&traces, &htraces);
        assert!(r.violations.len() > 10);
        for v in &r.violations {
            assert_eq!(traces[v.input_a], traces[v.input_b]);
            assert_eq!(v.ctrace_digest, traces[v.input_a].digest());
        }
        let classes = a.input_classes(&traces);
        assert_eq!(a.check_classes(&classes, &htraces, |i| traces[i].digest()), r);
    }

    #[test]
    fn classes_group_by_ctrace() {
        let a = Analyzer::new();
        let classes = a.input_classes(&[ct(&[1]), ct(&[2]), ct(&[1]), ct(&[3]), ct(&[1])]);
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].members, vec![0, 2, 4]);
        assert!(classes[0].is_effective());
        assert!(!classes[1].is_effective());
    }

    #[test]
    fn effectiveness_statistics() {
        let a = Analyzer::new();
        let classes = a.input_classes(&[ct(&[1]), ct(&[2]), ct(&[1]), ct(&[3])]);
        let stats = a.effectiveness(&classes, 4);
        assert_eq!(stats.total_inputs, 4);
        assert_eq!(stats.effective_inputs, 2);
        assert_eq!(stats.classes, 3);
        assert_eq!(stats.singleton_classes, 2);
        assert!((stats.effectiveness() - 0.5).abs() < 1e-9);
        assert_eq!(EffectivenessStats::default().effectiveness(), 0.0);
    }

    #[test]
    fn no_violation_when_htraces_match_within_classes() {
        let a = Analyzer::new();
        let r = a.check(
            &[ct(&[1]), ct(&[1]), ct(&[2]), ct(&[2])],
            &[ht(&[4]), ht(&[4]), ht(&[8]), ht(&[8])],
        );
        assert!(!r.has_violation());
        assert_eq!(r.stats.effective_inputs, 4);
    }

    #[test]
    fn violation_when_htraces_differ_within_a_class() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[1])], &[ht(&[4]), ht(&[9])]);
        assert!(r.has_violation());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!((v.input_a, v.input_b), (0, 1));
        assert!(format!("{v}").contains("contract violation"));
    }

    #[test]
    fn subset_traces_are_equivalent_not_violations() {
        // One input observed with and one without the speculative access
        // (different microarchitectural contexts): subset relation, no
        // violation (§5.5).
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[1])], &[ht(&[4, 6, 13]), ht(&[4, 13])]);
        assert!(!r.has_violation());
    }

    #[test]
    fn no_violation_across_different_classes() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[2])], &[ht(&[4]), ht(&[9])]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.singleton_classes, 2);
    }

    #[test]
    fn singleton_classes_are_skipped() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[2]), ct(&[3])], &[ht(&[1]), ht(&[2]), ht(&[3])]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.effective_inputs, 0);
    }

    #[test]
    fn all_pairs_mode_reports_every_violation() {
        let a = Analyzer { first_violation_per_class: false };
        let r = a.check(
            &[ct(&[1]), ct(&[1]), ct(&[1])],
            &[ht(&[1]), ht(&[2]), ht(&[3])],
        );
        assert_eq!(r.violations.len(), 3);
        let first_only = Analyzer::new().check(
            &[ct(&[1]), ct(&[1]), ct(&[1])],
            &[ht(&[1]), ht(&[2]), ht(&[3])],
        );
        assert_eq!(first_only.violations.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one hardware trace per contract trace")]
    fn mismatched_lengths_panic() {
        Analyzer::new().check(&[ct(&[1])], &[]);
    }

    #[test]
    fn empty_input_set() {
        let r = Analyzer::new().check(&[], &[]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.total_inputs, 0);
    }
}
