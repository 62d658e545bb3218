//! Property-based tests (proptest) on the core invariants of the system:
//! the generator's fault-freedom guarantee, determinism of every pipeline
//! stage, the analyzer's relational properties, and trace algebra.

use proptest::prelude::*;
use revizor_suite::prelude::*;
use rvz_cache::SetVector;
use rvz_model::Observation;

/// The hash-map merge `Executor::merge_samples` replaced, kept as the
/// reference of its property test: count each distinct sample, keep those
/// at the outlier threshold, and fall back to the most frequent sample
/// (ties toward the greater set vector) when none is kept.
fn merge_samples_reference(samples: &[SetVector], outlier_min_count: usize) -> HTrace {
    if samples.is_empty() {
        return HTrace::empty();
    }
    let mut counts: std::collections::HashMap<SetVector, usize> = std::collections::HashMap::new();
    for s in samples {
        *counts.entry(*s).or_insert(0) += 1;
    }
    let threshold = if samples.len() >= outlier_min_count { outlier_min_count } else { 1 };
    let mut kept: Vec<SetVector> =
        counts.iter().filter(|(_, &c)| c >= threshold).map(|(s, _)| *s).collect();
    if kept.is_empty() {
        kept = counts
            .iter()
            .max_by_key(|(s, &c)| (c, *s))
            .map(|(s, _)| vec![*s])
            .unwrap_or_default();
    }
    let mut merged = HTrace::empty();
    for s in kept {
        merged.merge(HTrace::from_sets(s));
    }
    merged
}

fn arb_isa() -> impl Strategy<Value = IsaSubset> {
    prop_oneof![
        Just(IsaSubset::AR),
        Just(IsaSubset::AR_MEM),
        Just(IsaSubset::AR_MEM_VAR),
        Just(IsaSubset::AR_CB),
        Just(IsaSubset::AR_MEM_CB),
        Just(IsaSubset::AR_MEM_CB_VAR),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §5.1 step 4: instrumentation guarantees that generated test cases
    /// never fault, for any seed, any ISA subset and any input.
    #[test]
    fn generated_test_cases_never_fault(
        seed in 0u64..5000,
        input_seed in 0u64..5000,
        isa in arb_isa(),
        instructions in 4usize..24,
        blocks in 1usize..6,
    ) {
        let config = GeneratorConfig::for_subset(isa)
            .with_instructions(instructions)
            .with_basic_blocks(blocks);
        let tc = ProgramGenerator::new(config).generate(seed);
        prop_assert_eq!(tc.validate(), Ok(()));
        let input = InputGenerator::new(4).generate_one(&tc, input_seed);
        prop_assert!(Runner::new(&tc).run(&input).is_ok());
    }

    /// The contract model is a pure function of (test case, input).
    #[test]
    fn contract_traces_are_deterministic(seed in 0u64..2000, input_seed in 0u64..2000) {
        let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(12);
        let tc = ProgramGenerator::new(config).generate(seed);
        let input = InputGenerator::new(2).generate_one(&tc, input_seed);
        let model = ContractModel::new(Contract::ct_cond_bpas());
        let a = model.collect_trace(&tc, &input).unwrap();
        let b = model.collect_trace(&tc, &input).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Weakening the contract (SEQ -> COND -> COND-BPAS) never removes
    /// observations: the SEQ trace observations are a prefix-preserving
    /// subset (here checked as multiset inclusion of memory addresses).
    #[test]
    fn more_permissive_contracts_expose_at_least_as_much(
        seed in 0u64..2000,
        input_seed in 0u64..2000,
    ) {
        let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(12);
        let tc = ProgramGenerator::new(config).generate(seed);
        let input = InputGenerator::new(2).generate_one(&tc, input_seed);
        let seq = ContractModel::new(Contract::ct_seq()).collect_trace(&tc, &input).unwrap();
        let cond = ContractModel::new(Contract::ct_cond()).collect_trace(&tc, &input).unwrap();
        let both = ContractModel::new(Contract::ct_cond_bpas()).collect_trace(&tc, &input).unwrap();
        prop_assert!(seq.len() <= cond.len());
        prop_assert!(cond.len() <= both.len());
        for addr in seq.mem_addrs() {
            prop_assert!(cond.mem_addrs().contains(&addr));
        }
    }

    /// `ContractModel::collect_many` shares one architectural pass across a
    /// whole contract slate; its per-contract traces and execution metadata
    /// must be indistinguishable from independent `collect` runs, for every
    /// Table 3 contract (plus ARCH-SEQ and a nested variant), on arbitrary
    /// generated test cases and inputs.
    #[test]
    fn collect_many_equals_independent_collection(
        seed in 0u64..3000,
        input_seed in 0u64..3000,
        isa in arb_isa(),
        instructions in 4usize..20,
        blocks in 2usize..6,
    ) {
        let config = GeneratorConfig::for_subset(isa)
            .with_instructions(instructions)
            .with_basic_blocks(blocks);
        let tc = ProgramGenerator::new(config).generate(seed);
        let input = InputGenerator::new(2).generate_one(&tc, input_seed);
        let mut contracts = Contract::table3_contracts();
        contracts.push(Contract::arch_seq());
        contracts.push(Contract::ct_cond_bpas().with_nesting(true));
        let shared = ContractModel::collect_many(&contracts, &tc, &input).unwrap();
        prop_assert_eq!(shared.len(), contracts.len());
        for (contract, out) in contracts.iter().zip(shared) {
            let solo = ContractModel::new(contract.clone()).collect(&tc, &input).unwrap();
            prop_assert!(out.trace == solo.trace, "trace mismatch for {}", contract.name());
            prop_assert!(out.info == solo.info, "info mismatch for {}", contract.name());
        }
    }

    /// Outlier filtering is order-independent: the merged trace is a
    /// function of the sample *multiset*, so any reordering of the raw
    /// samples must merge identically (§5.3 — the union and the one-off
    /// discard do not depend on measurement order).
    #[test]
    fn merge_samples_is_order_independent(
        bits in proptest::collection::vec(0u64..64, 1..24),
        min_count in 1usize..4,
        rotation in 0usize..24,
    ) {
        let samples: Vec<SetVector> = bits.iter().map(|&b| SetVector::from_bits(b)).collect();
        let mut cfg = ExecutorConfig::fast(MeasurementMode::prime_probe());
        cfg.outlier_min_count = min_count;
        let ex = Executor::new(SpecCpu::new(UarchConfig::skylake()), cfg);

        let mut reversed = samples.clone();
        reversed.reverse();
        let mut rotated = samples.clone();
        rotated.rotate_left(rotation % samples.len());
        prop_assert_eq!(ex.merge_samples(&samples), ex.merge_samples(&reversed));
        prop_assert_eq!(ex.merge_samples(&samples), ex.merge_samples(&rotated));
    }

    /// The allocation-free merge equals the hash-map reference on random
    /// multisets: drawn from a few distinct set vectors, so counts tie
    /// often, both above the threshold and in the all-below fallback.
    #[test]
    fn merge_samples_matches_the_hash_map_reference(
        bits in proptest::collection::vec(0u64..6, 0..24),
        min_count in 0usize..6,
    ) {
        let samples: Vec<SetVector> =
            bits.iter().map(|&b| SetVector::from_bits(b << 60 | b)).collect();
        let mut cfg = ExecutorConfig::fast(MeasurementMode::prime_probe());
        cfg.outlier_min_count = min_count;
        let ex = Executor::new(SpecCpu::new(UarchConfig::skylake()), cfg);
        prop_assert_eq!(ex.merge_samples(&samples), merge_samples_reference(&samples, min_count));
    }

    /// The merged trace is exactly the union of the samples that survive the
    /// outlier threshold; when every sample is discarded as an outlier, the
    /// most frequent sample survives, so a non-empty input never merges to
    /// zero samples.
    #[test]
    fn merge_samples_is_union_of_kept_samples(
        bits in proptest::collection::vec(0u64..256, 1..32),
    ) {
        let samples: Vec<SetVector> = bits.iter().map(|&b| SetVector::from_bits(b)).collect();
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe());
        let ex = Executor::new(SpecCpu::new(UarchConfig::skylake()), cfg);
        let merged = ex.merge_samples(&samples);
        prop_assert!(merged.samples() >= 1, "non-empty input must keep at least one sample");

        let mut counts = std::collections::BTreeMap::new();
        for s in &samples {
            *counts.entry(*s).or_insert(0usize) += 1;
        }
        let threshold = if samples.len() >= cfg.outlier_min_count { cfg.outlier_min_count } else { 1 };
        let kept: Vec<SetVector> =
            counts.iter().filter(|(_, &c)| c >= threshold).map(|(s, _)| *s).collect();
        if kept.is_empty() {
            // Fallback: the most frequent sample, ties broken by the set
            // vector itself (deterministic, independent of hash order).
            let expected =
                counts.iter().map(|(s, &c)| (c, *s)).max().map(|(_, s)| s).unwrap();
            prop_assert_eq!(merged.sets(), expected);
        } else {
            let mut expected = SetVector::EMPTY;
            for s in &kept {
                expected = expected.union(*s);
            }
            prop_assert_eq!(merged.sets(), expected);
            prop_assert_eq!(merged.samples() as usize, kept.len());
        }
    }

    /// Back-to-back collections on one executor are byte-identical to
    /// fresh executors that start at the same noise-stream position: every
    /// collection starts from power-on state, so a test case's traces never
    /// depend on the test case measured before it, nor on the session it
    /// left behind.
    #[test]
    fn back_to_back_collections_match_fresh_executors(seed in 0u64..400) {
        use rvz_executor::NoiseConfig;
        let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(10);
        let gen = ProgramGenerator::new(config);
        let tc_a = gen.generate(seed);
        let tc_b = gen.generate(seed ^ 0x5555);
        let inputs_a = InputGenerator::new(2).generate(&tc_a, seed, 8);
        let inputs_b = InputGenerator::new(2).generate(&tc_b, !seed, 8);
        let cfg = ExecutorConfig::fast(MeasurementMode::prime_probe())
            .with_repetitions(3)
            .with_noise(NoiseConfig { one_off_probability: 0.1, smi_probability: 0.05, seed });
        let fresh = || Executor::new(SpecCpu::new(UarchConfig::skylake()), cfg);

        let mut shared = fresh();
        let first = shared.collect_htraces(&tc_a, &inputs_a).unwrap();
        let mark = shared.noise_checkpoint();
        let second = shared.collect_htraces(&tc_b, &inputs_b).unwrap();
        prop_assert_eq!(fresh().collect_htraces(&tc_a, &inputs_a).unwrap(), first);
        let mut after_a = fresh();
        after_a.restore_noise_checkpoint(&mark);
        prop_assert_eq!(after_a.collect_htraces(&tc_b, &inputs_b).unwrap(), second);
    }

    /// The CPU under test is deterministic: the same priming sequence
    /// produces the same hardware traces, measurement after measurement.
    #[test]
    fn hardware_traces_are_reproducible(seed in 0u64..1000) {
        let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(10);
        let tc = ProgramGenerator::new(config).generate(seed);
        let inputs = InputGenerator::new(2).generate(&tc, seed, 8);
        let run = || {
            let cpu = SpecCpu::new(UarchConfig::skylake());
            let mut ex = Executor::new(cpu, ExecutorConfig::fast(MeasurementMode::prime_probe()));
            ex.collect_htraces(&tc, &inputs).unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// Relational soundness of the analyzer: violations are only ever
    /// reported between inputs whose contract traces are equal, and no
    /// violation is reported when all hardware traces are identical.
    #[test]
    fn analyzer_reports_only_within_classes(
        ctrace_ids in proptest::collection::vec(0u64..4, 2..40),
        hset in proptest::collection::vec(0usize..8, 2..40),
    ) {
        let n = ctrace_ids.len().min(hset.len());
        let ctraces: Vec<_> =
            ctrace_ids[..n].iter().map(|&i| rvz_model::CTrace::new(vec![Observation::MemAddr(i)])).collect();
        let htraces: Vec<_> =
            hset[..n].iter().map(|&s| HTrace::from_sets(SetVector::from_sets([s]))).collect();
        let result = Analyzer::new().check(&ctraces, &htraces);
        for v in &result.violations {
            prop_assert_eq!(ctraces[v.input_a].clone(), ctraces[v.input_b].clone());
            prop_assert!(!htraces[v.input_a].equivalent(&htraces[v.input_b]));
        }
        let uniform: Vec<_> = (0..n).map(|_| HTrace::from_sets(SetVector::from_sets([1]))).collect();
        prop_assert!(!Analyzer::new().check(&ctraces, &uniform).has_violation());
    }

    /// Set-vector algebra: union is commutative/idempotent and the subset
    /// relation used by the analyzer is consistent with union.
    #[test]
    fn set_vector_algebra(a in any::<u64>(), b in any::<u64>()) {
        let va = SetVector::from_bits(a);
        let vb = SetVector::from_bits(b);
        prop_assert_eq!(va.union(vb), vb.union(va));
        prop_assert_eq!(va.union(va), va);
        prop_assert!(va.is_subset_of(va.union(vb)));
        prop_assert!(vb.is_subset_of(va.union(vb)));
        prop_assert_eq!(va.intersection(vb).union(va), va);
    }

    /// The in-order CPU complies with CT-SEQ on arbitrary generated test
    /// cases: speculation-free hardware cannot leak more than the
    /// architectural trace (the fuzzer-level no-false-positive guarantee).
    #[test]
    fn in_order_cpu_has_no_ct_seq_violations(seed in 0u64..300) {
        let config = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB).with_instructions(10);
        let tc = ProgramGenerator::new(config).generate(seed);
        let inputs = InputGenerator::new(2).generate(&tc, seed ^ 0xabcd, 10);
        let model = ContractModel::new(Contract::ct_seq());
        let ctraces: Result<Vec<_>, _> =
            inputs.iter().map(|i| model.collect_trace(&tc, i)).collect();
        let ctraces = ctraces.unwrap();
        let cpu = SpecCpu::new(UarchConfig::in_order());
        let mut ex = Executor::new(cpu, ExecutorConfig::fast(MeasurementMode::prime_probe()));
        let htraces = ex.collect_htraces(&tc, &inputs).unwrap();
        prop_assert!(!Analyzer::new().check(&ctraces, &htraces).has_violation());
    }
}
