//! Pseudo-random input generation with reduced entropy (§5.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rvz_isa::reg::FlagSet;
use rvz_isa::{Input, Reg, TestCase};

/// Input generator: produces architectural states (registers, flags, sandbox
/// memory) from a 32-bit PRNG.
///
/// The paper deliberately reduces the entropy of the generated values by
/// masking PRNG output bits: with fewer distinct values, several inputs land
/// in the same contract-trace class, which is what makes them usable for
/// relational testing (input *effectiveness*, CH2).  Values are spread at
/// cache-line granularity so that distinct values map to distinct L1D sets
/// and are therefore distinguishable through the side channel.
#[derive(Debug, Clone)]
pub struct InputGenerator {
    entropy_bits: u32,
}

impl InputGenerator {
    /// Create a generator with the given value entropy (in bits).
    pub fn new(entropy_bits: u32) -> InputGenerator {
        InputGenerator { entropy_bits: entropy_bits.clamp(1, 32) }
    }

    /// The configured entropy.
    pub fn entropy_bits(&self) -> u32 {
        self.entropy_bits
    }

    /// Number of distinct values a single register/memory word can take.
    pub fn value_range(&self) -> u64 {
        1u64 << self.entropy_bits
    }

    /// Draw one masked value: `entropy_bits` of randomness, shifted to
    /// cache-line granularity.
    fn value(&self, rng: &mut SmallRng) -> u64 {
        let raw: u32 = rng.gen();
        ((raw as u64) & (self.value_range() - 1)) << 6
    }

    /// Generate one input for the test case's sandbox.
    pub fn generate_one(&self, tc: &TestCase, seed: u64) -> Input {
        let mut input = Input::zeroed(tc.sandbox());
        self.fill(tc, seed, &mut input);
        input
    }

    /// Overwrite `input` with [`InputGenerator::generate_one`]`(tc, seed)`,
    /// keeping its sandbox buffer.
    fn fill(&self, tc: &TestCase, seed: u64, input: &mut Input) {
        let mut rng = SmallRng::seed_from_u64(seed);
        input.seed_id = seed;
        for r in Reg::ALL {
            let v = if r.is_reserved() { 0 } else { self.value(&mut rng) };
            input.set_reg(r, v);
        }
        input.flags = FlagSet::from_bits(rng.gen::<u8>() & 0x1f);
        let sandbox = tc.sandbox();
        input.mem.resize(sandbox.size() as usize, 0);
        let (data, stack) = input.mem.split_at_mut(sandbox.data_size() as usize);
        for word in data.chunks_exact_mut(8) {
            word.copy_from_slice(&self.value(&mut rng).to_le_bytes());
        }
        stack.fill(0);
    }

    /// Generate a batch of `count` inputs; the batch is deterministic in
    /// `seed`.
    pub fn generate(&self, tc: &TestCase, seed: u64, count: usize) -> Vec<Input> {
        let mut batch = Vec::with_capacity(count);
        self.generate_into(tc, seed, count, &mut batch);
        batch
    }

    /// [`InputGenerator::generate`] into an existing batch: `batch` ends up
    /// equal to `generate(tc, seed, count)`, and every input it already
    /// held is regenerated in place, so a batch reused across test cases of
    /// one sandbox layout stops allocating.
    pub fn generate_into(&self, tc: &TestCase, seed: u64, count: usize, batch: &mut Vec<Input>) {
        let seed_of = |k: usize| seed.wrapping_add(k as u64 * 0x9e37_79b9);
        batch.truncate(count);
        for (k, input) in batch.iter_mut().enumerate() {
            self.fill(tc, seed_of(k), input);
        }
        for k in batch.len()..count {
            batch.push(self.generate_one(tc, seed_of(k)));
        }
    }
}

impl Default for InputGenerator {
    fn default() -> Self {
        InputGenerator::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::builder::TestCaseBuilder;
    use std::collections::HashSet;

    fn tc() -> TestCase {
        TestCaseBuilder::new().block("entry", |b| b.exit()).build()
    }

    #[test]
    fn generation_is_deterministic() {
        let g = InputGenerator::new(2);
        let tc = tc();
        assert_eq!(g.generate(&tc, 5, 10), g.generate(&tc, 5, 10));
        assert_ne!(g.generate(&tc, 5, 10), g.generate(&tc, 6, 10));
    }

    #[test]
    fn entropy_limits_distinct_values() {
        let g = InputGenerator::new(2);
        let tc = tc();
        let inputs = g.generate(&tc, 1, 50);
        let mut values = HashSet::new();
        for i in &inputs {
            for r in Reg::ALL {
                values.insert(i.reg(r));
            }
        }
        // 2 bits of entropy -> at most 4 distinct non-reserved values (plus 0
        // for the reserved registers which stay zeroed).
        assert!(values.len() <= 5, "got {} distinct values", values.len());
        for v in values {
            assert_eq!(v % 64, 0, "values are cache-line aligned");
            assert!(v < 4 * 64 || v == 0);
        }
    }

    #[test]
    fn higher_entropy_gives_more_distinct_values() {
        let tc = tc();
        let low: HashSet<u64> = InputGenerator::new(1)
            .generate(&tc, 1, 40)
            .iter()
            .map(|i| i.reg(Reg::Rax))
            .collect();
        let high: HashSet<u64> = InputGenerator::new(6)
            .generate(&tc, 1, 40)
            .iter()
            .map(|i| i.reg(Reg::Rax))
            .collect();
        assert!(high.len() > low.len());
    }

    #[test]
    fn memory_is_initialized_with_masked_values() {
        let g = InputGenerator::new(3);
        let tc = tc();
        let input = g.generate_one(&tc, 9);
        let mut nonzero = 0;
        for w in 0..(tc.sandbox().data_size() as usize / 8) {
            let v = input.read_mem_u64(w * 8);
            assert_eq!(v % 64, 0);
            assert!(v < 8 * 64);
            if v != 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 0, "memory should not be all zeros");
    }

    #[test]
    fn reserved_registers_left_to_the_runtime() {
        let g = InputGenerator::new(4);
        let input = g.generate_one(&tc(), 3);
        assert_eq!(input.reg(Reg::R14), 0);
        assert_eq!(input.reg(Reg::Rsp), 0);
    }

    #[test]
    fn seed_id_recorded() {
        let g = InputGenerator::new(2);
        assert_eq!(g.generate_one(&tc(), 77).seed_id, 77);
    }

    #[test]
    fn entropy_is_clamped() {
        assert_eq!(InputGenerator::new(0).entropy_bits(), 1);
        assert_eq!(InputGenerator::new(64).entropy_bits(), 32);
        assert_eq!(InputGenerator::new(2).value_range(), 4);
    }

    #[test]
    fn batch_count_respected() {
        let g = InputGenerator::default();
        assert_eq!(g.generate(&tc(), 0, 17).len(), 17);
    }

    /// FNV-1a over every field of a batch, in order.
    fn batch_digest(batch: &[Input]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for input in batch {
            for r in input.regs {
                eat(&r.to_le_bytes());
            }
            eat(&[input.flags.bits()]);
            eat(&input.mem);
            eat(&input.seed_id.to_le_bytes());
        }
        h
    }

    /// The generated bytes, pinned: `generate(tc, 0x5eed, 20)` digests for a
    /// one-page and a two-page sandbox.
    #[test]
    fn golden_batches_are_pinned() {
        const ONE_PAGE: u64 = 0xd419_480b_e86c_a140;
        const TWO_PAGES: u64 = 0x62e3_4816_08d6_8b80;
        let g = InputGenerator::new(2);
        let one = TestCaseBuilder::new().block("entry", |b| b.exit()).build();
        let two = TestCaseBuilder::new()
            .sandbox(rvz_isa::SandboxLayout::two_pages())
            .block("entry", |b| b.exit())
            .build();
        assert_eq!(batch_digest(&g.generate(&one, 0x5eed, 20)), ONE_PAGE);
        assert_eq!(batch_digest(&g.generate(&two, 0x5eed, 20)), TWO_PAGES);

        // Regenerated in place over a batch of another length and sandbox
        // layout, the batch is byte-for-byte the fresh one.
        let mut batch = g.generate(&two, 7, 25);
        g.generate_into(&one, 0x5eed, 20, &mut batch);
        assert_eq!(batch_digest(&batch), ONE_PAGE);
        g.generate_into(&two, 0x5eed, 20, &mut batch);
        assert_eq!(batch_digest(&batch), TWO_PAGES);
        let mut short = g.generate(&one, 7, 3);
        g.generate_into(&two, 0x5eed, 20, &mut short);
        assert_eq!(short, g.generate(&two, 0x5eed, 20));
    }
}
