//! Random test-case generation with fault-avoidance instrumentation.

use crate::config::GeneratorConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rvz_isa::catalog::InstrForm;
use rvz_isa::{
    AluOp, BasicBlock, BlockId, Cond, Instr, MemOperand, Operand, Reg, SandboxLayout, Terminator,
    TestCase, Width,
};

/// Random test-case generator (§5.1).
///
/// The generation algorithm follows the paper:
/// 1. generate a random DAG of basic blocks;
/// 2. add terminators that realize the DAG;
/// 3. fill the blocks with random instructions from the ISA subset;
/// 4. instrument the result to avoid faults (mask memory addresses into the
///    sandbox, patch division operands);
/// 5. emit the final [`TestCase`].
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    config: GeneratorConfig,
}

impl ProgramGenerator {
    /// Create a generator with the given configuration.
    pub fn new(config: GeneratorConfig) -> ProgramGenerator {
        ProgramGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate a test case deterministically from a seed.
    ///
    /// A configuration pinned to a [`Scenario`](crate::Scenario) returns
    /// the scenario's gadget for every seed — the seed still drives the
    /// per-test-case *input* streams, so scenario cells fuzz inputs rather
    /// than programs.
    pub fn generate(&self, seed: u64) -> TestCase {
        if let Some(tc) = crate::scenario::pinned_test_case(&self.config) {
            return tc;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sandbox = if self.config.sandbox_pages >= 2 {
            SandboxLayout::two_pages()
        } else {
            SandboxLayout::one_page()
        };
        if self.config.randomize_line_offset {
            sandbox = sandbox.with_line_offset(rng.gen_range(0..64));
        }

        let n_blocks = self.config.basic_blocks.max(1);
        let mut blocks: Vec<BasicBlock> = (0..n_blocks).map(|i| BasicBlock::new(BlockId(i))).collect();

        // Step 1+2: DAG structure realized through terminators.
        for (i, block) in blocks.iter_mut().enumerate() {
            block.terminator = if i + 1 == n_blocks {
                Terminator::Exit
            } else if self.config.isa.cb && rng.gen_bool(0.7) {
                let taken = BlockId(rng.gen_range(i + 1..n_blocks));
                let not_taken = BlockId(i + 1);
                let cond = *Cond::ALL.choose(&mut rng).expect("non-empty");
                Terminator::CondJmp { cond, taken, not_taken }
            } else {
                Terminator::Jmp { target: BlockId(rng.gen_range(i + 1..n_blocks)) }
            };
        }

        // Step 3: pick the instruction forms to place, then distribute them.
        let body_specs = self.config.isa.body_specs();
        let mem_specs: Vec<_> = body_specs.iter().filter(|s| s.form.accesses_mem()).collect();
        let mut forms: Vec<InstrForm> = Vec::new();
        if self.config.isa.mem && !mem_specs.is_empty() {
            for _ in 0..self.config.memory_accesses.min(self.config.instructions) {
                forms.push(mem_specs.choose(&mut rng).expect("non-empty").form);
            }
        }
        while forms.len() < self.config.instructions {
            forms.push(body_specs.choose(&mut rng).expect("non-empty").form);
        }
        forms.shuffle(&mut rng);

        for (i, form) in forms.into_iter().enumerate() {
            // The branch-then-load bias steers memory accesses behind the
            // entry block's terminator (see `GeneratorConfig`); the block
            // choice consumes no randomness, so the instruction mix and all
            // operand draws are identical with the bias on or off.  It only
            // applies to subsets that generate conditional branches: without
            // them there is no mispredicted path to place a load behind, and
            // moving accesses out of the always-executed entry block into
            // possibly-skipped successors just *lowers* the access density
            // (measured: it roughly halves LVI-Null detection on Target 8).
            let block = if self.config.branch_then_load_bias
                && self.config.isa.cb
                && n_blocks > 1
                && form.accesses_mem()
            {
                1 + i % (n_blocks - 1)
            } else {
                i % n_blocks
            };
            let mut instrs = Vec::new();
            self.instantiate(form, &sandbox, &mut rng, &mut instrs);
            blocks[block].instrs.extend(instrs);
        }

        let tc = TestCase::new(blocks, sandbox).with_origin(format!(
            "generated seed={seed} isa={} instr={} bb={}",
            self.config.isa,
            self.config.instructions,
            self.config.basic_blocks
        ));
        debug_assert_eq!(tc.validate(), Ok(()));
        tc
    }

    // --- instantiation helpers ------------------------------------------------

    fn reg(&self, rng: &mut SmallRng) -> Reg {
        *self.config.registers.choose(rng).expect("at least one register")
    }

    fn imm(&self, rng: &mut SmallRng) -> i64 {
        match rng.gen_range(0..3) {
            0 => rng.gen_range(0..256),
            1 => rng.gen_range(0..=u32::MAX as i64),
            _ => rng.gen_range(-128..128),
        }
    }

    fn mem_width(&self, rng: &mut SmallRng) -> Width {
        *[Width::Byte, Width::Word, Width::Dword, Width::Qword].choose(rng).expect("non-empty")
    }

    /// Emit the sandbox-masking instrumentation for an address register and
    /// return the resulting memory operand (§5.1 step 4a).
    fn masked_mem(
        &self,
        sandbox: &SandboxLayout,
        rng: &mut SmallRng,
        out: &mut Vec<Instr>,
    ) -> MemOperand {
        let addr_reg = self.reg(rng);
        out.push(Instr::Alu {
            op: AluOp::And,
            dest: Operand::reg(addr_reg),
            src: Operand::imm(sandbox.address_mask() as i64),
            lock: false,
        });
        if sandbox.line_offset != 0 {
            out.push(Instr::Alu {
                op: AluOp::Or,
                dest: Operand::reg(addr_reg),
                src: Operand::imm(sandbox.line_offset as i64),
                lock: false,
            });
        }
        MemOperand::base_index(Reg::R14, addr_reg)
    }

    /// Emit the division-patch instrumentation (§5.1 step 4b): clear `RDX`
    /// and force the divisor to be non-zero, ruling out divide errors and
    /// quotient overflow.
    fn patched_divisor(&self, divisor: Operand, out: &mut Vec<Instr>) -> Operand {
        out.push(Instr::Alu {
            op: AluOp::And,
            dest: Operand::reg(Reg::Rdx),
            src: Operand::imm(0),
            lock: false,
        });
        out.push(Instr::Alu { op: AluOp::Or, dest: divisor, src: Operand::imm(1), lock: false });
        divisor
    }

    fn instantiate(
        &self,
        form: InstrForm,
        sandbox: &SandboxLayout,
        rng: &mut SmallRng,
        out: &mut Vec<Instr>,
    ) {
        match form {
            InstrForm::AluRegReg(op) => out.push(Instr::Alu {
                op,
                dest: Operand::reg(self.reg(rng)),
                src: Operand::reg(self.reg(rng)),
                lock: false,
            }),
            InstrForm::AluRegImm(op) => out.push(Instr::Alu {
                op,
                dest: Operand::reg(self.reg(rng)),
                src: Operand::imm(self.imm(rng)),
                lock: false,
            }),
            InstrForm::AluRegMem(op) => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Alu {
                    op,
                    dest: Operand::reg(self.reg(rng)),
                    src: Operand::mem_w(m, self.mem_width(rng)),
                    lock: false,
                });
            }
            InstrForm::AluMemReg(op) => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Alu {
                    op,
                    dest: Operand::mem_w(m, self.mem_width(rng)),
                    src: Operand::reg_w(self.reg(rng), Width::Byte),
                    lock: rng.gen_bool(0.2),
                });
            }
            InstrForm::AluMemImm(op) => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Alu {
                    op,
                    dest: Operand::mem_w(m, self.mem_width(rng)),
                    src: Operand::imm(rng.gen_range(0..128)),
                    lock: rng.gen_bool(0.2),
                });
            }
            InstrForm::MovRegReg => out.push(Instr::Mov {
                dest: Operand::reg(self.reg(rng)),
                src: Operand::reg(self.reg(rng)),
            }),
            InstrForm::MovRegImm => out.push(Instr::Mov {
                dest: Operand::reg(self.reg(rng)),
                src: Operand::imm(self.imm(rng)),
            }),
            InstrForm::MovRegMem => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Mov {
                    dest: Operand::reg(self.reg(rng)),
                    src: Operand::mem_w(m, self.mem_width(rng)),
                });
            }
            InstrForm::MovMemReg => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Mov {
                    dest: Operand::mem_w(m, self.mem_width(rng)),
                    src: Operand::reg_w(self.reg(rng), Width::Byte),
                });
            }
            InstrForm::MovMemImm => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Mov {
                    dest: Operand::mem_w(m, self.mem_width(rng)),
                    src: Operand::imm(rng.gen_range(0..128)),
                });
            }
            InstrForm::CmovRegReg(cond) => out.push(Instr::Cmov {
                cond,
                dest: self.reg(rng),
                src: Operand::reg(self.reg(rng)),
                width: Width::Qword,
            }),
            InstrForm::CmovRegMem(cond) => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Cmov {
                    cond,
                    dest: self.reg(rng),
                    src: Operand::mem(m),
                    width: Width::Qword,
                });
            }
            InstrForm::SetccReg(cond) => out.push(Instr::Setcc { cond, dest: self.reg(rng) }),
            InstrForm::CmpRegReg => out.push(Instr::Cmp {
                a: Operand::reg(self.reg(rng)),
                b: Operand::reg(self.reg(rng)),
            }),
            InstrForm::CmpRegImm => out.push(Instr::Cmp {
                a: Operand::reg(self.reg(rng)),
                b: Operand::imm(self.imm(rng)),
            }),
            InstrForm::CmpRegMem => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Cmp {
                    a: Operand::reg(self.reg(rng)),
                    b: Operand::mem_w(m, self.mem_width(rng)),
                });
            }
            InstrForm::TestRegReg => out.push(Instr::Test {
                a: Operand::reg(self.reg(rng)),
                b: Operand::reg(self.reg(rng)),
            }),
            InstrForm::TestRegImm => out.push(Instr::Test {
                a: Operand::reg(self.reg(rng)),
                b: Operand::imm(self.imm(rng)),
            }),
            InstrForm::ShiftRegImm(op) => out.push(Instr::Shift {
                op,
                dest: Operand::reg(self.reg(rng)),
                amount: Operand::imm(rng.gen_range(0..64)),
            }),
            InstrForm::UnaryReg(op) => {
                out.push(Instr::Unary { op, dest: Operand::reg(self.reg(rng)) })
            }
            InstrForm::UnaryMem(op) => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Unary { op, dest: Operand::mem_w(m, self.mem_width(rng)) });
            }
            InstrForm::DivReg => {
                let divisor = loop {
                    let r = self.reg(rng);
                    if r != Reg::Rdx {
                        break r;
                    }
                };
                let d = self.patched_divisor(Operand::reg(divisor), out);
                out.push(Instr::Div { src: d });
            }
            InstrForm::DivMem => {
                let m = self.masked_mem(sandbox, rng, out);
                let d = self.patched_divisor(Operand::mem_w(m, Width::Qword), out);
                out.push(Instr::Div { src: d });
            }
            InstrForm::ImulRegReg => out.push(Instr::Imul {
                dest: self.reg(rng),
                src: Operand::reg(self.reg(rng)),
            }),
            InstrForm::ImulRegImm => out.push(Instr::Imul {
                dest: self.reg(rng),
                src: Operand::imm(self.imm(rng)),
            }),
            InstrForm::ImulRegMem => {
                let m = self.masked_mem(sandbox, rng, out);
                out.push(Instr::Imul { dest: self.reg(rng), src: Operand::mem(m) });
            }
            InstrForm::LeaReg => {
                let index = self.reg(rng);
                out.push(Instr::Lea {
                    dest: self.reg(rng),
                    addr: MemOperand::full(Reg::R14, index, 1, rng.gen_range(0..64)),
                });
            }
            InstrForm::BswapReg => out.push(Instr::Bswap { dest: self.reg(rng) }),
            InstrForm::XchgRegReg => out.push(Instr::Xchg {
                dest: self.reg(rng),
                src: Operand::reg(self.reg(rng)),
            }),
            InstrForm::Nop => out.push(Instr::Nop),
            // Terminator forms are handled by the DAG step, not here.
            InstrForm::CondJmp(_)
            | InstrForm::Jmp
            | InstrForm::IndirectJmp
            | InstrForm::Call
            | InstrForm::Ret => out.push(Instr::Nop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_emu::Runner;
    use rvz_isa::{Input, IsaSubset};

    fn gen(cfg: GeneratorConfig) -> ProgramGenerator {
        ProgramGenerator::new(cfg)
    }

    #[test]
    fn generation_is_deterministic() {
        let g = gen(GeneratorConfig::paper_initial());
        assert_eq!(g.generate(123), g.generate(123));
        assert_ne!(g.generate(123), g.generate(124));
    }

    #[test]
    fn generated_test_cases_are_valid() {
        let g = gen(GeneratorConfig::paper_initial().with_basic_blocks(4).with_instructions(20));
        for seed in 0..50 {
            let tc = g.generate(seed);
            assert_eq!(tc.validate(), Ok(()), "seed {seed}");
            assert!(!tc.reachable_blocks().is_empty());
        }
    }

    #[test]
    fn generated_test_cases_never_fault() {
        let cfg = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB_VAR)
            .with_instructions(16)
            .with_basic_blocks(3);
        let g = gen(cfg);
        for seed in 0..30 {
            let tc = g.generate(seed);
            for k in 0..5u64 {
                let mut input = Input::zeroed(tc.sandbox());
                for (ri, r) in Reg::GENERATOR_SET.iter().enumerate() {
                    input.set_reg(*r, seed.wrapping_mul(0x9e37) ^ (k << ri) ^ 0xffff_ffff);
                }
                Runner::new(&tc)
                    .run(&input)
                    .unwrap_or_else(|e| panic!("seed {seed} input {k} faulted: {e}"));
            }
        }
    }

    #[test]
    fn ar_subset_contains_no_memory_or_branches() {
        let g = gen(GeneratorConfig::for_subset(IsaSubset::AR).with_instructions(12));
        for seed in 0..20 {
            let tc = g.generate(seed);
            assert_eq!(tc.memory_access_count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn mem_subset_meets_memory_access_quota() {
        let cfg = GeneratorConfig::for_subset(IsaSubset::AR_MEM).with_instructions(10);
        let quota = cfg.memory_accesses;
        let g = gen(cfg);
        for seed in 0..20 {
            let tc = g.generate(seed);
            assert!(tc.memory_access_count() >= quota, "seed {seed}");
        }
    }

    #[test]
    fn cb_subset_generates_conditional_branches() {
        let g = gen(GeneratorConfig::for_subset(IsaSubset::AR_CB).with_basic_blocks(6));
        let with_branches = (0..20).filter(|&s| g.generate(s).conditional_branch_count() > 0).count();
        assert!(with_branches > 10, "most DAGs should contain conditional branches");
    }

    #[test]
    fn var_subset_generates_divisions() {
        let g = gen(GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB_VAR).with_instructions(40));
        let with_div = (0..20).filter(|&s| g.generate(s).variable_latency_count() > 0).count();
        assert!(with_div > 5, "divisions should appear regularly, got {with_div}");
    }

    #[test]
    fn branch_then_load_bias_keeps_memory_out_of_the_entry_block() {
        let cfg = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB)
            .with_basic_blocks(4)
            .with_instructions(14)
            .with_branch_then_load_bias(true);
        let g = gen(cfg);
        for seed in 0..30 {
            let tc = g.generate(seed);
            let entry = &tc.blocks()[0];
            let entry_mem =
                entry.instrs.iter().filter(|i| i.reads_mem() || i.writes_mem()).count();
            assert_eq!(entry_mem, 0, "seed {seed}: entry block must stay memory-free");
            assert!(tc.memory_access_count() >= g.config().memory_accesses, "seed {seed}");
        }
    }

    #[test]
    fn branch_then_load_bias_is_inert_without_conditional_branches() {
        // No branches, no bias: for branch-free subsets the placement (and
        // everything else) is identical to the unbiased generator.
        let base = GeneratorConfig::for_subset(IsaSubset::AR_MEM)
            .with_basic_blocks(4)
            .with_instructions(14);
        let g_plain = gen(base.clone());
        let g_biased = gen(base.with_branch_then_load_bias(true));
        for seed in 0..10 {
            assert_eq!(g_plain.generate(seed), g_biased.generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn branch_then_load_bias_only_moves_instructions() {
        // The bias must not consume randomness: the same seed yields the
        // same multiset of instructions, just distributed differently.
        let base = GeneratorConfig::for_subset(IsaSubset::AR_MEM_CB)
            .with_basic_blocks(4)
            .with_instructions(14);
        let unbiased = gen(base.clone()).generate(77);
        let biased = gen(base.with_branch_then_load_bias(true)).generate(77);
        let count = |tc: &rvz_isa::TestCase| {
            (tc.instruction_count(), tc.memory_access_count(), tc.conditional_branch_count())
        };
        assert_eq!(count(&unbiased), count(&biased));
        assert_eq!(unbiased.sandbox(), biased.sandbox());
    }

    #[test]
    fn line_offset_is_stable_within_a_test_case() {
        let g = gen(GeneratorConfig::paper_initial());
        let tc = g.generate(99);
        let offset = tc.sandbox().line_offset;
        assert!(offset < 64);
    }

    #[test]
    fn origin_records_seed_and_subset() {
        let g = gen(GeneratorConfig::paper_initial());
        let tc = g.generate(7);
        assert!(tc.origin().contains("seed=7"));
        assert!(tc.origin().contains("AR+MEM+CB"));
    }

    #[test]
    fn figure3_style_listing_renders() {
        let g = gen(GeneratorConfig::paper_initial().with_basic_blocks(3).with_instructions(10));
        let asm = g.generate(11).to_asm();
        assert!(asm.contains(".bb0"));
        assert!(asm.contains("AND"));
    }
}
