//! Handwritten test cases (gadgets) for known speculative vulnerabilities.
//!
//! The paper uses manually written test cases to measure how many random
//! inputs Revizor needs to surface each known vulnerability (Table 5), to
//! illustrate the novel variants (Figures 5 and 6) and to describe the new
//! store-bypass variant found during artifact evaluation (§A.6).  These are
//! the equivalents for the reproduction's ISA; all of them confine their
//! memory accesses to the sandbox exactly like generated test cases do.

use rvz_isa::builder::TestCaseBuilder;
use rvz_isa::{AluOp, Cond, Reg, SandboxLayout, TestCase};

// The Table 5 gadgets and the predictor-zoo gadgets are authored in
// `rvz_gen::scenario` so campaign cells can pin them via
// `GeneratorConfig::with_scenario`; this module re-exports them under the
// historical names alongside the remaining handwritten witnesses.
pub use rvz_gen::scenario::{
    btb_aliasing_v2, deep_rsb_chain, mds_lfb, mds_sb, predictor_state_leak, spectre_v1,
    spectre_v1_1, spectre_v2, spectre_v4, spectre_v5_ret,
};

/// The sandbox-masking constant for a one-page sandbox (`0b111111000000`).
const MASK: i64 = 0b111111000000;

/// LVI-Null: on an MDS-patched part the assisted load transiently forwards
/// zero; the dependent computation mixes the injected zero with other
/// registers, exposing information the contract does not allow.
pub fn lvi_null() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:lvi-null")
        .sandbox(SandboxLayout::two_pages().with_assist_page(1))
        .block("entry", |b| {
            // Assisted load; architectural value comes from the input.
            b.load_disp(Reg::Rbx, Reg::R14, 4096 + 256);
            // Mix the (possibly zero-injected) value with another register.
            b.alu(AluOp::Sub, Reg::Rbx, Reg::Rdx);
            b.neg(Reg::Rbx);
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build()
}

/// The novel V1 latency variant (Figure 5): whether the speculative load
/// lands in the cache depends on the latency of a division feeding it.
pub fn v1_var() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:v1-var")
        .block("entry", |b| {
            b.alu_imm(AluOp::And, Reg::Rdx, 0);
            b.alu_imm(AluOp::Or, Reg::Rcx, 1);
            b.div(Reg::Rcx); // b = variable_latency(a)
            b.cmp_imm(Reg::Rbx, 128);
            b.jcc(Cond::B, "spec", "done");
        })
        .block("spec", |b| {
            // The speculative access mixes the division result with another
            // register, so its address carries data and its issue time
            // carries the division latency — the race of Figure 5.
            b.add(Reg::Rax, Reg::Rbx);
            b.and_imm(Reg::Rax, MASK);
            b.load(Reg::Rsi, Reg::R14, Reg::Rax); // c = array[b]
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// The novel V4 latency variant (§6.3): the store-bypass window races a
/// variable-latency division feeding the bypassing load's dependent access.
pub fn v4_var() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:v4-var")
        .block("entry", |b| {
            // Variable-latency producer.
            b.alu_imm(AluOp::And, Reg::Rdx, 0);
            b.alu_imm(AluOp::Or, Reg::Rcx, 1);
            b.div(Reg::Rcx);
            // Slow store address chain.
            b.mov_imm(Reg::Rbx, 0);
            b.imul_imm(Reg::Rbx, 1);
            b.imul_imm(Reg::Rbx, 1);
            b.and_imm(Reg::Rbx, MASK);
            b.store(Reg::R14, Reg::Rbx, Reg::Rdx);
            // The bypassing load's dependent access also waits for the DIV.
            b.load_disp(Reg::Rsi, Reg::R14, 0);
            b.add(Reg::Rsi, Reg::Rax);
            b.and_imm(Reg::Rsi, MASK);
            b.load(Reg::Rdi, Reg::R14, Reg::Rsi);
            b.exit();
        })
        .build()
}

/// The novel store-bypass variant found during artifact evaluation (§A.6):
/// two consecutive loads from the same address, only one of which bypasses
/// an older store with a slow address, so they transiently return different
/// values; the difference is leaked through a dependent access.
pub fn ssb_double_load() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:ssb-double-load")
        .block("entry", |b| {
            // addr_slow: dynamically computed (slow) copy of addr_fast (0).
            b.mov_imm(Reg::Rax, 0);
            b.imul_imm(Reg::Rax, 1);
            b.imul_imm(Reg::Rax, 1);
            b.imul_imm(Reg::Rax, 1);
            b.and_imm(Reg::Rax, MASK);
            // *addr_slow = new_value (RDX).
            b.store(Reg::R14, Reg::Rax, Reg::Rdx);
            // x1 = *addr_fast  (issues early -> may bypass the store).
            b.load_disp(Reg::Rbx, Reg::R14, 0);
            // x2 = *addr_slow  (waits for the slow chain and a division, so
            // the store has resolved by then and forwards new_value).
            b.alu_imm(AluOp::And, Reg::Rdx, 0);
            b.alu_imm(AluOp::Or, Reg::Rcx, 1);
            b.div(Reg::Rcx);
            b.add_imm(Reg::Rax, 0);
            b.load(Reg::Rsi, Reg::R14, Reg::Rax);
            // y = array[x1 - x2].
            b.sub(Reg::Rbx, Reg::Rsi);
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rdi, Reg::R14, Reg::Rbx);
            b.exit();
        })
        .build()
}

/// Figure 6a: the secret is loaded *non-speculatively* and leaked on a
/// speculative path.  This violates CT-SEQ but **not** ARCH-SEQ, which
/// permits exposure of non-speculatively loaded values (§6.6).
pub fn arch_seq_insensitive() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:fig6a-nonspec-load")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx); // a = array1[b] (architectural)
            b.and_imm(Reg::Rcx, MASK);
            b.cmp_imm(Reg::Rax, 128);
            b.jcc(Cond::B, "spec", "done");
        })
        .block("spec", |b| {
            b.load(Reg::Rdx, Reg::R14, Reg::Rcx); // c = array2[a] (speculative)
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// Figure 6b: both the secret load and its use are speculative — the classic
/// V1 gadget.  This violates CT-SEQ *and* ARCH-SEQ (§6.6).
pub fn arch_seq_sensitive() -> TestCase {
    spectre_v1()
}

/// The §6.4 speculative-store-eviction witness: the mispredicted path
/// contains a store whose address depends on unchecked data.  On a part
/// where speculative stores already modify the cache (Coffee Lake) this
/// violates the CT-COND variant that does not permit speculative stores to
/// leak.
pub fn speculative_store_eviction() -> TestCase {
    TestCaseBuilder::new()
        .origin("gadget:spec-store-eviction")
        .block("entry", |b| {
            b.and_imm(Reg::Rbx, MASK);
            b.cmp_imm(Reg::Rax, 128);
            b.jcc(Cond::B, "store_path", "done");
        })
        .block("store_path", |b| {
            b.store(Reg::R14, Reg::Rbx, Reg::Rcx);
            b.jmp("done");
        })
        .block("done", |b| b.exit())
        .build()
}

/// All Table 5 gadgets with their paper labels, in table order.
pub fn table5_gadgets() -> Vec<(&'static str, TestCase)> {
    vec![
        ("V1", spectre_v1()),
        ("V1.1", spectre_v1_1()),
        ("V2", spectre_v2()),
        ("V4", spectre_v4()),
        ("V5-ret", spectre_v5_ret()),
        ("MDS-LFB", mds_lfb()),
        ("MDS-SB", mds_sb()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_emu::Runner;
    use rvz_gen::InputGenerator;

    #[test]
    fn all_gadgets_are_valid_and_fault_free() {
        let mut gadgets = table5_gadgets();
        gadgets.push(("LVI", lvi_null()));
        gadgets.push(("V1-var", v1_var()));
        gadgets.push(("V4-var", v4_var()));
        gadgets.push(("A.6", ssb_double_load()));
        gadgets.push(("Fig6a", arch_seq_insensitive()));
        gadgets.push(("6.4", speculative_store_eviction()));
        let gen = InputGenerator::new(3);
        for (name, tc) in gadgets {
            assert_eq!(tc.validate(), Ok(()), "{name}");
            for input in gen.generate(&tc, 1, 10) {
                Runner::new(&tc)
                    .run(&input)
                    .unwrap_or_else(|e| panic!("gadget {name} faulted: {e}"));
            }
        }
    }

    #[test]
    fn table5_has_seven_entries_in_paper_order() {
        let names: Vec<&str> = table5_gadgets().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["V1", "V1.1", "V2", "V4", "V5-ret", "MDS-LFB", "MDS-SB"]);
    }

    #[test]
    fn gadget_origins_are_labelled() {
        assert!(spectre_v1().origin().contains("spectre-v1"));
        assert!(mds_lfb().origin().contains("mds"));
        assert!(ssb_double_load().origin().contains("double-load"));
    }

    #[test]
    fn assist_gadgets_use_the_assist_page() {
        assert_eq!(mds_lfb().sandbox().assist_page, Some(1));
        assert_eq!(mds_sb().sandbox().assist_page, Some(1));
        assert_eq!(lvi_null().sandbox().assist_page, Some(1));
        assert_eq!(spectre_v1().sandbox().assist_page, None);
    }

    #[test]
    fn v5_ret_has_call_and_ret() {
        let tc = spectre_v5_ret();
        let has_call = tc
            .blocks()
            .iter()
            .any(|b| matches!(b.terminator, rvz_isa::Terminator::Call { .. }));
        let has_ret =
            tc.blocks().iter().any(|b| matches!(b.terminator, rvz_isa::Terminator::Ret));
        assert!(has_call && has_ret);
    }
}
