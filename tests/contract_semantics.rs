//! Integration tests for contract semantics across crates: the §2.2 worked
//! examples, Definition 1 on a compliant CPU, and the contract hierarchy.

use revizor_suite::prelude::*;
use rvz_isa::Cond;

/// Figure 1 of the paper, masked into the sandbox.
fn figure1() -> TestCase {
    TestCaseBuilder::new()
        .block("entry", |b| {
            b.and_imm(Reg::Rax, 0b111111000000);
            b.load(Reg::Rbx, Reg::R14, Reg::Rax);
            b.cmp_imm(Reg::Rcx, 10);
            b.jcc(Cond::B, "then", "end");
        })
        .block("then", |b| {
            b.and_imm(Reg::Rcx, 0b111111000000);
            b.load(Reg::Rdx, Reg::R14, Reg::Rcx);
            b.jmp("end");
        })
        .block("end", |b| b.exit())
        .build()
}

fn input_xy(tc: &TestCase, x: u64, y: u64) -> Input {
    let mut i = Input::zeroed(tc.sandbox());
    i.set_reg(Reg::Rax, x);
    i.set_reg(Reg::Rcx, y);
    i
}

#[test]
fn section_2_2_example_traces() {
    // With x selecting 0x100 and y = 0x220-style in-bounds value, MEM-COND
    // exposes both the architectural and the speculative access, as in the
    // paper's worked example ctrace = [0x110, 0x220].
    let tc = figure1();
    let input = input_xy(&tc, 0x100, 0x200);
    let cond = ContractModel::new(Contract::mem_cond()).collect_trace(&tc, &input).unwrap();
    let base = tc.sandbox().base;
    assert_eq!(cond.mem_addrs(), vec![base + 0x100, base + 0x200]);

    let seq = ContractModel::new(Contract::mem_seq()).collect_trace(&tc, &input).unwrap();
    assert_eq!(seq.mem_addrs(), vec![base + 0x100]);
}

#[test]
fn mem_seq_counterexample_is_not_a_mem_cond_counterexample() {
    // §2.2: the V1 gadget with two inputs differing only in the speculative
    // access is a counterexample to MEM-SEQ, but not to MEM-COND (whose
    // contract traces already expose the difference).
    let tc = figure1();
    let a = input_xy(&tc, 0x100, 0x200);
    let b = input_xy(&tc, 0x100, 0x300);
    let seq = ContractModel::new(Contract::mem_seq());
    let cond = ContractModel::new(Contract::mem_cond());
    assert_eq!(seq.collect_trace(&tc, &a).unwrap(), seq.collect_trace(&tc, &b).unwrap());
    assert_ne!(cond.collect_trace(&tc, &a).unwrap(), cond.collect_trace(&tc, &b).unwrap());
}

#[test]
fn in_order_cpu_complies_with_ct_seq_on_the_v1_gadget() {
    // Definition 1 on a compliant CPU: an in-order, non-speculative part
    // produces equal hardware traces whenever contract traces are equal.
    let tc = gadgets::spectre_v1();
    let inputs = InputGenerator::new(2).generate(&tc, 3, 30);
    let model = ContractModel::new(Contract::ct_seq());
    let ctraces: Vec<_> = inputs.iter().map(|i| model.collect_trace(&tc, i).unwrap()).collect();
    let cpu = SpecCpu::new(UarchConfig::in_order());
    let mut executor = Executor::new(cpu, ExecutorConfig::fast(MeasurementMode::prime_probe()));
    let htraces = executor.collect_htraces(&tc, &inputs).unwrap();
    let result = Analyzer::new().check(&ctraces, &htraces);
    assert!(!result.has_violation(), "an in-order CPU must comply with CT-SEQ");
}

#[test]
fn speculative_cpu_violates_ct_seq_but_not_ct_cond_on_the_v1_gadget() {
    let tc = gadgets::spectre_v1();
    let target = Target::target5();
    let mk_fuzzer = |contract: Contract| {
        let config = FuzzerConfig::for_target(&target, contract);
        Revizor::new(target.cpu(), config).with_target(target.clone())
    };
    let inputs = InputGenerator::new(2).generate(&tc, 11, 30);

    let outcome = mk_fuzzer(Contract::ct_seq()).test_with_inputs(&tc, &inputs).unwrap();
    assert!(outcome.confirmed_violation.is_some(), "CT-SEQ must be violated");

    let outcome = mk_fuzzer(Contract::ct_cond()).test_with_inputs(&tc, &inputs).unwrap();
    assert!(
        outcome.confirmed_violation.is_none(),
        "CT-COND permits branch-prediction leakage, so the V1 gadget complies"
    );
}

#[test]
fn contract_hierarchy_is_respected_by_trace_lengths() {
    // More permissive contracts expose at least as many observations.
    let tc = figure1();
    let input = input_xy(&tc, 0x140, 0x80);
    let len = |c: Contract| ContractModel::new(c).collect_trace(&tc, &input).unwrap().len();
    assert!(len(Contract::mem_seq()) <= len(Contract::ct_seq()));
    assert!(len(Contract::ct_seq()) <= len(Contract::ct_cond()));
    assert!(len(Contract::ct_cond()) <= len(Contract::ct_cond_bpas()));
    assert!(len(Contract::ct_seq()) <= len(Contract::arch_seq()));
}

#[test]
fn table1_mem_cond_observation_and_execution_clauses() {
    // Table 1: loads and stores expose addresses; conditional jumps execute
    // the inverted condition speculatively; other instructions expose
    // nothing.
    let tc = TestCaseBuilder::new()
        .block("entry", |b| {
            b.mov_imm(Reg::Rax, 0x80);
            b.store_disp(Reg::R14, 0x40, Reg::Rax); // store exposes its address
            b.cmp_imm(Reg::Rbx, 1); // arithmetic exposes nothing
            b.jcc(Cond::E, "taken", "fallthrough");
        })
        .block("taken", |b| {
            b.load_disp(Reg::Rcx, Reg::R14, 0x80);
            b.jmp("end");
        })
        .block("fallthrough", |b| {
            b.load_disp(Reg::Rcx, Reg::R14, 0xc0);
            b.jmp("end");
        })
        .block("end", |b| b.exit())
        .build();
    let input = Input::zeroed(tc.sandbox()); // RBX=0, so the branch is not taken
    let trace = ContractModel::new(Contract::mem_cond()).collect_trace(&tc, &input).unwrap();
    let base = tc.sandbox().base;
    // store, speculative (inverted) path load, then architectural load.
    assert_eq!(trace.mem_addrs(), vec![base + 0x40, base + 0x80, base + 0xc0]);
}
