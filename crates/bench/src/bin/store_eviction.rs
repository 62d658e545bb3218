//! Regenerates §6.4: validating the "stores do not modify the cache until
//! they retire" assumption made by STT and KLEESpectre.
//!
//! The CT-COND contract is modified so that speculative stores are *not*
//! permitted to leak; Skylake complies, Coffee Lake does not (speculative
//! stores already allocate cache lines there).
//!
//! Both contracts run as one *slate* per CPU over the shared detection
//! schedule ([`first_violations_over_seeds`], the same pool `table3` and
//! `contract_sensitivity` drive): each seed's growing input batches are
//! measured once and the hardware traces are checked against CT-COND and
//! CT-COND-NO-SPEC-STORE together.  Plain CT-COND is the built-in control —
//! it permits speculative-store leakage, so it must stay quiet on both CPUs,
//! and the slate provides that column for free.
//!
//! Usage: `cargo run --release -p rvz-bench --bin store_eviction -- [--budget=N]`,
//! where the budget is the most inputs tried per seed.

use revizor::detection::first_violations_over_seeds;
use revizor::gadgets;
use revizor::targets::Target;
use rvz_bench::cli::{self, Flag};
use rvz_bench::{budget_flag, row};
use rvz_executor::MeasurementMode;
use rvz_model::Contract;

const FLAGS: &[Flag] = &[budget_flag("most inputs per seed (default 150)")];

fn main() {
    let max_inputs = cli::parse(FLAGS).get("budget").unwrap_or(150);
    let contracts = vec![Contract::ct_cond(), Contract::ct_cond_no_spec_store()];
    println!(
        "Speculative store eviction (§6.4), contracts: {} (control) / {}",
        contracts[0], contracts[1]
    );
    println!();

    let gadget = gadgets::speculative_store_eviction();
    let cpus: Vec<(&str, Target)> = vec![
        ("Skylake", {
            let mut t = Target::target5();
            t.mode = MeasurementMode::prime_probe();
            t
        }),
        ("Coffee Lake", {
            let mut t = Target::target8();
            t.mode = MeasurementMode::prime_probe();
            t.isa = rvz_isa::IsaSubset::AR_MEM_CB;
            t
        }),
    ];

    let widths = [14, 22, 34];
    println!(
        "{}",
        row(&["CPU".into(), "CT-COND (control)".into(), "CT-COND-NO-SPEC-STORE".into()], &widths)
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
    for (name, target) in cpus {
        let first = first_violations_over_seeds(
            &target,
            &contracts,
            &gadget,
            (0..5u64).map(|s| s * 13 + 3),
            max_inputs,
        );
        let mut line = vec![name.to_string()];
        line.push(match first[0] {
            Some(n) => format!("VIOLATION after {n} inputs (?)"),
            None => "quiet (as expected)".to_string(),
        });
        line.push(match first[1] {
            Some(n) => format!("VIOLATION after {n} inputs (assumption wrong)"),
            None => "no violation (assumption holds)".to_string(),
        });
        println!("{}", row(&line, &widths));
    }

    println!();
    println!(
        "Expected shape (paper): no violation on Skylake; a counterexample on Coffee Lake, \
         showing that speculative stores can modify the cache state before retiring.  The \
         CT-COND control column stays quiet on both CPUs."
    );
}
