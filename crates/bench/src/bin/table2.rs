//! Regenerates Table 2: description of the experimental setups.
//!
//! The rows come from the shared [`CampaignMatrix`] definition — one row
//! per cell group of the full zoo matrix, in group order — so this table
//! always describes exactly the setups the campaign bins run, including
//! the predictor-zoo targets (9-13) that extend the paper's Table 2.

use revizor::orchestrator::CampaignMatrix;
use rvz_bench::row;

fn main() {
    rvz_bench::cli::parse(&[]);
    println!("Table 2: Description of the experimental setups (1-8 paper, 9-13 predictor zoo)");
    println!();
    let widths = [10, 28, 12, 22, 14, 20, 22];
    println!(
        "{}",
        row(
            &[
                "Target".into(),
                "CPU".into(),
                "ISA subset".into(),
                "Executor mode".into(),
                "#instructions".into(),
                "Predictors".into(),
                "Scenario".into(),
            ],
            &widths
        )
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
    let matrix = CampaignMatrix::table3_zoo(0);
    let mut seen = std::collections::BTreeSet::new();
    for cell in matrix.cells() {
        let t = &cell.target;
        if !seen.insert(t.id) {
            continue;
        }
        let predictors = match t.cpu_config.predictors.label() {
            label if label.is_empty() => "default".to_string(),
            label => label,
        };
        println!(
            "{}",
            row(
                &[
                    format!("Target {}", t.id),
                    t.cpu_config.name.clone(),
                    t.isa.name(),
                    format!("{}", t.mode),
                    format!("{}", t.isa.instruction_count()),
                    predictors,
                    t.scenario.as_ref().map(|s| s.label()).unwrap_or_else(|| "-".into()),
                ],
                &widths
            )
        );
    }
    println!();
    println!(
        "(#instructions is the number of unique catalog entries in this reproduction's ISA; \
         the paper reports 325-719 unique x86 instructions for the corresponding subsets. \
         'default' predictors are the bimodal direction predictor, last-target BTB and \
         16-entry stack RSB; scenario-pinned targets fuzz a fixed gadget family instead \
         of random programs.)"
    );
}
