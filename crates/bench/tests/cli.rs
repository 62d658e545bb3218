//! The command line of every `rvz-bench` binary: one grammar, refusals
//! with exit 2 before any run, and `--help` from the flag table.

mod support;

use support::{refused, refuses_misspellings};

const TABLE3: &str = env!("CARGO_BIN_EXE_table3");

#[test]
fn every_binary_refuses_a_misspelled_flag_and_lists_its_flags() {
    let budget_threads: &[&str] = &["--budget=N", "--threads=N"];
    refuses_misspellings(&[
        (env!("CARGO_BIN_EXE_table2"), &[]),
        (TABLE3, &["--budget=N", "--json", "--threads=N", "--filter", "--zoo"]),
        (env!("CARGO_BIN_EXE_table4"), budget_threads),
        (env!("CARGO_BIN_EXE_table5"), budget_threads),
        (env!("CARGO_BIN_EXE_figures"), &[]),
        (env!("CARGO_BIN_EXE_contract_sensitivity"), &["--budget=N"]),
        (env!("CARGO_BIN_EXE_store_eviction"), &["--budget=N"]),
        (env!("CARGO_BIN_EXE_fuzzing_speed_report"), &["--budget=N"]),
        (env!("CARGO_BIN_EXE_filter_effectiveness"), &["--budget=N"]),
        (env!("CARGO_BIN_EXE_emu_throughput"), &["--out=PATH", "--programs=N", "--reps=N"]),
        (env!("CARGO_BIN_EXE_codec_bench"), &["--out=PATH", "--iters=N"]),
        (env!("CARGO_BIN_EXE_revizor-analyze"), &["--report=PATH", "--export-demo=PATH"]),
    ]);
}

#[test]
fn table3_refuses_what_the_grammar_does_not_accept() {
    // Above `CampaignMatrix::MAX_PARALLELISM`: refused before any thread starts.
    refused(TABLE3, &["--threads=65", "--budget=1"], "`--threads`");
    refused(TABLE3, &["--threads=two", "--json"], "`--threads`");
    refused(TABLE3, &["--json", "--json"], "`--json` given twice");
    refused(TABLE3, &["300"], "`300`");
    refused(TABLE3, &["--budget"], "`--budget` needs a value");
    refused(TABLE3, &["--json=1"], "`--json` takes no value");
    refused(env!("CARGO_BIN_EXE_revizor-analyze"), &[], "--report=PATH");
}
