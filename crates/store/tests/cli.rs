//! The command line of `revizor-query`: one grammar, refusals with exit
//! 2 before the store is opened, and `--help` from the flag table.

#[path = "../../bench/tests/support/mod.rs"]
mod support;

use support::{refused, refuses_misspellings};

const QUERY: &str = env!("CARGO_BIN_EXE_revizor-query");

#[test]
fn revizor_query_refuses_a_misspelled_flag_and_lists_its_flags() {
    refuses_misspellings(&[(
        QUERY,
        &[
            "--store=DIR",
            "--class=LABEL",
            "--target=N",
            "--contract=NAME",
            "--vuln=CLASS",
            "--mnemonic=M",
            "--since-job=JOB",
            "--json",
        ],
    )]);
}

#[test]
fn a_filter_that_does_not_parse_is_refused_not_dropped() {
    refused(QUERY, &["--store=DIR", "--target=abc"], "`--target`");
    refused(QUERY, &["--json"], "--store=DIR");
}
