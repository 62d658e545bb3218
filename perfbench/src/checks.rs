//! Output checks: every failed check counts against the run and makes the
//! benchmark exit nonzero.

use revizor::targets::Target;
use revizor::ViolationReport;
use rvz_bench::json::Json;
use rvz_bench::report::violation_report_from_json;
use rvz_model::ContractModel;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let message = what();
            eprintln!("perfbench: CHECK FAILED: {message}");
            self.failures.push(message);
        }
    }
}

/// FNV-1a over a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A reported violation must reproduce from the report alone: its two
/// inputs give equal contract traces under the reference interpreter.
pub fn violation_reproduces(report: &ViolationReport) -> bool {
    let model = ContractModel::new(report.contract.clone());
    let trace = |i: usize| {
        report
            .inputs
            .get(i)
            .and_then(|input| model.collect_reference(&report.test_case, input).ok())
    };
    match (
        trace(report.violation.input_a),
        trace(report.violation.input_b),
    ) {
        (Some(a), Some(b)) => a.trace == b.trace,
        _ => false,
    }
}

/// What the checks of one matrix's `result.cells` found.
pub struct CellsSummary {
    /// Classic cells (targets 1-8) whose verdict matches the paper's Table 3.
    pub paper_agreement: usize,
    pub found: usize,
}

/// Check one matrix's cells document: full cell count, every found cell's
/// violation reproduces from its report alone, and (when `all_compliant`)
/// no cell found a violation.
pub fn check_cells(
    checks: &mut Checks,
    label: &str,
    cells: &Json,
    expected_cells: usize,
    all_compliant: bool,
) -> CellsSummary {
    let cells = cells.as_array().unwrap_or(&[]);
    checks.check(cells.len() == expected_cells, || {
        format!("{label}: {} cells, expected {expected_cells}", cells.len())
    });
    let mut summary = CellsSummary {
        paper_agreement: 0,
        found: 0,
    };
    for cell in cells {
        let target = cell.get("target").and_then(Json::as_u64).unwrap_or(0);
        let contract = cell.get("contract").and_then(Json::as_str).unwrap_or("?");
        let found = cell.get("found").and_then(Json::as_bool) == Some(true);
        if let Some(t) = Target::all()
            .into_iter()
            .find(|t| u64::from(t.id) == target)
        {
            summary.paper_agreement += usize::from(t.paper_expects_violation(contract) == found);
        }
        if all_compliant {
            checks.check(!found, || {
                format!("{label}: target {target} x {contract} violated")
            });
        }
        if found {
            summary.found += 1;
            let reproduces = cell
                .get("violation")
                .and_then(|v| violation_report_from_json(v).ok())
                .is_some_and(|v| violation_reproduces(&v));
            checks.check(reproduces, || {
                format!("{label}: target {target} x {contract}: violation does not reproduce from its report")
            });
        }
    }
    summary
}
