//! Job specifications: the submittable form of a [`CampaignMatrix`].
//!
//! A job names its cells by `(target id, contract name)` and carries the
//! scalar matrix parameters; [`JobSpec::to_matrix`] resolves it against the
//! Table 2 targets and the canonical contracts.  The JSON codec is the
//! submit side of the wire protocol (see the crate docs).

use revizor::orchestrator::CampaignMatrix;
use revizor::targets::Target;
use rvz_bench::json::Json;
use rvz_bench::report::{contract_from_name, i64_from_json, i64_to_json};

/// A submittable fuzzing job: the parameters of one [`CampaignMatrix`].
///
/// The defaults mirror [`CampaignMatrix::new`]; every field can be
/// overridden in the submitted JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Matrix seed (verdicts are a pure function of it and the cell list).
    pub seed: u64,
    /// Test-case budget per cell group.
    pub budget: usize,
    /// Test cases per scheduling round (one checkpointable wave unit).
    pub round_size: usize,
    /// Threads that evaluate each unit's matrix run, its own included.
    pub parallelism: usize,
    /// Inputs generated per test case.
    pub inputs_per_test_case: usize,
    /// Generator basic-block count.
    pub basic_blocks: usize,
    /// Generator instruction count.
    pub instructions: usize,
    /// Branch-then-load placement bias (the generator's
    /// `branch_then_load_bias` switch).
    pub branch_then_load_bias: bool,
    /// §5.6 diversity escalation per cell group.
    pub escalation: bool,
    /// Scheduling priority: among jobs with queued work units, higher
    /// drains first (FIFO within a priority).  Does not preempt a *unit*
    /// that already runs; a running job's queued units yield to
    /// higher-priority jobs.
    pub priority: i64,
    /// Owning tenant, stamped by the server from the authenticated token
    /// (never trusted from the submitted document — the front-end
    /// overwrites it).  `None` on open-mode servers; tenantless jobs are
    /// visible to every authenticated client.  Carried in the spec so
    /// ownership survives spool restarts; it never affects verdicts.
    pub tenant: Option<String>,
    /// The matrix cells: `(target id, canonical contract name)`.  Target
    /// ids resolve against [`Target::catalog`] — Table 2 (1-8) plus the
    /// predictor zoo (9-13).
    pub cells: Vec<(u8, String)>,
}

impl JobSpec {
    /// Largest `basic_blocks`: the ceiling `GeneratorConfig::escalate`
    /// stops at.
    pub const MAX_BASIC_BLOCKS: usize = 8;
    /// Largest `instructions`: the ceiling `GeneratorConfig::escalate`
    /// stops at.
    pub const MAX_INSTRUCTIONS: usize = 64;
    /// Largest `inputs_per_test_case`: the ceiling
    /// `GeneratorConfig::escalate` stops at.
    pub const MAX_INPUTS_PER_TEST_CASE: usize = 200;
    /// Largest `round_size`.
    pub const MAX_ROUND_SIZE: usize = 1000;
    /// The fields of the spec's JSON document, as [`JobSpec::to_json`]
    /// writes them.
    const FIELDS: [&'static str; 12] = [
        "tenant",
        "seed",
        "budget",
        "round_size",
        "parallelism",
        "inputs_per_test_case",
        "basic_blocks",
        "instructions",
        "branch_then_load_bias",
        "escalation",
        "priority",
        "cells",
    ];

    /// A job with the default matrix parameters and no cells.
    pub fn new(seed: u64) -> JobSpec {
        JobSpec {
            seed,
            budget: 200,
            round_size: 10,
            parallelism: 1,
            inputs_per_test_case: 20,
            basic_blocks: 4,
            instructions: 14,
            branch_then_load_bias: true,
            escalation: false,
            priority: 0,
            tenant: None,
            cells: Vec::new(),
        }
    }

    /// The full Table 3 job: every target against every CT-* contract.
    pub fn table3(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(seed);
        for target in Target::all() {
            for contract in rvz_model::Contract::table3_contracts() {
                spec.cells.push((target.id, contract.name()));
            }
        }
        spec
    }

    /// Builder: add one `(target id, contract name)` cell.
    pub fn add_cell(mut self, target_id: u8, contract: &str) -> JobSpec {
        self.cells.push((target_id, contract.to_string()));
        self
    }

    /// Builder: set the per-group budget.
    pub fn with_budget(mut self, budget: usize) -> JobSpec {
        self.budget = budget;
        self
    }

    /// Builder: set the scheduling priority (higher drains first).
    pub fn with_priority(mut self, priority: i64) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Builder: set the owning tenant (see [`JobSpec::tenant`]).
    pub fn with_tenant(mut self, tenant: &str) -> JobSpec {
        self.tenant = Some(tenant.to_string());
        self
    }

    /// Resolve the work unit of target group `target` into its
    /// single-group sub-matrix — the matrix a leased unit's worker steps.
    /// Its seeds derive from (matrix seed, target id, index) alone, so the
    /// sub-run is byte-identical to the same group inside an in-process
    /// full-matrix run.
    ///
    /// # Errors
    /// Returns a message when the spec does not resolve or has no cell
    /// group for `target`.
    pub(crate) fn unit_matrix(&self, target: u8) -> Result<CampaignMatrix, String> {
        self.to_matrix()?
            .group_matrices()
            .into_iter()
            .find(|m| m.cells().iter().any(|c| c.target.id == target))
            .ok_or_else(|| format!("spec has no cell group for target {target}"))
    }

    /// Resolve the spec into a runnable matrix.
    ///
    /// Every path to a running job resolves through here (submit, spool
    /// restore, a worker's unit matrix), so this is where the sizes a
    /// client chose are bounded: each sizes threads or buffers of every
    /// wave.
    ///
    /// # Errors
    /// Returns a message for unknown target ids or contract names, or for
    /// a size above its bound, naming the field and the bound.
    pub fn to_matrix(&self) -> Result<CampaignMatrix, String> {
        let bounds = [
            ("round_size", self.round_size, Self::MAX_ROUND_SIZE),
            ("parallelism", self.parallelism, CampaignMatrix::MAX_PARALLELISM),
            ("inputs_per_test_case", self.inputs_per_test_case, Self::MAX_INPUTS_PER_TEST_CASE),
            ("basic_blocks", self.basic_blocks, Self::MAX_BASIC_BLOCKS),
            ("instructions", self.instructions, Self::MAX_INSTRUCTIONS),
        ];
        if let Some((field, value, bound)) = bounds.into_iter().find(|&(_, v, b)| v > b) {
            return Err(format!("spec field `{field}` is {value}, above its bound {bound}"));
        }
        let targets = Target::catalog();
        let mut matrix = CampaignMatrix::new(self.seed)
            .with_budget(self.budget)
            .with_round_size(self.round_size)
            .with_parallelism(self.parallelism)
            .with_inputs_per_test_case(self.inputs_per_test_case)
            .with_generator_size(self.basic_blocks, self.instructions)
            .with_branch_then_load_bias(self.branch_then_load_bias)
            .with_escalation(self.escalation);
        for (target_id, contract_name) in &self.cells {
            let target = targets
                .iter()
                .find(|t| t.id == *target_id)
                .ok_or_else(|| {
                    format!("unknown target id {target_id} (Table 2 has 1-8, the predictor zoo 9-13)")
                })?;
            let contract = contract_from_name(contract_name)
                .ok_or_else(|| format!("unknown contract `{contract_name}`"))?;
            matrix = matrix.add_cell(target.clone(), contract);
        }
        Ok(matrix)
    }

    /// Serialize the spec (the `spec` field of a `submit` request).  The
    /// tenant field is emitted only when set, so tenantless spool records
    /// and submissions keep their pre-auth shape byte-for-byte.
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|(t, c)| Json::obj().field("target", *t).field("contract", c.as_str()))
            .collect();
        let mut doc = Json::obj();
        if let Some(tenant) = &self.tenant {
            doc = doc.field("tenant", tenant.as_str());
        }
        doc.field("seed", self.seed)
            .field("budget", self.budget)
            .field("round_size", self.round_size)
            .field("parallelism", self.parallelism)
            .field("inputs_per_test_case", self.inputs_per_test_case)
            .field("basic_blocks", self.basic_blocks)
            .field("instructions", self.instructions)
            .field("branch_then_load_bias", self.branch_then_load_bias)
            .field("escalation", self.escalation)
            .field("priority", i64_to_json(self.priority))
            .field("cells", Json::Arr(cells))
    }

    /// Deserialize a spec.  Only `seed` and `cells` are required; every
    /// other field falls back to the [`JobSpec::new`] default, so
    /// hand-written submissions stay short.  A field the spec does not
    /// have is refused rather than ignored: a misspelled one would
    /// otherwise run the job with a default the client never asked for.
    ///
    /// # Errors
    /// Returns a message for missing, ill-typed or unknown fields.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        if let Json::Obj(fields) = v {
            if let Some((key, _)) = fields.iter().find(|(k, _)| !Self::FIELDS.contains(&k.as_str())) {
                return Err(format!("spec has an unknown field `{key}`"));
            }
        }
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("spec needs an integer `seed` field")?;
        let mut spec = JobSpec::new(seed);
        let usize_field = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(default),
                Some(n) => n
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("spec field `{key}` is not an integer")),
            }
        };
        spec.budget = usize_field("budget", spec.budget)?;
        spec.round_size = usize_field("round_size", spec.round_size)?;
        spec.parallelism = usize_field("parallelism", spec.parallelism)?;
        spec.inputs_per_test_case =
            usize_field("inputs_per_test_case", spec.inputs_per_test_case)?;
        spec.basic_blocks = usize_field("basic_blocks", spec.basic_blocks)?;
        spec.instructions = usize_field("instructions", spec.instructions)?;
        let bool_field = |key: &str, default: bool| -> Result<bool, String> {
            match v.get(key) {
                None => Ok(default),
                Some(b) => {
                    b.as_bool().ok_or_else(|| format!("spec field `{key}` is not a boolean"))
                }
            }
        };
        spec.branch_then_load_bias =
            bool_field("branch_then_load_bias", spec.branch_then_load_bias)?;
        spec.escalation = bool_field("escalation", spec.escalation)?;
        spec.priority = match v.get("priority") {
            None => 0,
            Some(p) => i64_from_json(p).map_err(|e| format!("spec field `priority`: {e}"))?,
        };
        spec.tenant = match v.get("tenant") {
            None | Some(Json::Null) => None,
            Some(t) => Some(
                t.as_str()
                    .map(str::to_string)
                    .ok_or("spec field `tenant` is not a string")?,
            ),
        };
        let cells = v
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("spec needs a `cells` array")?;
        for (i, cell) in cells.iter().enumerate() {
            let target = cell
                .get("target")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cells[{i}] needs an integer `target`"))?;
            // Reject out-of-range ids here: `as u8` truncation would
            // silently fuzz a *different* target (261 -> 5).
            let target = u8::try_from(target)
                .map_err(|_| format!("cells[{i}]: target id {target} is out of range"))?;
            let contract = cell
                .get("contract")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cells[{i}] needs a string `contract`"))?;
            spec.cells.push((target, contract.to_string()));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_bench::json::parse;

    #[test]
    fn spec_round_trips() {
        for priority in [0i64, 7, -3, i64::MIN] {
            let spec = JobSpec::new(7)
                .with_budget(40)
                .with_priority(priority)
                .add_cell(5, "CT-SEQ")
                .add_cell(5, "CT-BPAS")
                .add_cell(1, "ARCH-SEQ");
            let doc = spec.to_json().render();
            assert_eq!(JobSpec::from_json(&parse(&doc).unwrap()).unwrap(), spec);
            let owned = spec.with_tenant("acme");
            let doc = owned.to_json().render();
            assert_eq!(JobSpec::from_json(&parse(&doc).unwrap()).unwrap(), owned);
        }
    }

    #[test]
    fn unknown_fields_are_refused_by_name() {
        // A retired field (`repetitions`) is refused like a misspelled one.
        for key in ["budegt", "reps", "repetitions"] {
            let doc = format!(r#"{{"seed": 3, "{key}": 50, "cells": []}}"#);
            let err = JobSpec::from_json(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
        // Every field `to_json` writes is one `from_json` reads.
        let doc = JobSpec::table3(1).with_tenant("acme").to_json();
        let Json::Obj(fields) = &doc else { panic!("a spec is an object") };
        assert_eq!(fields.len(), JobSpec::FIELDS.len());
    }

    #[test]
    fn minimal_submission_uses_defaults() {
        let doc = parse(r#"{"seed": 3, "cells": [{"target": 5, "contract": "CT-SEQ"}]}"#).unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.budget, 200);
        assert_eq!(spec.cells, vec![(5, "CT-SEQ".to_string())]);
        assert!(spec.to_matrix().is_ok());
    }

    #[test]
    fn resolution_rejects_unknown_names() {
        assert!(JobSpec::new(1).add_cell(99, "CT-SEQ").to_matrix().is_err());
        assert!(JobSpec::new(1).add_cell(5, "CT-NOPE").to_matrix().is_err());
    }

    #[test]
    fn table3_spec_resolves_to_32_cells() {
        let matrix = JobSpec::table3(30).to_matrix().unwrap();
        assert_eq!(matrix.cells().len(), 32);
    }

    #[test]
    fn zoo_target_ids_resolve() {
        // Predictor-zoo cells are addressable through the same job codec;
        // the resolved targets carry their predictor config and scenario.
        let matrix = JobSpec::new(4)
            .add_cell(9, "CT-SEQ")
            .add_cell(12, "CT-COND-BPAS")
            .to_matrix()
            .unwrap();
        assert_eq!(matrix.cells().len(), 2);
        assert!(matrix.cells()[0].target.cpu_config.name.contains("TAGE"));
        assert!(matrix.cells()[1].target.scenario.is_some());
        assert!(JobSpec::new(4).add_cell(14, "CT-SEQ").to_matrix().is_err());
    }
}
