//! The spool: durable job state on disk.
//!
//! One **binary record chain** per job (`<job id>.rvz`): every save appends
//! one self-delimiting [`binfmt`] `KIND_SPOOL_RECORD` frame holding the
//! spec, the lifecycle phase, the job's work units with their latest
//! sub-run [`MatrixCheckpoint`]s and — once finished — the result
//! payload.  Appending is crash-tolerant without a
//! rename per wave: a server killed mid-append leaves a torn tail, and
//! loading simply takes the chain's last *complete* record.  A compaction
//! pass rewrites a chain into one snapshot record (atomically: temp file +
//! rename) whenever a job reaches a terminal phase, the chain grows past
//! [`COMPACT_AFTER`] records, or a restart reloads a multi-record chain.
//!
//! The chain is the only on-disk form of a job; other files in the
//! directory are ignored.  With a retention cap ([`Spool::with_retain`],
//! `revizor-serve --spool-retain=N`) the spool also bounds its growth:
//! once more than `N` terminal (done / cancelled) jobs sit on disk, the
//! oldest terminal records are deleted.
//!
//! On startup the server rescans the directory and re-queues every
//! unfinished job, whose units then resume from their checkpoints with
//! byte-identical verdicts (see [`revizor::orchestrator::MatrixRun`]).

use crate::job::JobSpec;
use revizor::orchestrator::MatrixCheckpoint;
use rvz_bench::binfmt;
use rvz_bench::json::Json;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Chain length at which a non-terminal save compacts instead of
/// appending: long-running jobs keep their spool file at one snapshot
/// plus at most this many incremental records.
pub const COMPACT_AFTER: usize = 64;

/// Lifecycle phase of a job, as seen from its work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// No unit of the job is leased: submitted and not yet picked up, or
    /// handed back (a worker died or stopped, a server restarted) with
    /// units still to run.
    Queued,
    /// At least one unit is leased to a worker (in-process or fleet).
    Running,
    /// Finished; the result payload is available.
    Done,
    /// Cancelled by a client; a terminal state like [`JobPhase::Done`],
    /// with a `{"cancelled": true}` result payload.  A restarted server
    /// keeps the record but never re-runs the job.
    Cancelled,
}

impl JobPhase {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Is this a terminal phase (the job will never run again)?
    pub fn terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled)
    }

    fn from_label(s: &str) -> Option<JobPhase> {
        match s {
            "queued" => Some(JobPhase::Queued),
            "running" => Some(JobPhase::Running),
            "done" => Some(JobPhase::Done),
            "cancelled" => Some(JobPhase::Cancelled),
            _ => None,
        }
    }
}

/// Lifecycle phase of one work unit (one target group of its job's
/// matrix, relocatable across worker hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitPhase {
    /// Waiting in the global unit queue for a worker lease.
    Queued,
    /// Leased to a worker host; ownership is heartbeat-renewed and the
    /// coordinator may steal the unit back if progress stalls.
    Leased,
    /// The unit's sub-run finished; its stored checkpoint is final.
    Done,
}

impl UnitPhase {
    /// Wire/spool label.
    pub fn label(self) -> &'static str {
        match self {
            UnitPhase::Queued => "queued",
            UnitPhase::Leased => "leased",
            UnitPhase::Done => "done",
        }
    }

    fn from_label(s: &str) -> Option<UnitPhase> {
        match s {
            "queued" => Some(UnitPhase::Queued),
            "leased" => Some(UnitPhase::Leased),
            "done" => Some(UnitPhase::Done),
            _ => None,
        }
    }
}

/// One work unit's durable record: the unit's target group, its phase
/// and its last replicated sub-run checkpoint.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// The Table 2 target id whose cell group this unit drives.
    pub target: u8,
    /// Phase at the time of the last save.
    pub phase: UnitPhase,
    /// Last replicated sub-run checkpoint (`None` before the first wave;
    /// the final sub-run checkpoint once the unit is done).
    pub checkpoint: Option<MatrixCheckpoint>,
}

/// One job's durable record.
#[derive(Debug, Clone)]
pub struct SpoolRecord {
    /// Job identifier (also the file stem).
    pub job: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle phase at the time of the last save.
    pub phase: JobPhase,
    /// A full-matrix checkpoint.  Not written by the service, which
    /// records progress per unit (`units`) and writes `None` here;
    /// restore ignores it.  The field still round-trips for other
    /// writers of spool records.
    pub checkpoint: Option<MatrixCheckpoint>,
    /// Per-unit state: the job's durable progress (each unit's checkpoint
    /// is kept on cancellation too, as the record of where it stopped).
    /// The service always writes `Some`; a record without units restores
    /// as a job of fresh units.
    pub units: Option<Vec<UnitRecord>>,
    /// Result payload, when the job is done (or cancelled).
    pub result: Option<Json>,
    /// A cancel arrived while the job was running but had not yet reached
    /// a wave boundary.  Persisted so the cancellation survives a server
    /// kill: a restarted server cancels the job instead of resuming it.
    pub cancel_requested: bool,
}

/// A spool directory.
#[derive(Debug)]
pub struct Spool {
    dir: PathBuf,
    /// Keep at most this many terminal (done / cancelled) job records on
    /// disk; `None` keeps all of them forever.
    retain: Option<usize>,
    /// Records appended to each job's live chain (the compaction trigger).
    chains: Mutex<HashMap<String, usize>>,
    /// Terminal jobs on disk, oldest first (the retention pruning order).
    terminal: Mutex<Vec<String>>,
}

impl Spool {
    /// Open (creating if needed) a spool directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Spool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Spool {
            dir,
            retain: None,
            chains: Mutex::new(HashMap::new()),
            terminal: Mutex::new(Vec::new()),
        })
    }

    /// Cap the number of terminal job records kept on disk (`None` keeps
    /// all).  Once more than `retain` done/cancelled jobs sit in the
    /// spool, the oldest terminal records are deleted at the next
    /// terminal save or [`Spool::load_all`].
    #[must_use]
    pub fn with_retain(mut self, retain: Option<usize>) -> Spool {
        self.retain = retain;
        self
    }

    /// The spool directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A job's binary record-chain path.  Job ids are server-generated
    /// (`[a-z0-9-]` only), so the file name is safe by construction.
    fn chain_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("{job}.rvz"))
    }

    /// Persist one record: append it to the job's binary chain, or —
    /// when the job reached a terminal phase, the chain grew past
    /// [`COMPACT_AFTER`] records, or this is the first record since the
    /// spool opened — compact the chain into one atomically-renamed
    /// snapshot.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn save(&self, record: &SpoolRecord) -> io::Result<()> {
        let frame = record_frame(record);
        // Per-job saves are serialized by the core's per-job persist lock,
        // so the counter can be updated before the write; the lock is held
        // only for the bookkeeping, never across file I/O.
        let snapshot = {
            let mut chains = self.chains.lock().expect("spool chains lock");
            let count = chains.entry(record.job.clone()).or_insert(0);
            let snapshot =
                record.phase.terminal() || *count == 0 || *count >= COMPACT_AFTER;
            *count = if snapshot { 1 } else { *count + 1 };
            snapshot
        };
        if snapshot {
            self.write_snapshot(&record.job, &frame)?;
        } else {
            let mut file =
                fs::OpenOptions::new().append(true).open(self.chain_path(&record.job))?;
            file.write_all(&frame)?;
        }
        if record.phase.terminal() {
            self.note_terminal(&record.job);
            self.prune_terminal();
        }
        Ok(())
    }

    /// Atomically replace a job's chain with one snapshot record.
    fn write_snapshot(&self, job: &str, frame: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{job}.tmp"));
        fs::write(&tmp, frame)?;
        fs::rename(&tmp, self.chain_path(job))
    }

    /// Remember a terminal job for retention pruning (oldest first).
    fn note_terminal(&self, job: &str) {
        let mut terminal = self.terminal.lock().expect("spool terminal lock");
        if !terminal.iter().any(|j| j == job) {
            terminal.push(job.to_string());
        }
    }

    /// Delete the oldest terminal-job records past the retention cap.
    fn prune_terminal(&self) {
        let Some(retain) = self.retain else { return };
        let pruned: Vec<String> = {
            let mut terminal = self.terminal.lock().expect("spool terminal lock");
            let excess = terminal.len().saturating_sub(retain);
            terminal.drain(..excess).collect()
        };
        for job in pruned {
            let _ = fs::remove_file(self.chain_path(&job));
            self.chains.lock().expect("spool chains lock").remove(&job);
            eprintln!("spool: pruned terminal job {job} (past --spool-retain {retain})");
        }
    }

    /// Load every readable record in the spool.  Corrupt chains are
    /// skipped (reported on stderr) rather than failing the whole scan,
    /// and files other than `*.rvz` chains are ignored; a `running` phase
    /// is demoted to `queued` — the server holding it is gone.
    /// Multi-record and torn-tail chains are compacted to one snapshot,
    /// and the retention cap is applied.
    pub fn load_all(&self) -> Vec<SpoolRecord> {
        let mut records = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else { return records };
        let mut chains: Vec<(String, PathBuf)> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|path| path.extension().is_some_and(|e| e == "rvz"))
            .filter_map(|path| Some((path.file_stem()?.to_str()?.to_string(), path)))
            .collect();
        chains.sort();
        for (job, path) in chains {
            match Self::load_chain(&path) {
                Ok((record, compact)) => {
                    // Compaction on restart: collapse multi-record and
                    // torn chains into one clean snapshot.
                    if compact {
                        if let Err(e) = self.write_snapshot(&job, &record_frame(&record)) {
                            eprintln!("spool: could not compact {job}: {e}");
                        }
                    }
                    self.chains.lock().expect("spool chains lock").insert(job.clone(), 1);
                    if record.phase.terminal() {
                        self.note_terminal(&job);
                    }
                    records.push(record);
                }
                Err(e) => eprintln!("spool: skipping {}: {e}", path.display()),
            }
        }
        self.prune_terminal();
        records.retain(|r| {
            self.chains.lock().expect("spool chains lock").contains_key(&r.job)
        });
        records
    }

    /// Read a binary record chain: the last complete record wins.  Returns
    /// the record plus whether the chain deserves compaction (more than
    /// one record, or a torn/corrupt tail).
    fn load_chain(path: &Path) -> Result<(SpoolRecord, bool), String> {
        let data = fs::read(path).map_err(|e| e.to_string())?;
        let mut offset = 0;
        let mut last = None;
        let mut count = 0usize;
        let mut torn = false;
        while offset < data.len() {
            let rest = &data[offset..];
            let total = match binfmt::frame_len(rest) {
                Ok(Some(total)) if total <= rest.len() => total,
                // An incomplete header or body is a torn tail from a
                // mid-append kill: fall back to the last complete record.
                Ok(_) => {
                    torn = true;
                    break;
                }
                Err(e) => {
                    if last.is_none() {
                        return Err(e);
                    }
                    torn = true;
                    break;
                }
            };
            match record_from_frame(&rest[..total]) {
                Ok(record) => {
                    last = Some(record);
                    count += 1;
                }
                Err(e) => {
                    if last.is_none() {
                        return Err(e);
                    }
                    torn = true;
                    break;
                }
            }
            offset += total;
        }
        if torn {
            eprintln!(
                "spool: {} has a torn tail; resuming from its last complete record",
                path.display()
            );
        }
        let record = last.ok_or("empty record chain")?;
        Ok((record, torn || count > 1))
    }
}

/// Apply restart semantics to a loaded record: a `running` job means the
/// previous server died mid-job (re-queue it), and a leased unit's owner
/// died with the server — the lease is void, the unit goes back to the
/// queue and resumes from its last replicated sub-checkpoint.
fn demote_for_restart(mut record: SpoolRecord) -> SpoolRecord {
    if record.phase == JobPhase::Running {
        record.phase = JobPhase::Queued;
    }
    for unit in record.units.iter_mut().flatten() {
        if unit.phase == UnitPhase::Leased {
            unit.phase = UnitPhase::Queued;
        }
    }
    record
}

/// Encode one spool record as a self-delimiting binary frame: routing and
/// lifecycle fields in the meta section, the bulky checkpoints as typed
/// sections (the full-matrix one when set, then one section per unit,
/// empty when the unit has no checkpoint yet).
fn record_frame(record: &SpoolRecord) -> Vec<u8> {
    let meta = Json::obj()
        .field("version", 1u64)
        .field("job", record.job.as_str())
        .field("phase", record.phase.label())
        .field("spec", record.spec.to_json())
        .field(
            "units",
            record.units.as_ref().map(|units| {
                Json::Arr(
                    units
                        .iter()
                        .map(|u| {
                            Json::obj().field("target", u.target).field("phase", u.phase.label())
                        })
                        .collect(),
                )
            }),
        )
        .field("result", record.result.clone())
        .field("cancel_requested", record.cancel_requested);
    let mut frame = binfmt::FrameBuilder::new(binfmt::KIND_SPOOL_RECORD)
        .json_section(binfmt::TAG_META, &meta);
    if let Some(cp) = &record.checkpoint {
        frame = frame.checkpoint_section(binfmt::TAG_CHECKPOINT, cp);
    }
    for unit in record.units.iter().flatten() {
        let mut bytes = Vec::new();
        if let Some(cp) = &unit.checkpoint {
            binfmt::enc_checkpoint(&mut bytes, cp);
        }
        frame = frame.section(binfmt::TAG_UNIT, bytes);
    }
    frame.build()
}

/// Decode one spool record frame (restart demotion applied).
fn record_from_frame(bytes: &[u8]) -> Result<SpoolRecord, String> {
    let frame = binfmt::parse_frame(bytes)?;
    if frame.kind != binfmt::KIND_SPOOL_RECORD {
        return Err(format!("expected a spool record frame, found kind {}", frame.kind));
    }
    let meta = frame.json_section(binfmt::TAG_META, "meta")?;
    let job = meta
        .get("job")
        .and_then(Json::as_str)
        .ok_or("record meta is missing `job`")?
        .to_string();
    let phase = meta
        .get("phase")
        .and_then(Json::as_str)
        .and_then(JobPhase::from_label)
        .ok_or("record meta has a missing or unknown `phase`")?;
    let spec = JobSpec::from_json(meta.get("spec").ok_or("record meta is missing `spec`")?)?;
    let checkpoint = match frame.section(binfmt::TAG_CHECKPOINT) {
        None => None,
        Some(_) => Some(frame.checkpoint_section(binfmt::TAG_CHECKPOINT, "checkpoint")?),
    };
    let units = match meta.get("units") {
        None | Some(Json::Null) => None,
        Some(units) => {
            let units = units.as_array().ok_or("record meta `units` is not an array")?;
            let sections: Vec<&[u8]> = frame.sections(binfmt::TAG_UNIT).collect();
            if sections.len() != units.len() {
                return Err(format!(
                    "record has {} unit checkpoint sections for {} units",
                    sections.len(),
                    units.len()
                ));
            }
            let mut records = Vec::with_capacity(units.len());
            for (i, (u, bytes)) in units.iter().zip(sections).enumerate() {
                let target = u
                    .get("target")
                    .and_then(Json::as_u64)
                    .and_then(|t| u8::try_from(t).ok())
                    .ok_or_else(|| format!("units[{i}] needs a target id"))?;
                let phase = u
                    .get("phase")
                    .and_then(Json::as_str)
                    .and_then(UnitPhase::from_label)
                    .ok_or_else(|| format!("units[{i}] has an unknown phase"))?;
                let checkpoint = if bytes.is_empty() {
                    None
                } else {
                    Some(binfmt::dec_checkpoint(&mut binfmt::Reader::new(bytes))?)
                };
                records.push(UnitRecord { target, phase, checkpoint });
            }
            Some(records)
        }
    };
    let result = match meta.get("result") {
        None | Some(Json::Null) => None,
        Some(r) => Some(r.clone()),
    };
    let cancel_requested =
        meta.get("cancel_requested").and_then(Json::as_bool).unwrap_or(false);
    Ok(demote_for_restart(SpoolRecord {
        job,
        spec,
        phase,
        checkpoint,
        units,
        result,
        cancel_requested,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rvz-spool-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_through_the_spool() {
        let dir = scratch_dir("roundtrip");
        let spool = Spool::open(&dir).unwrap();
        let spec = JobSpec::new(7).with_budget(40).add_cell(5, "CT-SEQ");
        let record = SpoolRecord {
            job: "j-test-1".to_string(),
            spec: spec.clone(),
            phase: JobPhase::Queued,
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: false,
        };
        spool.save(&record).unwrap();
        let loaded = spool.load_all();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].job, "j-test-1");
        assert_eq!(loaded[0].spec, spec);
        assert_eq!(loaded[0].phase, JobPhase::Queued);
        assert!(!loaded[0].cancel_requested);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_records_round_trip_and_leased_units_requeue() {
        let dir = scratch_dir("units");
        let spool = Spool::open(&dir).unwrap();
        let spec = JobSpec::new(7)
            .with_budget(40)
            .add_cell(5, "CT-SEQ")
            .add_cell(1, "CT-SEQ");
        let sub_cp = spec.to_matrix().unwrap().group_matrices()[0].initial_checkpoint();
        let record = SpoolRecord {
            job: "j-test-u".to_string(),
            spec,
            phase: JobPhase::Running,
            checkpoint: None,
            units: Some(vec![
                UnitRecord {
                    target: 5,
                    phase: UnitPhase::Leased,
                    checkpoint: Some(sub_cp.clone()),
                },
                UnitRecord { target: 1, phase: UnitPhase::Done, checkpoint: None },
            ]),
            result: None,
            cancel_requested: false,
        };
        spool.save(&record).unwrap();
        let loaded = spool.load_all().remove(0);
        let units = loaded.units.expect("units survive the round trip");
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].target, 5);
        assert_eq!(
            units[0].phase,
            UnitPhase::Queued,
            "a leased unit's owner died with the server; the lease is void"
        );
        assert_eq!(units[0].checkpoint.as_ref(), Some(&sub_cp));
        assert_eq!(units[1].target, 1);
        assert_eq!(units[1].phase, UnitPhase::Done);
        assert!(units[1].checkpoint.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_state_round_trips_and_stays_terminal() {
        let dir = scratch_dir("cancelled");
        let spool = Spool::open(&dir).unwrap();
        let record = SpoolRecord {
            job: "j-test-3".to_string(),
            spec: JobSpec::new(1).with_priority(-2).add_cell(1, "CT-SEQ"),
            phase: JobPhase::Cancelled,
            checkpoint: None,
            units: None,
            result: Some(Json::obj().field("cancelled", true)),
            cancel_requested: false,
        };
        spool.save(&record).unwrap();
        // A running record whose cancel arrived just before the kill keeps
        // the pending-cancel flag through the restart.
        let pending = SpoolRecord {
            job: "j-test-4".to_string(),
            spec: JobSpec::new(2).add_cell(1, "CT-SEQ"),
            phase: JobPhase::Running,
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: true,
        };
        spool.save(&pending).unwrap();
        let loaded = spool.load_all();
        assert_eq!(loaded.len(), 2);
        let cancelled = loaded.iter().find(|r| r.job == "j-test-3").unwrap();
        assert_eq!(cancelled.phase, JobPhase::Cancelled);
        assert!(cancelled.phase.terminal());
        assert_eq!(cancelled.spec.priority, -2);
        let pending = loaded.iter().find(|r| r.job == "j-test-4").unwrap();
        assert_eq!(pending.phase, JobPhase::Queued, "running demotes to queued");
        assert!(pending.cancel_requested, "the pending cancel must survive the restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_saves_append_and_a_terminal_save_compacts_the_chain() {
        let dir = scratch_dir("chain");
        let spool = Spool::open(&dir).unwrap();
        let spec = JobSpec::new(7).with_budget(40).add_cell(5, "CT-SEQ");
        let cp = spec.to_matrix().unwrap().initial_checkpoint();
        let mut record = SpoolRecord {
            job: "j-chain".to_string(),
            spec,
            phase: JobPhase::Queued,
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: false,
        };
        spool.save(&record).unwrap();
        let snapshot_len = fs::metadata(dir.join("j-chain.rvz")).unwrap().len();
        record.phase = JobPhase::Running;
        record.checkpoint = Some(cp);
        for _ in 0..3 {
            spool.save(&record).unwrap();
        }
        let chain_len = fs::metadata(dir.join("j-chain.rvz")).unwrap().len();
        assert!(chain_len > snapshot_len, "running saves append to the chain");
        record.phase = JobPhase::Done;
        record.result = Some(Json::obj().field("cells", Json::Arr(Vec::new())));
        spool.save(&record).unwrap();
        let compacted_len = fs::metadata(dir.join("j-chain.rvz")).unwrap().len();
        assert!(
            compacted_len < chain_len,
            "a terminal save compacts the chain to one snapshot \
             ({compacted_len} vs {chain_len} bytes)"
        );
        let loaded = spool.load_all();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].phase, JobPhase::Done);
        assert!(loaded[0].result.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_falls_back_to_the_last_complete_record() {
        let dir = scratch_dir("torn");
        let spec = JobSpec::new(7).with_budget(40).add_cell(5, "CT-SEQ");
        let cp = spec.to_matrix().unwrap().initial_checkpoint();
        let mut record = SpoolRecord {
            job: "j-torn".to_string(),
            spec,
            phase: JobPhase::Queued,
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: false,
        };
        {
            let spool = Spool::open(&dir).unwrap();
            spool.save(&record).unwrap();
            record.phase = JobPhase::Running;
            record.checkpoint = Some(cp.clone());
            spool.save(&record).unwrap();
        }
        // A server killed mid-append leaves a torn tail: half a frame.
        let path = dir.join("j-torn.rvz");
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&record_frame(&record)[..17]);
        fs::write(&path, &torn).unwrap();
        let spool = Spool::open(&dir).unwrap();
        let loaded = spool.load_all();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].phase, JobPhase::Queued, "running demotes to queued");
        assert_eq!(loaded[0].checkpoint.as_ref(), Some(&cp));
        // The torn chain was compacted back to one clean snapshot.
        let recompacted = fs::read(&path).unwrap();
        assert!(recompacted.len() < torn.len());
        assert!(Spool::load_chain(&path).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_the_oldest_terminal_records() {
        let dir = scratch_dir("retain");
        let spool = Spool::open(&dir).unwrap().with_retain(Some(1));
        for (i, job) in ["j-old", "j-mid", "j-new"].iter().enumerate() {
            spool
                .save(&SpoolRecord {
                    job: (*job).to_string(),
                    spec: JobSpec::new(i as u64).add_cell(1, "CT-SEQ"),
                    phase: JobPhase::Done,
                    checkpoint: None,
                    units: None,
                    result: Some(Json::obj().field("cells", Json::Arr(Vec::new()))),
                    cancel_requested: false,
                })
                .unwrap();
        }
        // A live (non-terminal) job never counts against the cap.
        spool
            .save(&SpoolRecord {
                job: "j-live".to_string(),
                spec: JobSpec::new(9).add_cell(1, "CT-SEQ"),
                phase: JobPhase::Queued,
                checkpoint: None,
                units: None,
                result: None,
                cancel_requested: false,
            })
            .unwrap();
        assert!(!dir.join("j-old.rvz").exists(), "oldest terminal record pruned");
        assert!(!dir.join("j-mid.rvz").exists());
        assert!(dir.join("j-new.rvz").exists());
        assert!(dir.join("j-live.rvz").exists());
        let jobs: Vec<String> =
            Spool::open(&dir).unwrap().load_all().into_iter().map(|r| r.job).collect();
        assert_eq!(jobs, ["j-live", "j-new"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn running_records_are_requeued_and_corrupt_files_skipped() {
        let dir = scratch_dir("requeue");
        let spool = Spool::open(&dir).unwrap();
        let record = SpoolRecord {
            job: "j-test-2".to_string(),
            spec: JobSpec::new(1).add_cell(1, "CT-SEQ"),
            phase: JobPhase::Running,
            checkpoint: None,
            units: None,
            result: None,
            cancel_requested: false,
        };
        spool.save(&record).unwrap();
        fs::write(dir.join("garbage.rvz"), "not a record chain").unwrap();
        fs::write(dir.join("notes.json"), "{}").unwrap();
        let loaded = spool.load_all();
        assert_eq!(loaded.len(), 1, "corrupt and alien files must be skipped");
        assert_eq!(loaded[0].phase, JobPhase::Queued, "running demotes to queued");
        let _ = fs::remove_dir_all(&dir);
    }
}
