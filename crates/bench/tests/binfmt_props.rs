//! Binary wire-format properties: arbitrary checkpoints and transfer
//! frames survive encode → decode byte-identically, and truncated or
//! bit-flipped frames
//! yield clean errors — never panics, never a silently-wrong checkpoint
//! accepted past its digest.

use proptest::prelude::*;
use revizor::diversity::PatternCoverage;
use revizor::orchestrator::{CellProgress, GroupProgress, MatrixCheckpoint};
use revizor::EffectivenessStats;
use rvz_bench::binfmt::{
    checkpoint_transfer_from_binary, checkpoint_transfer_to_binary, frame_len, parse_frame,
    HEADER_LEN,
};
use rvz_bench::json::Json;
use rvz_bench::report::DecodeError;
use rvz_isa::BlockId;
use rvz_uarch::{BranchPredictor, Btb, DirectionPredictor, TargetPredictor};
use std::time::Duration;

/// Frame `cp` as a wave transfer of job `j` (the checkpoint frame the
/// fleet wire moves).
fn transfer_frame(cp: &MatrixCheckpoint) -> Vec<u8> {
    checkpoint_transfer_to_binary("j", cp, &Json::obj().field("op", "wave"))
}

/// Decode a frame written by [`transfer_frame`] back to its checkpoint.
fn transfer_checkpoint(frame: &[u8]) -> Result<MatrixCheckpoint, DecodeError> {
    checkpoint_transfer_from_binary(frame).map(|d| d.transfer.checkpoint)
}

/// A synthetic checkpoint exercising the codec's full shape from raw
/// bits (the same generator as the service's protocol tests;
/// violation-carrying cells are covered by the real-run round trips in
/// `rvz_bench::binfmt`'s unit tests).
fn checkpoint_from(scalars: [u64; 4], groups: &[(u8, u64)], cells: &[u64]) -> MatrixCheckpoint {
    MatrixCheckpoint {
        wave: (scalars[0] % 1000) as usize,
        seed: scalars[1],
        budget: (scalars[2] & 0xFFFF) as usize,
        round_size: (scalars[2] >> 16 & 0xFF) as usize,
        escalation: scalars[2] & (1 << 63) != 0,
        config_digest: scalars[3],
        cells: cells
            .iter()
            .map(|&c| {
                (c & 1 == 1).then(|| CellProgress {
                    violation: None,
                    test_cases: (c >> 1 & 0xFFFF) as usize,
                    filtered: (c >> 40 & 0xFF) as usize,
                    total_inputs: (c >> 17 & 0xFFFF) as usize,
                    effectiveness: EffectivenessStats {
                        total_inputs: (c >> 17 & 0xFFFF) as usize,
                        effective_inputs: (c >> 21 & 0xFFF) as usize,
                        classes: (c >> 48 & 0xFF) as usize,
                        singleton_classes: (c >> 52 & 0xFF) as usize,
                    },
                    detection_time: Duration::from_nanos(c >> 33),
                })
            })
            .collect(),
        groups: groups
            .iter()
            .map(|&(target_id, g)| GroupProgress {
                target_id,
                next_index: (g & 0xFFFF) as usize,
                test_cases: (g >> 16 & 0xFFFF) as usize,
                filtered: (g >> 24 & 0xFF) as usize,
                total_inputs: (g >> 32 & 0xFFFF) as usize,
                effectiveness: vec![EffectivenessStats {
                    total_inputs: (g >> 32 & 0xFFFF) as usize,
                    effective_inputs: (g >> 36 & 0xFFF) as usize,
                    classes: (g >> 8 & 0xFF) as usize,
                    singleton_classes: (g >> 12 & 0xFF) as usize,
                }],
                round: (g >> 48 & 0xFF) as usize,
                work: Duration::from_nanos(g.rotate_left(13)),
                escalations: (g >> 56 & 0xF) as usize,
                coverage_level: 1 + (g >> 60 & 0x3) as usize,
                round_improved: g & (1 << 63) != 0,
                coverage: PatternCoverage::new(),
            })
            .collect(),
    }
}

/// An arbitrary routing meta document of the shape the service attaches
/// to transfers (flat object, mixed scalar types).
fn meta_from(bits: u64) -> Json {
    Json::obj()
        .field("op", ["progress", "final", "lease"][(bits % 3) as usize])
        .field("target", bits >> 3 & 0xFF)
        .field("events", bits >> 11 & 0xFFFF)
        .field("stolen", bits & (1 << 63) != 0)
}

/// Splice the `history` field (which records the update interleaving and
/// legitimately differs between the two training orders) out of a
/// predictor's Debug rendering.
fn strip_history(s: &str) -> String {
    let i = s.find(" history: ").expect("rendering names the history field");
    let j = i + s[i..].find(',').expect("history is not the last field");
    format!("{}{}", &s[..i], &s[j..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Regression for the predictor-table map type: `Debug` renderings are
    /// the canonical encoding that checkpoint digests hash, so two
    /// predictors holding the same logical state must re-encode
    /// byte-identically no matter which order their sites were first
    /// observed in.  A hash-map-backed table only passes this for lucky
    /// site sets.
    #[test]
    fn predictor_state_re_encodes_byte_identically(
        raw in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        // Each word encodes one training batch: a site (low 6 bits) and a
        // 1-4 long outcome sequence (remaining bits).  Collecting into an
        // ordered map dedups sites, so each site has one well-defined
        // sequence regardless of visit order.
        let batches: std::collections::BTreeMap<usize, Vec<bool>> = raw
            .iter()
            .map(|&bits| {
                let site = (bits & 0x3F) as usize;
                let len = 1 + (bits >> 6 & 0x3) as usize;
                let outcomes = (0..len).map(|k| bits >> (8 + k) & 1 == 1).collect();
                (site, outcomes)
            })
            .collect();
        // With zero history bits the per-site counters are independent, so
        // visiting the sites in opposite orders (keeping each site's own
        // outcome sequence) trains the same logical state.
        let mut fwd = BranchPredictor::new();
        let mut rev = BranchPredictor::new();
        for (&site, outcomes) in &batches {
            for &taken in outcomes {
                fwd.update(site, taken);
            }
        }
        for (&site, outcomes) in batches.iter().rev() {
            for &taken in outcomes {
                rev.update(site, taken);
            }
        }
        prop_assert_eq!(
            strip_history(&format!("{fwd:?}")),
            strip_history(&format!("{rev:?}"))
        );

        // The BTB is a pure last-target map with no order-dependent state
        // at all for distinct sites — renderings must match exactly.
        let mut btb_fwd = Btb::new();
        let mut btb_rev = Btb::new();
        for (&site, outcomes) in &batches {
            btb_fwd.update(site, BlockId(outcomes.len()));
        }
        for (&site, outcomes) in batches.iter().rev() {
            btb_rev.update(site, BlockId(outcomes.len()));
        }
        prop_assert_eq!(format!("{btb_fwd:?}"), format!("{btb_rev:?}"));
    }

    /// Checkpoint frames decode back to the exact value and re-encode to
    /// the exact bytes.
    #[test]
    fn checkpoint_frames_round_trip_byte_identically(
        s0 in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
        groups in proptest::collection::vec(any::<u64>(), 0..4),
        cells in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let groups: Vec<(u8, u64)> = groups.iter().map(|&g| ((g >> 5) as u8, g)).collect();
        let cp = checkpoint_from([s0, s1, s2, s3], &groups, &cells);
        let frame = transfer_frame(&cp);
        prop_assert_eq!(frame_len(&frame), Ok(Some(frame.len())));
        let decoded = transfer_checkpoint(&frame).unwrap();
        prop_assert_eq!(&decoded, &cp);
        prop_assert_eq!(decoded.digest(), cp.digest());
        // Deterministic encoding: same value, same bytes.
        prop_assert_eq!(&transfer_frame(&decoded), &frame);
    }

    /// Transfer frames carry job id, routing meta and payload exactly,
    /// and the pre-encode digest still validates after the round trip.
    #[test]
    fn transfer_frames_round_trip_and_validate(
        s0 in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
        cells in proptest::collection::vec(any::<u64>(), 0..6),
        job_bits in any::<u64>(), meta_bits in any::<u64>(),
    ) {
        const JOBS: [&str; 4] = ["j1-2", "jdead-beef", "…uni≠code…", "-"];
        let job = JOBS[(job_bits % JOBS.len() as u64) as usize];
        let cp = checkpoint_from([s0, s1, s2, s3], &[(5, s1)], &cells);
        let meta = meta_from(meta_bits);
        let frame = checkpoint_transfer_to_binary(job, &cp, &meta);
        let decoded = checkpoint_transfer_from_binary(&frame).unwrap();
        prop_assert_eq!(decoded.transfer.job.as_str(), job);
        prop_assert_eq!(&decoded.transfer.checkpoint, &cp);
        prop_assert!(decoded.transfer.validates(), "decode must preserve the digest");
        prop_assert_eq!(&decoded.meta.render(), &meta.render());
    }

    /// Every strict prefix of a binary frame is a clean decode error —
    /// not a panic, not an accepted checkpoint.  `frame_len` reports the
    /// same prefixes as incomplete instead of guessing.
    #[test]
    fn truncated_binary_frames_error_cleanly(
        s0 in any::<u64>(), s1 in any::<u64>(), cut in any::<u64>(),
    ) {
        let cp = checkpoint_from([s0, s1, s1 ^ s0, s0.rotate_left(7)], &[(5, s1)], &[s0 | 1]);
        let frame = transfer_frame(&cp);
        let cut = (cut % frame.len() as u64) as usize;
        let err = transfer_checkpoint(&frame[..cut])
            .expect_err("strict prefixes of a frame are invalid");
        prop_assert!(!err.is_empty());
        match frame_len(&frame[..cut]) {
            // Too short to know the length, or known-longer-than-given.
            Ok(None) => prop_assert!(cut < HEADER_LEN),
            Ok(Some(total)) => prop_assert!(total > cut, "frame_len must not under-report"),
            Err(e) => prop_assert!(!e.is_empty()),
        }
    }

    /// A single flipped bit anywhere in a frame never panics the decoder:
    /// it either errors with a message, or — when the flip lands in the
    /// payload — the digest exposes the corruption.  Header flips are
    /// always hard errors.
    #[test]
    fn bit_flipped_frames_never_panic_and_never_forge_a_digest(
        s0 in any::<u64>(), s1 in any::<u64>(), flip in any::<u64>(),
    ) {
        let cp = checkpoint_from([s0, s1, s1.wrapping_mul(3), !s0], &[(3, s0)], &[s1 | 1]);
        let mut frame = transfer_frame(&cp);
        let bit = (flip % (frame.len() as u64 * 8)) as usize;
        frame[bit / 8] ^= 1 << (bit % 8);
        match transfer_checkpoint(&frame) {
            Err(e) => prop_assert!(!e.is_empty(), "errors must carry a message"),
            Ok(mutated) => {
                // The frame has no checksum of its own; a body flip may
                // still decode.  The checkpoint's content digest is what
                // downstream validation compares — it must move.
                if mutated != cp {
                    prop_assert!(mutated.digest() != cp.digest());
                }
            }
        }
        prop_assert!(bit >= HEADER_LEN * 8 || transfer_checkpoint(&frame).is_err(),
            "header flips are always rejected");
    }

    /// Arbitrary garbage never panics the frame parser.
    #[test]
    fn garbage_never_panics_the_frame_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        if let Err(e) = parse_frame(&bytes) {
            prop_assert!(!e.is_empty(), "errors must carry a message");
        }
        let _ = frame_len(&bytes);
    }
}
