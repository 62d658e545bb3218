//! The untraced in-process workloads: matrices of successive seeds run back
//! to back through `CampaignMatrix::run_with_observer` until the run's time
//! is up.

use crate::checks::{check_cells, fnv, Checks};
use crate::spec::{matrix_seed, Workload, MIN_MATRICES, RSS_MATRICES};
use crate::stats::{
    iq_mean, mean, median, own_cpu_seconds, peak_rss_mb, percentile, secs, HostSpeed,
};
use crate::Metrics;
use revizor::campaign::{CellEvent, ProgressObserver};
use rvz_bench::report::matrix_cells_json;
use std::time::Instant;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 7;

/// Test cases per cell group of the warm-up matrix.
const WARMUP_BUDGET: usize = 20;

/// Records when the caller sees each violating cell's verdict.
struct VerdictClock {
    start: Instant,
    samples: Vec<f64>,
}

impl ProgressObserver for VerdictClock {
    fn cell_finished(&mut self, event: &CellEvent) {
        if event.found {
            self.samples.push(secs(self.start.elapsed()));
        }
    }
}

/// Warm the pipeline up with a short matrix of the first seed.
fn warm_up(workload: Workload, seed: u64) {
    std::hint::black_box(workload.matrix(seed).with_budget(WARMUP_BUDGET).run());
}

/// Host times are scaled to the reference host's speed (see
/// [`HostSpeed`]) and summarized by their interquartile mean over the run's
/// matrices.
pub fn measure(workload: Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Metrics {
    let mut speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        speed.start();
        let t = Instant::now();
        warm_up(workload, seed);
        let wall = secs(t.elapsed());
        setups.push(wall * speed.factor());
    }

    let all_compliant = workload == Workload::CompliantFixed;
    let (mut walls, mut rates, mut cpus) = (vec![], vec![], vec![]);
    let (mut agreement, mut detect, mut rss) = (vec![], vec![], 0.0);
    let started = Instant::now();
    for i in 0.. {
        if walls.len() >= MIN_MATRICES && started.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
        let matrix = workload.matrix(matrix_seed(seed, i));
        speed.start();
        let cpu0 = own_cpu_seconds();
        let mut clock = VerdictClock {
            start: Instant::now(),
            samples: vec![],
        };
        let report = matrix.run_with_observer(&mut clock);
        let wall = secs(clock.start.elapsed());
        let cpu = own_cpu_seconds() - cpu0;
        let f = speed.factor();
        walls.push(wall * f);
        cpus.push(cpu * f);
        rates.push(report.test_cases as f64 / (wall * f));
        detect.extend(clock.samples.iter().map(|s| s * f));
        if walls.len() <= RSS_MATRICES {
            rss = peak_rss_mb().unwrap_or(0.0);
        }

        // Untimed from here on.
        // `result.cells` as the service would return it: deterministic for
        // a matrix seed, so two commits' verdicts compare exactly.
        let cells = matrix_cells_json(&report);
        let rendered = cells.render();
        let label = format!("{} seed {}", workload.name(), matrix.seed());
        let summary = check_cells(checks, &label, &cells, workload.cells(), all_compliant);
        agreement.push(summary.paper_agreement as f64);
        println!(
            "matrix seed {:>20}  verdicts {:016x}  found {:>2}  test_cases {:>5}  {:.4} s  speed {:.3}",
            matrix.seed(),
            fnv(rendered.as_bytes()),
            summary.found,
            report.test_cases,
            wall,
            f,
        );
    }

    speed.report();
    report_detection(&detect);
    vec![
        ("setup_s", median(&setups)),
        ("campaign_s", iq_mean(&walls)),
        ("tc_per_s", iq_mean(&rates)),
        ("cpu_s", iq_mean(&cpus)),
        ("peak_rss_mb", rss),
        ("paper_agreement", mean(&agreement)),
    ]
}

/// Print the detection-time percentiles with the samples they rest on.
/// They are not bounded metrics: which cells a matrix seed finds, and
/// when, spreads them far more between seeds than any bound could allow.
fn report_detection(samples: &[f64]) {
    for (name, p) in [("detect_s_p50", 0.5), ("detect_s_p90", 0.9)] {
        match percentile(samples, p) {
            Some(q) => println!(
                "{name} {:.6} s ({} samples, {} above the percentile)",
                q.value, q.samples, q.above
            ),
            None => println!("{name} - s (0 samples)"),
        }
    }
}
