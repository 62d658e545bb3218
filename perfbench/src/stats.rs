//! Order statistics and per-process resource readings from `/proc`.

use std::time::Duration;

/// A nearest-rank percentile of a sample set, with the number of samples
/// strictly above the chosen rank (so a report can state how many samples
/// the percentile rests on).
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub above: usize,
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`); `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        above: sorted.len() - rank,
    })
}

/// The median (nearest rank), 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The interquartile mean: the mean of the samples between the first and
/// third quartiles, robust to a slow burst hitting a few samples.
pub fn iq_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    mean(&sorted[n / 4..n - n / 4])
}

/// A typical [`calibration_kernel`] reading on the reference host (2-core
/// Xeon VM at 2.1 GHz); host times are scaled to the speed it stands for.
const REFERENCE_CALIBRATION_S: f64 = 0.0085;

/// Host time of `iterations` xorshift steps, each a load and a
/// data-dependent store into a `words`-word table.
fn table_walk(words: usize, iterations: u64) -> f64 {
    let start = std::time::Instant::now();
    let mut table = vec![0u64; words];
    let mask = words - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        if table[j] & 1 == 0 {
            table[j] = table[j].wrapping_add(x ^ i);
        } else {
            table[(j + 7) & mask] ^= x;
        }
    }
    std::hint::black_box(&table);
    secs(start.elapsed())
}

/// A fixed integer and memory kernel that shares no code with the program
/// under test: the geometric mean of a walk over a core-private 32 KiB
/// table and one over a 4 MiB table that lives in the shared cache.
/// Co-tenants that compete for the caches slow it much as they slow the
/// simulator, which is cache-bound; a pure arithmetic loop would not see
/// them.  Returns its host time (about 9 ms).
pub fn calibration_kernel() -> f64 {
    (table_walk(1 << 12, 1_000_000) * table_walk(1 << 19, 1_000_000)).sqrt()
}

/// Scales host times to the reference host's speed.  The
/// kernel runs before and after each measured interval (never inside it);
/// the interval's factor is the reference kernel time over the mean of the
/// two readings, so a co-tenant that slows the host for a while slows the
/// kernel too and cancels out, while a change to the program does not.
pub struct HostSpeed {
    before: f64,
    readings: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            before: 0.0,
            readings: Vec::new(),
        }
    }

    /// Read the host speed right before a measured interval.
    pub fn start(&mut self) {
        self.before = calibration_kernel();
        self.readings.push(self.before);
    }

    /// Read it again right after the interval; returns the interval's
    /// scale factor.
    pub fn factor(&mut self) -> f64 {
        let after = calibration_kernel();
        self.readings.push(after);
        REFERENCE_CALIBRATION_S / ((self.before + after) / 2.0)
    }

    /// Print the calibration readings of the run.
    pub fn report(&self) {
        println!(
            "host speed: calibration kernel median {:.3} ms over {} readings (reference {:.3} ms)",
            median(&self.readings) * 1e3,
            self.readings.len(),
            REFERENCE_CALIBRATION_S * 1e3
        );
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far, all threads
/// (including exited ones), at nanosecond resolution.
pub fn own_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call,
    // and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_samples_above() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.9).unwrap();
        assert_eq!((p90.value, p90.samples, p90.above), (90.0, 100, 10));
        assert_eq!(median(&samples), 50.0);
        assert_eq!(iq_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn own_process_readings_are_available() {
        let before = own_cpu_seconds();
        std::hint::black_box((0..2_000_000u64).map(|x| x.wrapping_mul(x)).sum::<u64>());
        assert!(own_cpu_seconds() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
