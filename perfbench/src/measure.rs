//! The benchmark's own arithmetic: percentiles, failure accounting,
//! result fingerprints and span self-time.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use adaptdb_common::{Row, Trace};

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise its value rests on too few observations.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in (0, 1]) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Middle value (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Latencies of one kind of operation. A failed or refused operation
/// counts as attempted and as missing every latency limit: it enters the
/// samples as an infinite latency.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn ok(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn failed(&mut self) {
        self.ms.push(f64::INFINITY);
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Latencies) {
        self.ms.extend(other.ms);
        self.failed += other.failed;
    }

    pub fn attempted(&self) -> usize {
        self.ms.len()
    }

    pub fn failures(&self) -> usize {
        self.failed
    }

    /// The percentile over every attempt. `Err` names why it cannot be
    /// reported: too few samples, or failures reaching into it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        match percentile(&self.ms, p) {
            None => Err(format!(
                "p{} needs at least {MIN_TAIL} samples beyond it, have {} samples",
                p * 100.0,
                self.ms.len()
            )),
            Some(v) if v.is_infinite() => Err(format!(
                "p{} missed: {} of {} operations failed",
                p * 100.0,
                self.failed,
                self.ms.len()
            )),
            Some(v) => Ok(v),
        }
    }
}

/// Failed over attempted, 0 when nothing was attempted.
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// An order-independent summary of a query result: the row count and
/// two wrapping sums over per-row hashes, so a permutation of the same
/// rows matches and a changed, missing or duplicated row does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    sum: u64,
    sum_sq: u64,
}

pub fn fingerprint(rows: &[Row]) -> Fingerprint {
    let mut fp = Fingerprint { rows: rows.len(), sum: 0, sum_sq: 0 };
    for row in rows {
        let mut h = DefaultHasher::new();
        row.values().hash(&mut h);
        let h = h.finish();
        fp.sum = fp.sum.wrapping_add(h);
        fp.sum_sq = fp.sum_sq.wrapping_add(h.wrapping_mul(h));
    }
    fp
}

/// Add each span's simulated self time (its duration minus the part of
/// it that child spans cover) to `out`, keyed by span name.
pub fn add_self_times(trace: &Trace, out: &mut BTreeMap<String, u64>) {
    for span in &trace.spans {
        let mut kids: Vec<(u64, u64)> = trace
            .children(span.id)
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_us;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(span.name.clone()).or_default() += span.duration_us() - covered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, Tracer};

    #[test]
    fn p95_refused_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank ceil(0.95 * 199) = 190 leaves 9 samples beyond it.
        assert_eq!(percentile(&samples, 0.95), None);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), Some(190.0));
        assert_eq!(percentile(&samples, 0.5), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut samples: Vec<f64> = (1..=400).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.95), Some(380.0));
    }

    #[test]
    fn failures_count_as_attempted_and_miss_every_limit() {
        let mut lat = Latencies::default();
        for _ in 0..180 {
            lat.ok(1.0);
        }
        for _ in 0..20 {
            lat.failed();
        }
        assert_eq!(lat.attempted(), 200);
        assert_eq!(lat.failures(), 20);
        assert_eq!(failed_frac(lat.failures(), lat.attempted()), 0.1);
        assert_eq!(lat.percentile(0.5), Ok(1.0));
        // Ten per cent failed, so p95 lands on a failure and is missed.
        assert!(lat.percentile(0.95).unwrap_err().contains("failed"));
        // A failure that stays beyond p95 still counts in the fraction.
        let mut lat = Latencies::default();
        for _ in 0..300 {
            lat.ok(2.0);
        }
        lat.failed();
        assert_eq!(lat.percentile(0.95), Ok(2.0));
        assert_eq!(failed_frac(lat.failures(), lat.attempted()), 1.0 / 301.0);
    }

    #[test]
    fn fingerprint_ignores_row_order_only() {
        let rows = vec![row![1i64, 2i64], row![3i64, 4i64], row![5i64, "x"]];
        let mut shuffled = rows.clone();
        shuffled.rotate_left(1);
        shuffled.swap(0, 1);
        assert_eq!(fingerprint(&rows), fingerprint(&shuffled));
        let mut changed = rows.clone();
        changed[2] = row![5i64, "y"];
        assert_ne!(fingerprint(&rows), fingerprint(&changed));
        let mut duplicated = rows.clone();
        duplicated[1] = rows[0].clone();
        assert_ne!(fingerprint(&rows), fingerprint(&duplicated));
        assert_ne!(fingerprint(&rows), fingerprint(&rows[..2]));
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let t = Tracer::new();
        let root = t.start("query", None, 0);
        let a = t.start("scan", Some(root), 10);
        t.end(a, 40);
        let b = t.start("scan", Some(root), 30);
        t.end(b, 50);
        t.end(root, 100);
        let mut out = BTreeMap::new();
        add_self_times(&t.finish(), &mut out);
        // Children overlap on [30, 40]: their union covers 40 of 100 µs.
        assert_eq!(out["query"], 60);
        assert_eq!(out["scan"], 50);
    }
}
