//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! tail rule, quartiles, and the FNV-1a fold behind `sim_digest`.

/// Sort ascending with a total order (NaN last; the harness never
/// produces one, but a comparator must not panic on it).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(pct/100 · n)`. `None` on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    sorted.get(rank - 1).copied()
}

fn rank_of(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n))
}

/// Tail percentiles the harness reports, highest first.
const TAILS: [f64; 3] = [99.0, 95.0, 90.0];

/// The highest tail percentile that still has at least ten samples
/// *beyond* it, with its value; `None` when even p90 has fewer (n < 100).
/// A p99 of 200 samples is the second-largest value — one slow request —
/// and is not worth a regression bound.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().find_map(|&pct| {
        let rank = rank_of(sorted.len(), pct)?;
        (sorted.len() - rank >= 10).then(|| (pct, sorted[rank - 1]))
    })
}

/// Median, quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Nearest-rank p25/p50/p75; `None` on an empty set.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let s = sorted(values.to_vec());
        Some(Summary {
            median: percentile(&s, 50.0)?,
            q1: percentile(&s, 25.0)?,
            q3: percentile(&s, 75.0)?,
            n: s.len(),
        })
    }
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method): position `i·(n+1)/4` with
/// linear interpolation. This is what the acceptance check uses, so
/// `repeat` reproduces it exactly. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range over the median — the spread the acceptance check
/// compares with a metric's bound.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles_exclusive(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// FNV-1a over exact values: the fold behind `sim_digest`. Simulated
/// statistics are folded bit-for-bit, so any change in simulated
/// behaviour changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: usize| tail(&(1..=n).map(|v| v as f64).collect::<Vec<_>>());
        // p99 of 1000 is rank 990: exactly ten beyond.
        assert_eq!(of(1000), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990, nine beyond — fall back to p95.
        assert_eq!(of(999), Some((95.0, 950.0)));
        assert_eq!(of(200), Some((95.0, 190.0)));
        assert_eq!(of(199), Some((90.0, 180.0)));
        assert_eq!(of(100), Some((90.0, 90.0)));
        assert_eq!(of(99), None);
        assert_eq!(of(0), None);
    }

    #[test]
    fn summary_is_nearest_rank() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles_exclusive(&[10.0, 20.0, 40.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
    }

    #[test]
    fn fnv_is_the_reference_function() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b, "one ulp changes the digest");
    }
}
