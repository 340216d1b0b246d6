//! Log-linear latency histogram: 16 linear sub-buckets per power of two,
//! so a quantile is exact below 16 ns and within 1/16 (6.25%) above.

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..SUB`, then `SUB` sub-buckets for each octave
/// `2^4 ..= 2^63`.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: Box::new([0; BUCKETS]), n: 0 }
    }
}

pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let shift = e - SUB_BITS;
    let m = v >> shift; // in SUB..2*SUB
    (SUB + u64::from(shift) * SUB + (m - SUB)) as usize
}

/// Inclusive value range of bucket `i`.
pub fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let k = i - SUB;
    let shift = k / SUB;
    let m = SUB + k % SUB;
    let lo = m << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile, placed inside its bucket by the rank's
    /// position among the bucket's samples (so it moves smoothly rather
    /// than in sub-bucket steps); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

/// Nearest-rank quantile of a small exact sample set.
pub fn exact_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    exact_quantile(samples, 0.5)
}

/// Mean over bursts of each burst's median. The median drops outliers
/// within a burst (a thread switched out mid-sample); the mean over
/// bursts taken across a run averages the host's switches between speed
/// levels, where a median of all samples would jump from one level to
/// the other.
pub fn mean_of_medians(bursts: &[Vec<f64>]) -> f64 {
    bursts.iter().map(|b| median(b)).sum::<f64>() / bursts.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lo = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, expect_lo, "gap before bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expect_lo = hi + 1;
        }
        panic!("buckets stop short of u64::MAX");
    }

    #[test]
    fn quantiles_within_one_sub_bucket_of_sorted_reference() {
        // A heavy-tailed latency-like mix: a body near 100, a tail out to
        // ~1e6, spanning many octaves.
        let mut rng = SplitMix64::new(9);
        let mut h = Hist::default();
        let mut samples = Vec::new();
        for _ in 0..200_000 {
            let v = if rng.below(100) < 97 {
                60 + rng.below(80)
            } else {
                (1000.0 * (1.0 / (1.0 - rng.next_f64())).powf(1.5)) as u64
            };
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let reference = samples[rank - 1];
            let got = h.quantile(q);
            let (b_ref, b_got) = (bucket_of(reference) as i64, bucket_of(got as u64) as i64);
            assert!((b_ref - b_got).abs() <= 1, "q={q}: {got} vs sorted {reference}");
            // Finer than octave buckets: the error is bounded by one
            // sub-bucket, 1/16 of the value.
            let rel = (got - reference as f64).abs() / reference as f64;
            assert!(rel <= 1.0 / 16.0, "q={q}: relative error {rel}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(0.5), 10.0);
        assert_eq!(exact_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
