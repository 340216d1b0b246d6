//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! Both live in the benchmark rather than in the program so a change to
//! the program can never change the inputs the benchmark feeds it.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, and good enough to
/// drive key and mix choices.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias is below
    /// 2^-40 for every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Derives an independent stream seed for `stream` from the run seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular) by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The probability of `rank`.
    #[cfg(test)]
    pub fn pmf(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// A bijection on `0..2^bits` that scatters popular ranks over the key
/// space: an odd multiplier is invertible modulo a power of two, and so
/// is an xorshift within the same width.
pub fn scatter(rank: u64, bits: u32) -> u64 {
    let mask = (1u64 << bits) - 1;
    let x = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
    x ^ (x >> (bits / 2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = (0..8).scan(SplitMix64::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(SplitMix64::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(SplitMix64::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_matches_reference_frequencies() {
        // Reference: p(rank k) = (k+1)^-s / H(n, s), s = 0.99.
        let n = 1000;
        let s = 0.99;
        let zipf = Zipf::new(n, s);
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut rng = SplitMix64::new(42);
        let draws = 2_000_000;
        let mut hist = vec![0u64; n];
        for _ in 0..draws {
            hist[zipf.sample(&mut rng)] += 1;
        }
        for (k, &count) in hist.iter().enumerate().take(10) {
            let expect = ((k + 1) as f64).powf(-s) / h;
            assert!((zipf.pmf(k) - expect).abs() < 1e-12);
            let got = count as f64 / draws as f64;
            let sigma = (expect * (1.0 - expect) / draws as f64).sqrt();
            assert!((got - expect).abs() < 5.0 * sigma, "rank {k}: got {got}, expected {expect}");
        }
        // Whole distribution: chi-square over ranks, 999 dof; mean 999,
        // sd ~45, so 1300 is a > 6-sigma margin.
        let chi2: f64 = hist
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let e = zipf.pmf(k) * draws as f64;
                (c as f64 - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 1300.0, "chi-square {chi2} over {n} ranks");
    }

    #[test]
    fn scatter_is_a_bijection() {
        let bits = 12;
        let mut seen = vec![false; 1 << bits];
        for r in 0..(1u64 << bits) {
            let k = scatter(r, bits) as usize;
            assert!(!seen[k], "collision at rank {r}");
            seen[k] = true;
        }
    }
}
