//! Order statistics over raw samples, and seeded input generation.

/// Median of raw samples (mean of the middle two for even counts); 0 for
/// no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 — the tail a sample of this size can support. `None` when fewer
/// than eleven samples exist. Nearest-rank on the raw samples.
pub fn tail(v: &[f64]) -> Option<f64> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Rank n - 10 leaves exactly ten samples above it; p99 needs n ≥ 1000.
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10).max(1);
    Some(s[rank - 1])
}

/// A JSON number with every digit the measurement has. JSON has no
/// infinity; an infinitely late query tail reads as 1e300.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "1e300".to_string()
    } else {
        "0".to_string()
    }
}

/// SplitMix64: the benchmark's seeded stream for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for k in (1..v.len()).rev() {
            v.swap(k, self.below(k + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=36).map(f64::from).collect();
        assert_eq!(tail(&v), Some(26.0));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(1980.0));
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
