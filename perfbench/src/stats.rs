//! Sample summaries and output digests.

/// A percentile is reported only when at least this many samples lie
/// beyond it: p50 needs 20 samples, p90 needs 100.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `sorted` ascending
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A growable sample set (pre-sized so recording allocates nothing in
/// a timed loop).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn max(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::max)
    }

    /// The percentile under the [`MIN_BEYOND`] rule.
    pub fn pct(&self, p: f64) -> Option<f64> {
        pct_of(&self.0, p)
    }

    /// Median over consecutive windows of `window` samples (in
    /// recording order; a short last window is dropped) of each
    /// window's percentile `p`: a burst of host noise moves one window,
    /// not the figure. `None` unless at least 5 windows have the
    /// percentile.
    pub fn windowed_pct(&self, window: usize, p: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .0
            .chunks_exact(window)
            .filter_map(|w| pct_of(w, p))
            .collect();
        (per_window.len() >= 5).then(|| median(&per_window))
    }
}

fn pct_of(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// FNV-1a over 64-bit words: the fingerprint outputs are compared by,
/// so expected outputs need not be kept whole.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Median of a small set (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), None, "19 samples: 9 beyond p50");
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(10.0), "20 samples: 10 beyond");
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for v in (0..40).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.pct(0.5), Some(19.0));
        assert_eq!(s.max(), Some(39.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        let mut s = Samples::default();
        // Five windows of 20 samples, window k offset by 100 * k, one
        // outlier window last.
        for k in [0.0, 100.0, 200.0, 300.0, 10_000.0] {
            for v in 1..=20 {
                s.push(k + f64::from(v));
            }
        }
        assert_eq!(s.windowed_pct(20, 0.5), Some(210.0));
        assert_eq!(s.windowed_pct(25, 0.5), None, "four whole windows");
        assert_eq!(s.windowed_pct(20, 0.9), None, "p90 needs 100 per window");
    }

    #[test]
    fn digest_tells_outputs_apart() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([1, 3, 2]));
        assert_ne!(digest([0]), digest([0, 0]));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
