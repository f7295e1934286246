//! Seeded input generation. Everything a workload feeds the library —
//! score rows, arrival schedules, pool choices — comes from here and is
//! built before any timed region starts. The same seed gives the same
//! inputs on every host.

/// SplitMix64: tiny, fast, and fully specified, so a seed means the
/// same stream everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`stream`) of one workload seed;
    /// different streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BE15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// One attention-score row: Gaussian logits with a few sharp peaks, the
/// shape of a trained model's `q·k/√d` row. Only the spread relative to
/// the row maximum matters to the softmax.
pub fn scores(rng: &mut Rng, len: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..len).map(|_| 1.5 * rng.normal()).collect();
    for _ in 0..len.div_ceil(256) {
        let i = rng.below(len);
        row[i] += 6.0;
    }
    row
}

/// Poisson arrival offsets (seconds from the phase start) at `rate`
/// requests per second over `duration` seconds.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_schedule() {
        let a = (
            scores(&mut Rng::new(7, 1), 300),
            poisson_arrivals(&mut Rng::new(7, 2), 3000.0, 0.5),
        );
        let b = (
            scores(&mut Rng::new(7, 1), 300),
            poisson_arrivals(&mut Rng::new(7, 2), 3000.0, 0.5),
        );
        assert_eq!(a, b);
        let c = scores(&mut Rng::new(8, 1), 300);
        assert_ne!(a.0, c, "another seed gives other inputs");
        let d = scores(&mut Rng::new(7, 3), 300);
        assert_ne!(a.0, d, "streams of one seed are independent");
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let arrivals = poisson_arrivals(&mut Rng::new(1, 0), 3000.0, 2.0);
        let n = arrivals.len() as f64;
        assert!((n - 6000.0).abs() < 6000.0 * 0.05, "{n} arrivals");
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
    }
}
