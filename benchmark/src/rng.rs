//! The benchmark's own generator. Inputs and arrival schedules come from
//! `--seed` through this file only, never through the library's RNG, so a
//! change to the program under test cannot change the inputs it is
//! measured on.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for sub-purpose `stream` of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut base = Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Self(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)` — the input range the quantized operators
    /// declare (`QuantConfig::default().input_range`).
    pub fn next_f32(&mut self) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32;
        unit * 2.0 - 1.0
    }

    pub fn vector(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.next_f32()).collect()
    }

    /// Exponential with mean `mean`.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - unit).ln() * mean
    }
}

/// Due times, in ns from the start of the window, of Poisson arrivals at
/// `rate_rps` over `window_ns`.
pub fn poisson_schedule(seed: u64, rate_rps: f64, window_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix64::stream(seed, 0x5c4e_d01e);
    let mean_ns = 1e9 / rate_rps;
    let mut due = Vec::with_capacity((rate_rps * window_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = rng.next_exp(mean_ns);
    while (t as u64) < window_ns {
        due.push(t as u64);
        t += rng.next_exp(mean_ns);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(schedule: &[u64]) -> Vec<u8> {
        schedule.iter().flat_map(|t| t.to_le_bytes()).collect()
    }

    #[test]
    fn schedule_is_byte_identical_for_equal_seeds() {
        let a = poisson_schedule(42, 2000.0, 3_000_000_000);
        let b = poisson_schedule(42, 2000.0, 3_000_000_000);
        assert_eq!(bytes(&a), bytes(&b));
        let c = poisson_schedule(43, 2000.0, 3_000_000_000);
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn schedule_is_ordered_and_has_the_asked_rate() {
        let s = poisson_schedule(7, 2000.0, 10_000_000_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().unwrap() < 10_000_000_000);
        // 20 000 expected arrivals, sd ≈ 141: ±5 % is > 7 sd.
        assert!((19_000..21_000).contains(&s.len()), "{}", s.len());
        // Exponential gaps: about 1/e of them exceed the mean.
        let mean = 500_000;
        let long = s.windows(2).filter(|w| w[1] - w[0] > mean).count() as f64;
        let share = long / (s.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "{share}");
    }

    #[test]
    fn inputs_stay_in_the_declared_range_and_follow_the_seed() {
        let a = SplitMix64::stream(1, 9).vector(4096);
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        assert_eq!(a, SplitMix64::stream(1, 9).vector(4096));
        assert_ne!(a, SplitMix64::stream(2, 9).vector(4096));
        assert_ne!(a, SplitMix64::stream(1, 10).vector(4096));
    }
}
