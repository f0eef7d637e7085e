//! Seeded input generators. Everything a workload sends is a function of
//! `--seed`: the same seed gives the same schedule, sizes and payload bytes.

/// SplitMix64: tiny, fast, and good enough for schedules and sizes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Counter-based draw: the `index`-th value of stream `seed`, computable
/// out of order (the shm receiver process regenerates the sender's inputs
/// this way without replaying the whole sequence).
pub fn draw(seed: u64, index: u64) -> SplitMix64 {
    let mut r = SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64();
    r
}

/// Per-workload seed: distinct workloads given the same `--seed` still
/// draw unrelated inputs.
pub fn workload_seed(seed: u64, workload: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in workload.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// Log-uniform integer in `[lo, hi]`: every octave is equally likely, so
/// small and large sizes both occur often.
pub fn log_uniform(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    debug_assert!(0 < lo && lo <= hi);
    let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    ((a + rng.next_f64() * (b - a)).exp() as usize).clamp(lo, hi)
}

/// Due times (ns from the start of measurement) of a Poisson arrival
/// process at `rate_per_s`, up to `horizon_ns`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mean_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((horizon_ns as f64 / mean_ns * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -mean_ns * (1.0 - rng.next_f64()).ln();
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Seeded payload bytes. Every byte is nonzero, so a zeroed receive buffer
/// shows exactly which regions a put wrote.
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            for b in rng.next_u64().to_le_bytes() {
                bytes.push(b | 1);
            }
        }
        bytes.truncate(len);
        Pattern { bytes }
    }

    /// A start offset for a `len`-byte payload chosen by `r`.
    pub fn offset_for(&self, r: u64, len: usize) -> usize {
        assert!(len <= self.bytes.len(), "payload longer than the pattern");
        (r % (self.bytes.len() - len + 1) as u64) as usize
    }

    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_sizes() {
        let a = poisson_schedule(7, 10_000.0, 100_000_000);
        let b = poisson_schedule(7, 10_000.0, 100_000_000);
        assert_eq!(a, b);
        let sizes = |s| {
            let mut r = SplitMix64::new(s);
            (0..1000)
                .map(|_| log_uniform(&mut r, 8, 4096))
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(3), sizes(3));
    }

    #[test]
    fn different_seed_different_schedule_and_sizes() {
        assert_ne!(
            poisson_schedule(7, 10_000.0, 100_000_000),
            poisson_schedule(8, 10_000.0, 100_000_000)
        );
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let sa: Vec<_> = (0..64).map(|_| log_uniform(&mut a, 8, 4096)).collect();
        let sb: Vec<_> = (0..64).map(|_| log_uniform(&mut b, 8, 4096)).collect();
        assert_ne!(sa, sb);
        assert_ne!(workload_seed(1, "incast"), workload_seed(1, "incast_lossy"));
    }

    #[test]
    fn poisson_rate_and_order() {
        let due = poisson_schedule(11, 10_000.0, 1_000_000_000);
        // 10 000 expected; a Poisson count's sd is 100.
        assert!((9_500..10_500).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 1_000_000_000);
    }

    #[test]
    fn log_uniform_stays_in_range_and_spans_octaves() {
        let mut r = SplitMix64::new(5);
        let xs: Vec<_> = (0..20_000).map(|_| log_uniform(&mut r, 8, 4096)).collect();
        assert!(xs.iter().all(|&x| (8..=4096).contains(&x)));
        let small = xs.iter().filter(|&&x| x < 64).count();
        let large = xs.iter().filter(|&&x| x > 2048).count();
        // 3 of 9 octaves below 64 B, 1 above 2 KiB.
        assert!(small > 5_000 && large > 1_500, "{small} {large}");
    }

    #[test]
    fn draw_is_random_access_and_pattern_nonzero() {
        assert_eq!(draw(9, 1234).next_u64(), draw(9, 1234).next_u64());
        assert_ne!(draw(9, 1234).next_u64(), draw(9, 1235).next_u64());
        let p = Pattern::new(3, 4096);
        assert!(p.slice(0, 4096).iter().all(|&b| b != 0));
        assert_eq!(Pattern::new(3, 64).slice(0, 64), p.slice(0, 64));
        assert!(p.offset_for(u64::MAX, 4096) == 0);
    }
}
