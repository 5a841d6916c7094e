//! Order statistics, digests and seed derivation shared by the workloads.

/// Median of `values` (the mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail statistic: the highest percentile of a sample that still has
/// at least [`TAIL_BEYOND`] samples above it, so the figure rests on
/// more than a handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, as the share of samples at or below `value`
    /// (0..100).
    pub percentile: f64,
    /// Samples in the whole set.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Computes the [`Tail`] of `values`, or `None` when there are too few
/// samples for any percentile to have [`TAIL_BEYOND`] samples beyond it.
///
/// In the ascending order the element at index `i` has `n - 1 - i`
/// samples after it, so the answer is index `n - 1 - TAIL_BEYOND`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 1 - TAIL_BEYOND;
    Some(Tail { value: v[i], percentile: 100.0 * (i + 1) as f64 / n as f64, samples: n })
}

/// 64-bit FNV-1a, the digest printed for every output the benchmark
/// checks for repeatability.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for request mixes (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
