//! Deterministic, splittable randomness for experiments.
//!
//! The paper repeats every controlled experiment five times and reports means
//! with 95% confidence intervals. We reproduce that protocol by giving each
//! repetition its own seed. `SimRng` wraps ChaCha8 (fast, high quality,
//! platform-independent) and adds the handful of distributions the simulators
//! need, so no component ever reaches for ambient OS entropy.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Golden-ratio increment used by splitmix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a bijective avalanche mix on `u64`.
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Derive the seed for one session from its experiment coordinates.
///
/// Every run of every experiment cell is identified by the tuple
/// `(base seed, experiment id, cell index, repetition)`. The seed is a pure
/// splitmix64-style hash of that tuple, so it depends only on *where* the
/// session sits in the experiment grid — never on which worker executes it
/// or in what order. This is what makes parallel experiment execution
/// bit-identical to serial execution.
///
/// Each coordinate is absorbed through the splitmix64 finalizer (a bijection
/// on `u64`), so two tuples differing in a single coordinate always produce
/// different seeds, and tuples differing in several coordinates collide only
/// with ~2^-64 probability.
pub fn derive_seed(base: u64, experiment_id: &str, cell_index: u64, rep: u64) -> u64 {
    let mut state = base;
    for (i, word) in [fnv1a(experiment_id), cell_index, rep].into_iter().enumerate() {
        state = splitmix_mix(
            state
                .wrapping_add(GAMMA.wrapping_mul(i as u64 + 1))
                .wrapping_add(word),
        );
    }
    state
}

/// A deterministic random source for one simulation component or run.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a new generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator for a named sub-component.
    ///
    /// Splitting by label keeps components' random streams independent of
    /// each other's consumption order, so adding a draw in one subsystem
    /// does not perturb another subsystem's sequence.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut clone = self.inner.clone();
        SimRng::new(clone.next_u64() ^ h)
    }

    /// Derive an independent child generator for the label
    /// `"{prefix}{index}"` without materializing it: the FNV-1a hash is fed
    /// the prefix bytes and then the decimal digits of `index`, so the
    /// stream is bit-identical to `split` on the formatted string. Hot
    /// per-user setup paths use this to avoid a `format!` per split.
    pub fn split_u32(&self, prefix: &str, index: u32) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in prefix.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        let mut n = index;
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &b in &digits[i..] {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut clone = self.inner.clone();
        SimRng::new(clone.next_u64() ^ h)
    }

    /// Derive an independent child generator for an indexed repetition.
    pub fn split_index(&self, index: u64) -> SimRng {
        let mut clone = self.inner.clone();
        SimRng::new(clone.next_u64().wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty integer range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw (Box–Muller).
    pub fn std_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling the open interval.
        let u1: f64 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Log-normal draw parameterized by the *target* median and a shape σ.
    ///
    /// Used for heavy-tailed quantities (app memory footprints, session
    /// lengths) where the paper's distributions have visible right tails.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        (median.ln() + sigma * self.std_normal()).exp()
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Pick an index according to non-negative weights. Panics if all weights
    /// are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weighted_index needs a positive finite total weight"
        );
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight at index {i}");
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

// Snapshots capture the generator mid-stream: the ChaCha key plus the block
// counter and the intra-block position pin the remaining keystream exactly,
// so a restored generator continues draw-for-draw where the original left
// off (see `ChaCha8Rng::state`/`from_state`).
impl Serialize for SimRng {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        let (key, counter, used) = self.inner.state();
        s.begin_map(3);
        s.entry("key", &key);
        s.entry("counter", &counter);
        s.entry("used", &used);
        s.end_map();
    }
}

impl Deserialize for SimRng {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::de::Error> {
        use serde::de::{set, take};
        let (mut key, mut counter, mut used) = (None, None, None);
        d.begin_map()?;
        while let Some(k) = d.next_key()? {
            match k {
                "key" => set(&mut key, d, "key")?,
                "counter" => set(&mut counter, d, "counter")?,
                "used" => set(&mut used, d, "used")?,
                _ => d.skip()?,
            }
        }
        Ok(SimRng {
            inner: ChaCha8Rng::from_state(
                take(key, "key", "SimRng")?,
                take(counter, "counter", "SimRng")?,
                take(used, "used", "SimRng")?,
            ),
        })
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let root = SimRng::new(7);
        let mut kswapd = root.split("kswapd");
        let mut lmkd = root.split("lmkd");
        let draws_a: Vec<u64> = (0..8).map(|_| kswapd.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| lmkd.next_u64()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn split_is_stable() {
        let root = SimRng::new(7);
        let mut a = root.split("video");
        let mut b = root.split("video");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_u32_matches_formatted_split() {
        let root = SimRng::new(11);
        for idx in [0u32, 1, 9, 10, 123, 9_999, u32::MAX] {
            let mut a = root.split_u32("fleet-user-", idx);
            let mut b = root.split(&format!("fleet-user-{idx}"));
            for _ in 0..4 {
                assert_eq!(a.next_u64(), b.next_u64(), "idx {idx}");
            }
        }
    }

    #[test]
    fn split_index_streams_differ() {
        let root = SimRng::new(9);
        let mut r0 = root.split_index(0);
        let mut r1 = root.split_index(1);
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SimRng::new(1);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_roughly_correct() {
        let mut rng = SimRng::new(2);
        let mut draws: Vec<f64> = (0..20_001).map(|_| rng.lognormal(100.0, 0.5)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[draws.len() / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(4);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn serde_round_trip_continues_identically() {
        // Exercise every draw kind so the stream position is mid-block.
        let mut a = SimRng::new(77);
        a.next_u32();
        a.unit();
        a.normal(3.0, 1.0);
        let mut b = serde::from_value::<SimRng>(&serde::to_value(&a)).expect("round trip");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.split("x").next_u64(), b.split("x").next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
