//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace (edge worlds, noise worlds,
//! RR-set sampling, network generators) takes an explicit `u64` seed. Seeds
//! are *split* — never shared — across parallel workers with
//! [`split_seed`], which applies the SplitMix64 output function to
//! `(seed, stream)` pairs. The generator itself is xoshiro256++, a small,
//! fast, statistically strong PRNG; we implement it here (plus the
//! [`rand::RngCore`] plumbing) instead of pulling in `rand_xoshiro`.

use rand::{Error, RngCore, SeedableRng};

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed from a parent seed and a stream index.
///
/// Used to give each Monte-Carlo world / RR batch / thread its own
/// deterministic stream: results do not depend on scheduling or thread
/// count.
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// xoshiro256++ PRNG with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct UicRng {
    s: [u64; 4],
}

impl UicRng {
    /// Creates a generator from a single `u64` seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is a fixed point of xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive anyway.
        if s.iter().all(|&w| w == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        UicRng { s }
    }

    /// Creates the `stream`-th independent child generator of `seed`.
    pub fn new_stream(seed: u64, stream: u64) -> Self {
        Self::new(split_seed(seed, stream))
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_raw())
    }

    /// Uniform `f32` in `[0, 1)` using the top 24 bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_raw() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn coin(&mut self, p: f64) -> bool {
        coin_raw(self.next_raw(), p)
    }

    /// Bernoulli trial against an integer threshold from
    /// [`coin_threshold`]: consumes one raw draw, and
    /// `coin_below(coin_threshold(p))` equals `coin(p as f64)` draw for
    /// draw.
    #[inline]
    pub fn coin_below(&mut self, threshold: u64) -> bool {
        below_raw(self.next_raw(), threshold)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (with rejection to remove modulo bias). `bound` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_raw() as u32;
            let m = (x as u64) * (bound as u64);
            let lo = m as u32;
            if lo >= bound {
                return (m >> 32) as u32;
            }
            // Rejection zone: accept unless lo < 2^32 mod bound.
            let t = bound.wrapping_neg() % bound;
            if lo >= t {
                return (m >> 32) as u32;
            }
        }
    }

    /// Standard normal sample (Marsaglia polar method).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// `2^53`, the number of distinct values [`UicRng::next_f64`] returns.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The `[0, 1)` value of a raw draw: its top 53 bits over `2^53`.
#[inline]
fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / TWO_POW_53)
}

/// [`UicRng::coin`] on a given raw draw.
#[inline]
fn coin_raw(raw: u64, p: f64) -> bool {
    unit_f64(raw) < p
}

/// [`UicRng::coin_below`] on a given raw draw.
#[inline]
fn below_raw(raw: u64, threshold: u64) -> bool {
    (raw >> 11) < threshold
}

/// The integer threshold of a coin with success probability `p`, for
/// [`UicRng::coin_below`].
///
/// `next_f64` is `k / 2^53` for the top 53 bits `k` of a draw, exactly,
/// so `coin(p)` is `k < p·2^53`, and for an integer `k` that is
/// `k < ⌈p·2^53⌉`. An `f32` has 24 significant bits and an exponent well
/// inside the range of `f64`, so `p·2^53` is exact in `f64` and its
/// ceiling is the exact threshold. `p ≥ 1` gives `2^53` (always live);
/// `p ≤ 0` and NaN give 0 (never live), as `coin` treats them.
#[inline]
pub fn coin_threshold(p: f32) -> u64 {
    let x = p as f64 * TWO_POW_53;
    if x >= TWO_POW_53 {
        1 << 53
    } else if x > 0.0 {
        // `x < 2^53`, so the cast is an exact floor.
        let floor = x as u64;
        floor + u64::from(floor as f64 != x)
    } else {
        0
    }
}

impl RngCore for UicRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for UicRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        UicRng::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        UicRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = UicRng::new(42);
        let mut b = UicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = UicRng::new(1);
        let mut b = UicRng::new(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn split_seed_is_deterministic_and_spread() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000u64 {
            seen.insert(split_seed(99, stream));
        }
        assert_eq!(seen.len(), 1000, "child seeds must not collide");
    }

    #[test]
    fn f64_is_in_unit_interval_with_sane_mean() {
        let mut rng = UicRng::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut rng = UicRng::new(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = UicRng::new(17);
        let n = 50_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.next_gaussian();
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn coin_matches_probability() {
        let mut rng = UicRng::new(23);
        let hits = (0..100_000).filter(|_| rng.coin(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    /// `coin_below(coin_threshold(p))` decides every raw draw as
    /// `coin(p as f64)` does: at the threshold's boundary draws
    /// (`threshold·2^11` − 1, + 0 and + 1) and on random draws, for
    /// tiny, reciprocal-degree, mid-range and out-of-range `p`.
    #[test]
    fn integer_threshold_coin_is_exact() {
        let mut ps = vec![0.0f32, f32::from_bits(1), 1e-30];
        ps.extend((1..=65536u32).map(|d| 1.0f32 / d as f32));
        ps.extend([0.1f32, 0.5, 1.0f32.next_down(), 1.0]);
        ps.extend([1.5f32, f32::NAN, -0.25]);
        let mut rng = UicRng::new(41);
        for &p in &ps {
            let t = coin_threshold(p);
            let edge = t.wrapping_shl(11);
            let mut raws = vec![edge.wrapping_sub(1), edge, edge.wrapping_add(1)];
            raws.extend((0..8).map(|_| rng.next_raw()));
            for raw in raws {
                assert_eq!(
                    below_raw(raw, t),
                    coin_raw(raw, p as f64),
                    "p = {p:e}, threshold {t}, raw {raw:#x}"
                );
            }
            // The public pair on the same stream.
            let mut a = UicRng::new(t ^ 0x5eed);
            let mut b = a.clone();
            for _ in 0..4 {
                assert_eq!(a.coin(p as f64), b.coin_below(t), "p = {p:e}");
            }
        }
        // Out-of-range probabilities behave as `coin` treats them.
        assert_eq!(coin_threshold(1.5), 1 << 53, "always live");
        assert_eq!(coin_threshold(f32::NAN), 0, "never live");
        assert_eq!(coin_threshold(-0.25), 0, "never live");
        // The boundary draws straddle the threshold where it is inside
        // the draw range.
        let t = coin_threshold(0.1);
        assert!(below_raw((t << 11) - 1, t) && !below_raw(t << 11, t));
    }

    #[test]
    fn rngcore_fill_bytes_covers_remainder() {
        let mut rng = UicRng::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn seedable_from_u64() {
        let mut a = UicRng::seed_from_u64(123);
        let mut b = UicRng::new(123);
        assert_eq!(a.next_raw(), b.next_raw());
    }
}
