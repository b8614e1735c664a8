//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! This workspace builds in environments with no crates-registry access,
//! so the real `rand` cannot be downloaded. This vendored stand-in
//! implements exactly the surface the workspace uses — [`rngs::SmallRng`],
//! [`SeedableRng::seed_from_u64`], and [`Rng::gen`] / [`Rng::gen_range`] /
//! [`Rng::gen_bool`] — over a deterministic xoshiro256++ generator.
//!
//! It is wired in through `[patch.crates-io]` in the workspace root, so
//! every `use rand::...` in the tree resolves here without source changes.
//! The sequences differ from upstream `rand`, which is fine: nothing in
//! the workspace depends on the exact stream, only on determinism per
//! seed and reasonable statistical quality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (via splitmix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The core 64-bit generator state (xoshiro256++).
#[derive(Clone, Debug)]
pub struct CoreRng {
    s: [u64; 4],
}

impl CoreRng {
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; splitmix64 of any seed
        // cannot produce four zero words, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }
}

/// Types samplable from the uniform "standard" distribution ([`Rng::gen`]).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard(rng: &mut CoreRng) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard(rng: &mut CoreRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard(rng: &mut CoreRng) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for i128 {
    fn sample_standard(rng: &mut CoreRng) -> Self {
        u128::sample_standard(rng) as i128
    }
}

impl Standard for bool {
    fn sample_standard(rng: &mut CoreRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard(rng: &mut CoreRng) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard(rng: &mut CoreRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high]` (both inclusive).
    fn sample_inclusive(rng: &mut CoreRng, low: Self, high: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut CoreRng, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: low > high");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let span = span + 1;
                // Rejection sampling to avoid modulo bias.
                let zone = u64::MAX - (u64::MAX % span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return (low as $wide).wrapping_add((v % span) as $wide) as $t;
                    }
                }
            }
        }
    )*};
}
impl_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_one(self, rng: &mut CoreRng) -> T;
}

impl<T: SampleUniform + HasPredecessor> SampleRange<T> for Range<T> {
    fn sample_one(self, rng: &mut CoreRng) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_inclusive(rng, self.start, self.end.predecessor())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_one(self, rng: &mut CoreRng) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Helper for converting an exclusive upper bound to inclusive.
pub trait HasPredecessor {
    /// The value one below `self`.
    fn predecessor(self) -> Self;
}

macro_rules! impl_pred {
    ($($t:ty),*) => {$(
        impl HasPredecessor for $t {
            fn predecessor(self) -> Self { self - 1 }
        }
    )*};
}
impl_pred!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing generator trait (subset of `rand::Rng`).
pub trait Rng {
    /// Access to the core generator.
    fn core(&mut self) -> &mut CoreRng;

    /// Draws a value of any [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self.core())
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_one(self.core())
    }

    /// Returns true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        f64::sample_standard(self.core()) < p
    }
}

/// Generator implementations (subset of `rand::rngs`).
pub mod rngs {
    use super::{CoreRng, Rng, SeedableRng};

    /// A small, fast, deterministic generator (stand-in for
    /// `rand::rngs::SmallRng`).
    #[derive(Clone, Debug)]
    pub struct SmallRng(CoreRng);

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self(CoreRng::from_seed(seed))
        }
    }

    impl Rng for SmallRng {
        fn core(&mut self) -> &mut CoreRng {
            &mut self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i16 = r.gen_range(-2048i16..2048);
            assert!((-2048..2048).contains(&w));
            let x: u64 = r.gen_range(0..=5u64);
            assert!(x <= 5);
            let y: usize = r.gen_range(0..6usize);
            assert!(y < 6);
        }
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut r = SmallRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert_eq!((0..100).filter(|_| r.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| r.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn full_width_types_sample() {
        let mut r = SmallRng::seed_from_u64(3);
        let _: u128 = r.gen();
        let _: bool = r.gen();
        let _: u16 = r.gen();
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
    }
}
