//! A small, fully deterministic pseudo-random number generator.
//!
//! The repository must build and test offline, so it carries its own PRNG
//! instead of depending on `rand`. Everything that needs randomness —
//! synthetic workload generation, randomized property tests, and the
//! fault-injection schedules in `looseloops-pipeline` — routes through this
//! crate, which guarantees that a given seed reproduces the same stream on
//! every platform and in every build profile.
//!
//! The core generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 so that small, human-friendly seeds (0, 1, 2, …) still land
//! in well-mixed states.

#![forbid(unsafe_code)]

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of SplitMix64 — used for seeding only.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator whose entire stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, n)`. `n` must be positive.
    ///
    /// Uses the widening-multiply reduction; the residual bias is on the
    /// order of `n / 2^64` — irrelevant here, and the method is branch-free
    /// and deterministic.
    pub fn bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded(0) is meaningless");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// A uniform value from a half-open or inclusive integer range, e.g.
    /// `rng.gen_range(0..24)` or `rng.gen_range(0..=i)`.
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded(slice.len() as u64) as usize])
        }
    }
}

/// Integer ranges that [`Rng::gen_range`] can sample from.
pub trait RangeSample {
    /// The sampled value's type.
    type Out;
    /// Draw one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Out;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for core::ops::Range<$t> {
            type Out = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.bounded(span)) as $t
            }
        }
        impl RangeSample for core::ops::RangeInclusive<$t> {
            type Out = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every value is valid.
                    return rng.next_u64() as $t;
                }
                (lo as u64).wrapping_add(rng.bounded(span)) as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize);

macro_rules! impl_range_sample_signed {
    ($($t:ty),*) => {$(
        impl RangeSample for core::ops::Range<$t> {
            type Out = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.bounded(span) as i64) as $t
            }
        }
        impl RangeSample for core::ops::RangeInclusive<$t> {
            type Out = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64 + 1;
                (lo as i64).wrapping_add(rng.bounded(span) as i64) as $t
            }
        }
    )*};
}

impl_range_sample_signed!(i8, i16, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0usize..=3);
            assert!(w <= 3);
            let s = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_and_varies() {
        let mut rng = Rng::seed_from_u64(9);
        let samples: Vec<f64> = (0..1_000).map(|_| rng.gen_f64()).collect();
        assert!(samples.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b = a.clone();
        Rng::seed_from_u64(5).shuffle(&mut a);
        Rng::seed_from_u64(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(a, sorted, "32 elements should not shuffle to identity");
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = Rng::seed_from_u64(13);
        let xs = [1, 2, 3];
        for _ in 0..100 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
        assert_eq!(rng.choose::<u32>(&[]), None);
    }
}
