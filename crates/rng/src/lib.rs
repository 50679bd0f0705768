//! # klest-rng
//!
//! Small, dependency-free, deterministic pseudo-random number generation
//! for the `klest` workspace. The whole workspace must build and test
//! fully offline, so instead of pulling in the `rand` ecosystem this
//! crate provides the thin slice of it we actually use:
//!
//! - [`SplitMix64`] — the classic 64-bit mixer, used both as a seeder and
//!   as a standalone generator,
//! - [`StdRng`] — the workspace's default generator, a xoshiro256++
//!   seeded through SplitMix64 (same construction the xoshiro authors
//!   recommend),
//! - the [`Rng`] / [`SeedableRng`] traits mirroring the minimal `rand`
//!   surface the workspace consumes (`gen::<f64>()`, `gen_range`,
//!   `seed_from_u64`),
//! - [`fnv1a64`] — the workspace's one hash (FNV-1a, 64-bit), which
//!   seeds per-property test streams, addresses partition blocks and
//!   cache files, and checksums durable frames.
//!
//! Determinism is part of the contract: the same seed yields the same
//! stream on every platform and every run, which the experiment harnesses
//! and regression tests rely on.
//!
//! ```
//! use klest_rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! let i = rng.gen_range(0..10usize);
//! assert!(i < 10);
//! ```

#![deny(missing_docs)]

use std::ops::Range;

/// Construction from a 64-bit seed. Same seed, same stream, forever.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A sample drawn uniformly from a type's "standard" distribution
/// (`[0, 1)` for floats, the full range for integers).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// A sample drawn uniformly from a half-open `start..end` range.
pub trait RangeSample: Sized {
    /// Draws one value in `[range.start, range.end)` from `rng`.
    fn uniform_in<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// The minimal generator interface: a source of uniform 64-bit words plus
/// the derived draws the workspace uses.
pub trait Rng {
    /// The next uniform 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;

    /// A standard draw: `f64` in `[0, 1)` (53-bit resolution), or a full
    /// range integer.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }

    /// A uniform draw from `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::uniform_in(self, range)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl StandardSample for u64 {
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for f64 {
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1) with full double resolution.
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl StandardSample for bool {
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Lemire-style unbiased bounded integer draw.
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection sampling on the top bits: unbiased and branch-cheap.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let r = rng.next_u64();
        let (hi, lo) = {
            let wide = (r as u128) * (bound as u128);
            ((wide >> 64) as u64, wide as u64)
        };
        if lo >= threshold {
            return hi;
        }
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn uniform_in<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range in gen_range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + bounded_u64(rng, span) as $t
            }
        }
    )*};
}
impl_range_int!(usize, u64, u32, u16, u8);

macro_rules! impl_range_signed {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn uniform_in<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range in gen_range");
                let span = (range.end as i64).wrapping_sub(range.start as i64) as u64;
                (range.start as i64).wrapping_add(bounded_u64(rng, span) as i64) as $t
            }
        }
    )*};
}
impl_range_signed!(i64, i32, i16, i8, isize);

impl RangeSample for f64 {
    fn uniform_in<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range in gen_range");
        let u: f64 = StandardSample::standard(rng);
        range.start + u * (range.end - range.start)
    }
}

/// SplitMix64: one 64-bit state word, an additive Weyl sequence and a
/// strong finalizing mixer. Passes BigCrush; its main role here is to
/// expand a single `u64` seed into the larger xoshiro state without
/// correlated lanes, but it is a perfectly good generator on its own for
/// non-cryptographic workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's default generator: xoshiro256++ (Blackman & Vigna),
/// 256 bits of state, period 2²⁵⁶ − 1, seeded via [`SplitMix64`].
///
/// Named `StdRng` so call sites read like the `rand` idiom they replace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Snapshot of the full 256-bit generator state, for checkpointing.
    /// Feeding it back through [`StdRng::from_state`] resumes the stream
    /// exactly where it left off.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`StdRng::state`] snapshot.
    ///
    /// The all-zero state is a xoshiro fixed point (the stream would be
    /// constant zero); it is replaced by the `seed_from_u64(0)` state so
    /// a corrupted snapshot degrades to a valid generator instead of a
    /// broken one.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return StdRng::seed_from_u64(0);
        }
        StdRng { s }
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut mixer = SplitMix64::new(seed);
        let s = [
            mixer.next_u64(),
            mixer.next_u64(),
            mixer.next_u64(),
            mixer.next_u64(),
        ];
        StdRng { s }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
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
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash of `bytes`: dependency-free and stable across
/// platforms, runs and releases, so anything derived from it (file
/// names, checksums, seeds, region hashes) may be persisted.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continues an FNV-1a 64-bit hash from state `hash` over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn state_roundtrip_resumes_stream_exactly() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let snap = rng.state();
        let tail: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut resumed = StdRng::from_state(snap);
        let replay: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, replay);
        // The degenerate all-zero snapshot maps to the seed-0 generator.
        assert_eq!(
            StdRng::from_state([0; 4]).next_u64(),
            StdRng::seed_from_u64(0).next_u64()
        );
    }

    #[test]
    fn splitmix_reference_vector() {
        // Known-answer values for SplitMix64 with seed 1234567
        // (from the public-domain reference implementation).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn unit_interval_draws() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = rng.gen_range(0..10usize);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1000 {
            let x = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&x));
            let k = rng.gen_range(5..6u32);
            assert_eq!(k, 5);
            let n = rng.gen_range(-10..-3i64);
            assert!((-10..-3).contains(&n));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(3..3usize);
    }

    #[test]
    fn bounded_draw_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.gen_range(0..7usize)] += 1;
        }
        let expected = n / 7;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn rng_trait_object_through_reference() {
        // `&mut R` forwards, so generic helpers can borrow generators.
        fn draw<R: Rng>(mut rng: R) -> u64 {
            rng.next_u64()
        }
        let mut rng = StdRng::seed_from_u64(5);
        let direct = StdRng::seed_from_u64(5).next_u64();
        assert_eq!(draw(&mut rng), direct);
    }
}
