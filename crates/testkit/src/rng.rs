//! Seedable deterministic pseudo-random number generation.
//!
//! The workspace must produce bit-identical traces across runs, platforms,
//! and compiler versions, so every random decision flows through
//! [`DetRng`]: xoshiro256++ state seeded by expanding a single `u64` with
//! SplitMix64 (the seeding procedure the xoshiro authors recommend). Both
//! algorithms are public domain and fully specified by their reference
//! implementations, so streams never change underneath us the way an
//! external crate's `StdRng` may on a major version bump.

/// SplitMix64: a tiny 64-bit generator used to expand seeds.
///
/// # Examples
///
/// ```
/// use numa_gpu_testkit::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's deterministic RNG: xoshiro256++ seeded via SplitMix64.
///
/// # Examples
///
/// ```
/// use numa_gpu_testkit::rng::DetRng;
/// let mut rng = DetRng::seed_from_u64(42);
/// let x = rng.gen_range(0u64..100);
/// assert!(x < 100);
/// let mut again = DetRng::seed_from_u64(42);
/// assert_eq!(again.gen_range(0u64..100), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        DetRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random_f64() < p
    }

    /// Unbiased uniform value in `[0, bound)` via Lemire's widening
    /// multiply with rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 needs a nonzero bound");
        let mut m = (self.next_u64() as u128) * (bound as u128);
        // The rejection threshold `2^64 mod bound` is below `bound`, so a
        // low half at or above `bound` is accepted without the division.
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                // Rejected: retry to stay unbiased.
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_uniform(self, range.start, range.end)
    }

    /// Alias for [`Self::gen_range`] (the surface `rand` 0.9+ calls
    /// `random_range`).
    #[inline]
    pub fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        self.gen_range(range)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// `n` distinct elements sampled without replacement (partial
    /// Fisher–Yates over indices). Returns fewer if the slice is shorter.
    pub fn sample<T: Clone>(&mut self, slice: &[T], n: usize) -> Vec<T> {
        let n = n.min(slice.len());
        let mut idx: Vec<usize> = (0..slice.len()).collect();
        for i in 0..n {
            let j = i + self.bounded_u64((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx[..n].iter().map(|&i| slice[i].clone()).collect()
    }
}

/// Types [`DetRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform value in `[lo, hi)`.
    fn sample_uniform(rng: &mut DetRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                lo + rng.bounded_u64((hi - lo) as u64) as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                let span = (hi as $u).wrapping_sub(lo as $u);
                lo.wrapping_add(rng.bounded_u64(span as u64) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

impl SampleUniform for f64 {
    #[inline]
    fn sample_uniform(rng: &mut DetRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range on empty range");
        lo + (hi - lo) * rng.random_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, per the reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_range() {
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..17);
            assert!((10..17).contains(&v));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(77);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.bounded_u64(8) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn bounded_divides_only_on_the_slow_path_but_draws_the_same_stream() {
        /// The form that computes the threshold on every draw.
        fn bounded_reference(rng: &mut DetRng, bound: u64) -> u64 {
            loop {
                let m = (rng.next_u64() as u128) * (bound as u128);
                if m as u64 >= bound.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }
        // 2^k ± 1 covers 3 and 2^63 + 1, the bound rejecting most often.
        let mut bounds = vec![1, 2, u64::MAX];
        for k in 2..64 {
            bounds.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for bound in bounds {
            let (mut fast, mut reference) =
                (DetRng::seed_from_u64(bound), DetRng::seed_from_u64(bound));
            for _ in 0..10_000 {
                assert_eq!(
                    fast.bounded_u64(bound),
                    bounded_reference(&mut reference, bound)
                );
            }
            assert_eq!(fast, reference, "bound {bound} consumed a different stream");
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = DetRng::seed_from_u64(5);
        assert!(!(0..1000).any(|_| rng.random_bool(0.0)));
        assert!((0..1000).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seed_from_u64(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn sample_without_replacement() {
        let mut rng = DetRng::seed_from_u64(13);
        let pool: Vec<u32> = (0..20).collect();
        let picked = rng.sample(&pool, 8);
        assert_eq!(picked.len(), 8);
        let unique: std::collections::BTreeSet<_> = picked.iter().collect();
        assert_eq!(unique.len(), 8);
        assert_eq!(rng.sample(&pool, 100).len(), 20);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = DetRng::seed_from_u64(1);
        assert_eq!(rng.choose::<u32>(&[]), None);
        assert_eq!(rng.choose(&[7]), Some(&7));
    }
}
