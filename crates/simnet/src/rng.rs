//! Deterministic, splittable randomness.
//!
//! Every stochastic decision in the simulator — message loss, gossipee
//! selection, crash injection — draws from a [`DetRng`] derived from a
//! single run seed. Distinct subsystems *fork* independent streams so that,
//! e.g., adding one more message-loss coin flip does not perturb the crash
//! schedule. This keeps runs exactly reproducible and makes experiments
//! (which average over seeds `base..base+runs`) directly comparable.

/// The xoshiro256++ generator backing [`DetRng`].
///
/// This is the same algorithm `rand 0.8`'s `SmallRng` uses on 64-bit
/// targets, implemented in-repo so the simulator has no external
/// dependencies. [`Xoshiro256PlusPlus::seed_from_u64`] reproduces
/// `rand_core`'s PCG32-based seeding exactly, so historical run seeds
/// keep producing the same streams. Not cryptographic — appropriate for
/// simulation only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed from raw state words. All-zero state is forbidden by the
    /// algorithm; it is mapped to a fixed non-zero state.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            // any fixed non-zero state keeps the generator well-defined
            return Xoshiro256PlusPlus::seed_from_u64(0);
        }
        Xoshiro256PlusPlus { s }
    }

    /// Derive the full 256-bit state from a 64-bit seed using the PCG32
    /// stream `rand_core 0.6` uses for `seed_from_u64` (kept
    /// bit-compatible so existing experiment seeds are stable).
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let mut s = [0u64; 4];
        for (word, bytes) in s.iter_mut().zip(seed.chunks(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        Xoshiro256PlusPlus::from_state(s)
    }

    /// The next 64 random bits.
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
}

/// SplitMix64 step: a high-quality 64-bit mixing function.
///
/// Used both for seed derivation here and for the "well-known hash function
/// `H`" of the Grid Box Hierarchy (see `gridagg-hierarchy`).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a 64-bit hash to the unit interval `[0, 1)`.
///
/// The paper's hash `H` "maps the unique group member identifiers randomly
/// into the interval \[0,1\]"; this is the numeric half of that mapping.
#[inline]
pub fn unit_interval(hash: u64) -> f64 {
    // Use the top 53 bits so the result is uniform over representable doubles.
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic random number generator with cheap stream forking.
///
/// Wraps [`Xoshiro256PlusPlus`] (not cryptographic — appropriate for
/// simulation). `fork(label)` derives an independent stream from the
/// current seed and a label, so subsystems cannot perturb each other.
///
/// ```
/// use gridagg_simnet::rng::DetRng;
///
/// let mut a = DetRng::seeded(7);
/// let mut b = DetRng::seeded(7);
/// assert_eq!(a.unit(), b.unit()); // same seed, same stream
/// let mut fork = a.fork(1);       // independent labelled stream
/// assert!((0.0..1.0).contains(&fork.unit()));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: Xoshiro256PlusPlus,
}

impl DetRng {
    /// Create a generator from a seed.
    pub fn seeded(seed: u64) -> Self {
        DetRng {
            seed,
            inner: Xoshiro256PlusPlus::seed_from_u64(splitmix64(seed)),
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream for a labelled subsystem.
    ///
    /// Forking with the same `(seed, label)` always yields the same stream.
    pub fn fork(&self, label: u64) -> DetRng {
        DetRng::seeded(splitmix64(
            self.seed ^ splitmix64(label.wrapping_add(0xA5A5_5A5A)),
        ))
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        unit_interval(self.inner.next_u64())
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    ///
    /// `p <= 0.0` always returns `false`; `p >= 1.0` always returns `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "DetRng::below called with bound 0");
        // Rejection-free mapping via 128-bit multiply (Lemire). Bias is
        // negligible for simulation bounds (< 2^32).
        let x = self.inner.next_u64();
        (((x as u128) * (bound as u128)) >> 64) as usize
    }

    /// Choose a random element of a slice, or `None` when empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }

    /// Sample up to `m` *distinct* indices from `0..len`, excluding `skip`.
    ///
    /// This is the paper's gossipee selection: "randomly selecting a few
    /// gossipees only from among other members" of the current scope. Uses
    /// a partial Fisher–Yates over a scratch vector for small scopes and
    /// rejection sampling for large ones.
    pub fn sample_distinct(&mut self, len: usize, skip: Option<usize>, m: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_distinct_into(len, skip, m, &mut out);
        out
    }

    /// Allocation-free variant of [`DetRng::sample_distinct`]: writes the
    /// picks into `out` (cleared first), so round-loops can reuse one
    /// scratch buffer. Draws the *exact same* random sequence as
    /// `sample_distinct` for the same inputs — callers may switch between
    /// the two without perturbing a seeded run.
    pub fn sample_distinct_into(
        &mut self,
        len: usize,
        skip: Option<usize>,
        m: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let available = len - usize::from(skip.is_some_and(|s| s < len));
        let take = m.min(available);
        if take == 0 {
            return;
        }
        // Rejection sampling is cheap when take << len.
        if len > 8 * take + 8 {
            out.reserve(take);
            while out.len() < take {
                let c = self.below(len);
                if Some(c) != skip && !out.contains(&c) {
                    out.push(c);
                }
            }
            return;
        }
        // Partial Fisher–Yates over the candidate pool. The pool is
        // bounded by `8·take + 8` here, so a stack buffer covers every
        // realistic fanout without touching the heap.
        let mut stack = [0usize; 128];
        let mut heap;
        let pool: &mut [usize] = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap = vec![0usize; len];
            &mut heap[..]
        };
        let mut filled = 0;
        for i in (0..len).filter(|&i| Some(i) != skip) {
            pool[filled] = i;
            filled += 1;
        }
        let pool = &mut pool[..filled];
        for i in 0..take {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        out.extend_from_slice(&pool[..take]);
    }

    /// Access the raw generator for direct 64-bit draws.
    pub fn raw(&mut self) -> &mut Xoshiro256PlusPlus {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(7);
        let mut b = DetRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let root = DetRng::seeded(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| f1.raw().next_u64()).collect();
        let s1b: Vec<u64> = (0..8).map(|_| f1b.raw().next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| f2.raw().next_u64()).collect();
        assert_eq!(s1, s1b);
        assert_ne!(s1, s2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seeded(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::seeded(99);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = DetRng::seeded(3);
        for bound in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_panics() {
        DetRng::seeded(0).below(0);
    }

    #[test]
    fn sample_distinct_basic() {
        let mut r = DetRng::seeded(5);
        for _ in 0..100 {
            let s = r.sample_distinct(10, Some(3), 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4, "duplicates in {s:?}");
            assert!(!s.contains(&3));
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_distinct_exhausts_pool() {
        let mut r = DetRng::seeded(5);
        let s = r.sample_distinct(3, Some(0), 10);
        let mut d = s.clone();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
    }

    #[test]
    fn sample_distinct_empty_cases() {
        let mut r = DetRng::seeded(5);
        assert!(r.sample_distinct(0, None, 3).is_empty());
        assert!(r.sample_distinct(1, Some(0), 3).is_empty());
        assert!(r.sample_distinct(5, None, 0).is_empty());
    }

    #[test]
    fn sample_distinct_large_scope_rejection_path() {
        let mut r = DetRng::seeded(11);
        let s = r.sample_distinct(10_000, Some(42), 2);
        assert_eq!(s.len(), 2);
        assert_ne!(s[0], s[1]);
        assert!(!s.contains(&42));
    }

    #[test]
    fn sample_distinct_into_draws_identical_sequence() {
        // the buffered variant must be a drop-in replacement: same seed,
        // same picks, on both the pool and rejection paths
        for (len, skip, m) in [(10, Some(3), 4), (10_000, Some(42), 2), (3, None, 8)] {
            let mut a = DetRng::seeded(21);
            let mut b = DetRng::seeded(21);
            let mut buf = vec![999; 8]; // stale contents must be cleared
            for _ in 0..50 {
                let plain = a.sample_distinct(len, skip, m);
                b.sample_distinct_into(len, skip, m, &mut buf);
                assert_eq!(plain, buf);
            }
            assert_eq!(a.raw().next_u64(), b.raw().next_u64(), "streams aligned");
        }
    }

    #[test]
    fn splitmix_is_bijective_sample() {
        // distinct inputs -> distinct outputs (spot check)
        let outs: std::collections::BTreeSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn unit_interval_bounds() {
        assert_eq!(unit_interval(0), 0.0);
        assert!(unit_interval(u64::MAX) < 1.0);
    }
}
