//! The benchmark's own seeded generator (SplitMix64): request streams and
//! parameter bindings derive from `--seed` and nothing else, so the same
//! seed replays the same inputs on any commit.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the clients' draws apart.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, lane: u64) -> Vec<usize> {
        let mut r = Rng::new(seed, lane);
        (0..64).map(|_| r.below(1000)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(7, 0), stream(7, 0));
        assert_ne!(stream(7, 0), stream(8, 0));
        assert_ne!(stream(7, 0), stream(7, 1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..22).collect();
        let mut b = a.clone();
        Rng::new(3, 0).shuffle(&mut a);
        Rng::new(3, 0).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..22).collect::<Vec<_>>());
    }
}
