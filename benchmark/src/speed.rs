//! Machine-speed calibration.
//!
//! The box this benchmark runs on is a shared 2-vCPU VM whose speed moves
//! by ±15 % and more for minutes at a time (every workload of a slow
//! minute is slow together, and a fixed CPU loop slows with them). Ten
//! runs of unchanged code then spread wider than any bound worth having.
//! So every run times a small fixed kernel again and again between its
//! requests, and reports its timings at *reference speed*: scaled by how
//! much slower or faster than [`REF_MS`] the kernel ran while they were
//! taken. Measured on alternating runs, that takes the quartile spread
//! of `req_p50_ms` from 21 % to 14 % (`cold_prepare`) and from 8 % to
//! 4 % (`steady_jit`); what is left is slowness the core's own speed
//! does not explain (shared cache and memory). The raw timings and the
//! factor stay in the run's record.
//!
//! The kernel is a dependent chain of multiply-adds with loads and stores
//! scattered over a buffer that fits the L1 cache: it follows the speed
//! of the core (clock, a busy hyperthread sibling) and stays blind to
//! memory traffic, so a change to how much data the system itself moves
//! does not move the yardstick. It runs on the thread that measures,
//! between requests, without adding a thread that competes for the two
//! cores.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// What the kernel takes on this box in a calm minute. A constant, so
/// that every commit is scaled by the same rule; on another machine all
/// factors shift together and comparisons still hold.
pub const REF_MS: f64 = 0.3;

const BUF_WORDS: usize = 1 << 11; // 16 KiB
const STEPS: usize = 200_000;

pub struct Speed {
    buf: Vec<u64>,
    pub samples_ms: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            buf: (0..BUF_WORDS as u64).collect(),
            samples_ms: Vec::new(),
        }
    }
}

impl Speed {
    /// Run the kernel once and record how long it took.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize & (BUF_WORDS - 1);
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        black_box(acc);
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    pub fn absorb(&mut self, other: Speed) {
        self.samples_ms.extend(other.samples_ms);
    }

    /// How much slower (> 1) or faster (< 1) than reference speed the
    /// machine ran while the samples were taken; 1 without samples.
    pub fn factor(&self) -> f64 {
        factor(&self.samples_ms)
    }
}

pub fn factor(samples_ms: &[f64]) -> f64 {
    if samples_ms.is_empty() {
        1.0
    } else {
        stats::median(samples_ms) / REF_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_median_over_reference() {
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[REF_MS, REF_MS * 2.0, REF_MS * 1.2]), 1.2);
    }

    #[test]
    fn kernel_does_its_work_every_time() {
        let mut s = Speed::default();
        s.sample();
        s.sample();
        assert_eq!(s.samples_ms.len(), 2);
        assert!(s.samples_ms.iter().all(|&ms| ms > 0.0));
        // The chain wrote through the buffer: it is no longer 0, 1, 2, …
        assert!(s.buf.iter().enumerate().any(|(i, &w)| w != i as u64));
    }
}
