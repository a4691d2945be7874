//! Host-speed calibration. Shared hosts drift by tens of percent over
//! minutes, beyond any useful regression bound. Before every timed compile
//! of a direct workload (and every reference compile of a serve set-up) the
//! benchmark times a fixed piece of its own work, and divides the round's
//! CPU-bound times by the median of its samples over the reference value.
//! None of this code belongs to the program under test, so a faster
//! compiler still shows as faster.
//!
//! The work has two halves of about equal time, one per host property the
//! compile time depends on: single-thread speed (graph search, hashing and
//! sorting over about half a MiB) and the cost of starting threads, which
//! `hca-par` does for every parallel SEE step. In 1.5- and 10-minute runs
//! on the reference host, the half-and-half mix left about half the drift
//! of per-kernel medians that the compute half alone left.

use crate::stats::median;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Median calibration time on the reference host (a quiet 2-vCPU VM at
/// 2.0 GHz), so calibrated times read as milliseconds on that host.
pub const REFERENCE_MS: f64 = 3.4;

/// Time one run of the calibration work, in milliseconds.
pub fn sample_ms() -> f64 {
    let t0 = Instant::now();
    black_box(compute(black_box(0x5EED)));
    for i in 0..40u64 {
        std::thread::scope(|s| {
            for j in 0..2u64 {
                s.spawn(move || black_box(i ^ j));
            }
        });
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host these samples ran.
pub fn factor(samples_ms: &[f64]) -> f64 {
    median(samples_ms) / REFERENCE_MS
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The single-thread half; returns a checksum so none of it can be elided.
fn compute(seed: u64) -> u64 {
    const NODES: usize = 10_000;
    let mut rng = seed;
    let adj: Vec<Vec<u32>> = (0..NODES)
        .map(|_| {
            (0..4)
                .map(|_| (next(&mut rng) % NODES as u64) as u32)
                .collect()
        })
        .collect();
    let mut sum = 0u64;
    let mut dist = vec![u32::MAX; NODES];
    let mut queue = VecDeque::new();
    for source in 0..4u32 {
        dist.fill(u32::MAX);
        dist[source as usize] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        sum = sum.wrapping_add(dist.iter().map(|&d| u64::from(d)).sum::<u64>());
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..NODES {
        *counts.entry(next(&mut rng) % 4096).or_default() += 1;
    }
    sum = sum.wrapping_add(counts.values().max().copied().unwrap_or(0));
    let mut keys: Vec<u64> = (0..NODES).map(|_| next(&mut rng)).collect();
    keys.sort_unstable();
    sum.wrapping_add(keys[NODES / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_fixed_work() {
        assert_eq!(compute(1), compute(1));
        assert_ne!(compute(1), compute(2));
        assert!(sample_ms() > 0.0);
        assert_eq!(
            factor(&[REFERENCE_MS, 2.0 * REFERENCE_MS, 4.0 * REFERENCE_MS]),
            2.0
        );
    }
}
