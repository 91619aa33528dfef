//! Machine-speed calibration, so that times taken on a shared host compare
//! from one run to the next.
//!
//! The hosts this benchmark runs on share their last-level cache and memory
//! with other tenants, whose load comes and goes over seconds to minutes.
//! While it lasts, the benchmark's ops run up to 1.8 times slower: five
//! consecutive 30 s runs of `corpus-triage`, whose inputs never change,
//! spread by 42% (first to third quartile of their median latencies, as a
//! share of the median). So before every timed op and every set-up the
//! benchmark times a fixed random walk over a buffer that lives in that
//! shared cache, and scales the op's wall time by how much faster or slower
//! than [`REFERENCE_MS`] the walks around it ran. The same five runs,
//! scaled, spread by 5%.
//!
//! The scaling is not exact. In the heaviest stretches the walk slows by
//! more than the ops do, and which tenant load slows what varies, so
//! scaled runs still spread by up to 15%; unscaled ones, up to 42%. It
//! applies only to ops whose work runs on the thread that walks
//! (`Workload::SCALED`).
//!
//! The walk is the benchmark's own code, independent of the program it
//! measures, so a change to the program cannot move it. It runs once
//! untimed before each timed walk, which leaves the buffer in the same
//! cache state whatever the op before it touched.

use std::time::Instant;

use tvm::rng::SplitMix64;

use crate::harness::percentile;

/// Words in the walk's buffer: 16 MiB, far more than a core's private
/// cache holds and well inside the shared last-level cache.
const WORDS: usize = 1 << 21;

/// Reads and writes per walk.
const STEPS: u32 = 200_000;

/// The walk's time, in ms, on the reference machine. Every time this
/// benchmark reports is scaled to a machine that walks this fast: about a
/// calm stretch of the 2-core x86-64 VM the baseline was measured on.
pub const REFERENCE_MS: f64 = 2.5;

/// Walks timed on each side of an op; the op's time is scaled by their
/// median.
const NEIGHBOURS: usize = 4;

/// Walks timed before a set-up; the set-up's time is scaled by their median.
const SETUP_WALKS: usize = 5;

/// The calibration walk and its buffer.
pub struct Calibrator {
    words: Vec<u64>,
}

impl Calibrator {
    #[must_use]
    pub fn new() -> Calibrator {
        Calibrator { words: (0..WORDS as u64).collect() }
    }

    /// Heap bytes the buffer holds, which the peak heap leaves out.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    fn walk(&mut self) {
        let mask = self.words.len() - 1;
        let mut rng = SplitMix64::new(0);
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let x = rng.next_u64();
            let i = usize::try_from(x).unwrap_or_default() & mask;
            acc = acc.wrapping_add(self.words[i]).rotate_left(5) ^ x;
            self.words[i] = acc;
        }
        std::hint::black_box(acc);
    }

    /// Times one walk, in ms, after an untimed one.
    pub fn time_ms(&mut self) -> f64 {
        self.walk();
        let start = Instant::now();
        self.walk();
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The factor that scales a time taken now to the reference speed.
    pub fn factor_now(&mut self) -> f64 {
        let walks: Vec<f64> = (0..SETUP_WALKS).map(|_| self.time_ms()).collect();
        REFERENCE_MS / percentile(&walks, 0.5)
    }
}

/// Each `(wall_ms, walk_ms)` sample's wall time scaled to the reference
/// speed, by the median walk time of the samples up to [`NEIGHBOURS`] on
/// either side of it.
#[must_use]
pub fn scaled(samples: &[(f64, f64)]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let around =
                &samples[i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS + 1).min(samples.len())];
            let walks: Vec<f64> = around.iter().map(|&(_, walk)| walk).collect();
            samples[i].0 * REFERENCE_MS / percentile(&walks, 0.5)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_scales_back_to_the_reference() {
        let mut samples = vec![(10.0, REFERENCE_MS); 5];
        samples.extend([(20.0, 2.0 * REFERENCE_MS); 10]);
        let got = scaled(&samples);
        assert!((got[0] - 10.0).abs() < 1e-9 && (got[14] - 10.0).abs() < 1e-9, "{got:?}");
    }

    #[test]
    fn one_disturbed_walk_does_not_move_its_neighbours() {
        let mut samples = vec![(10.0, REFERENCE_MS); 9];
        samples[4].1 *= 10.0;
        assert!(scaled(&samples).iter().all(|&ms| (ms - 10.0).abs() < 1e-9));
    }
}
