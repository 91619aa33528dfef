//! The closed loop that drives a workload, and the statistics it reports.
//!
//! One client sends its next op only after the previous one has completed.
//! The timed phase runs for a fixed wall-clock time (or, in smoke mode, a
//! fixed op count) after untimed warm-up ops. An op's latency covers only
//! the user-visible call chain: making its input, timing the calibration
//! walk (see [`crate::speed`]) and checking its output happen outside the
//! timer.
//!
//! One client, because the hosts this benchmark runs on give it two cores
//! shared with other tenants: with two clients, two server workers and a
//! recording client all busy at once, a run measured the scheduler and the
//! disk as much as the program.

use std::time::{Duration, Instant};

use tvm::rng::SplitMix64;

use crate::speed::Calibrator;
use crate::trace::{OpTrace, Span};

/// Input size of a run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The workload as benchmarked.
    Full,
    /// Tiny inputs, for the smoke test.
    Smoke,
}

/// Layer metrics a workload measures outside the span fold, and failures
/// it can only detect once every op has finished.
#[derive(Debug, Default)]
pub struct Finish {
    pub late_failures: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// What one op needs, made outside the op's timing.
    type Input;
    /// What one op produces, checked outside the op's timing.
    type Output;

    /// Whether the workload's times are scaled to the reference speed by
    /// the calibration walk (see [`crate::speed`]). The walk runs on the
    /// client's thread, so it tracks the speed of ops whose work runs
    /// there; ops whose work runs on a thread of their own report their
    /// wall-clock times.
    const SCALED: bool = true;

    /// The input of op number `index`.
    ///
    /// # Errors
    ///
    /// Fails when the input cannot be made.
    fn input(&self, index: u64) -> Result<Self::Input, String>;

    /// The op whose latency is measured.
    ///
    /// # Errors
    ///
    /// Any error a layer returns.
    fn op(&self, input: &Self::Input, trace: &mut OpTrace<'_>) -> Result<Self::Output, String>;

    /// Checks one op's output against its reference.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    fn check(&self, input: Self::Input, output: Self::Output) -> Result<(), String>;

    /// Called just before the timed phase starts.
    ///
    /// # Errors
    ///
    /// Fails when the workload cannot snapshot its counters.
    fn begin(&self) -> Result<(), String> {
        Ok(())
    }

    /// Called after the timed phase, with the mean wall-clock op latency
    /// over it.
    ///
    /// # Errors
    ///
    /// Fails when the workload cannot read its counters.
    fn end(&self, _mean_latency_ms: f64) -> Result<Finish, String> {
        Ok(Finish::default())
    }

    /// Runs op `index`'s program and schedule once, uninstrumented, and
    /// returns the instructions executed: the native baseline of the
    /// paper's §5.1 ratios.
    fn native_run(&self, index: u64) -> u64;
}

/// How long the timed phase runs.
#[derive(Copy, Clone, Debug)]
pub enum Length {
    Seconds(f64),
    Ops(u64),
}

/// One timed op.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Wall-clock latency.
    pub ms: f64,
    /// The calibration walk timed just before the op.
    pub walk_ms: f64,
    pub traced: bool,
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every timed op, in order.
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// First error messages, for the log.
    pub errors: Vec<String>,
    /// Peak live heap, in MiB, over the first [`HEAP_OPS`] timed ops (the
    /// whole timed phase when it ran fewer), leaving out the calibration
    /// buffer.
    pub peak_heap_mb: f64,
    pub spans: Vec<Span>,
}

impl Measured {
    /// Every timed op's `(wall_ms, walk_ms)`, for [`crate::speed::scaled`].
    #[must_use]
    pub fn timings(&self) -> Vec<(f64, f64)> {
        self.samples.iter().map(|s| (s.ms, s.walk_ms)).collect()
    }
}

const KEPT_ERRORS: usize = 5;

/// Timed ops the peak heap is taken over. A server's replay store grows
/// with every new submission, so a peak over the whole timed phase would
/// grow with throughput; over a fixed op count it compares across commits.
pub const HEAP_OPS: u64 = 50;

/// Runs `warmup` untimed ops, then the timed phase. With `trace`, half the
/// timed ops record spans; the others give the untraced latencies the
/// tracing overhead is measured against.
///
/// # Errors
///
/// Fails when a warm-up op fails, an input cannot be made, or the
/// workload's `begin`/`end` hooks fail.
pub fn closed_loop<W: Workload>(
    workload: &W,
    calibrator: &mut Calibrator,
    name: &str,
    length: Length,
    warmup: u64,
    trace: bool,
    origin: Instant,
) -> Result<(Measured, Finish), String> {
    for index in 0..warmup {
        let input = workload.input(index)?;
        let output = workload.op(&input, &mut OpTrace::new(false, origin, name, 0))?;
        workload.check(input, output).map_err(|e| format!("warm-up op: {e}"))?;
    }

    workload.begin()?;
    // The peak heap then reflects the ops, not the reference runs of set-up.
    crate::heap::reset_peak();
    let buffer_mb = calibrator.bytes() as f64 / (1024.0 * 1024.0);
    let mut measured = Measured::default();
    let start = Instant::now();
    for timed in 0.. {
        let done = match length {
            Length::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Length::Ops(n) => timed >= n,
        };
        if done {
            break;
        }
        let input = workload.input(warmup + timed)?;
        let walk_ms = calibrator.time_ms();
        // A pseudo-random half of the ops, so the traced half does not line
        // up with a workload's input cycle.
        let traced = trace && SplitMix64::new(timed).next_u64() % 2 == 1;
        let mut t = OpTrace::new(traced, origin, name, timed);
        let op_start = Instant::now();
        let output = workload.op(&input, &mut t);
        let op_end = Instant::now();
        let error = output.and_then(|o| workload.check(input, o)).err();
        let ms = (op_end - op_start).as_secs_f64() * 1e3;
        measured.samples.push(Sample { ms, walk_ms, traced });
        if let Some(e) = &error {
            measured.failed += 1;
            if measured.errors.len() < KEPT_ERRORS {
                measured.errors.push(format!("op {timed}: {e}"));
            }
        }
        measured.spans.extend(t.finish(op_start, op_end, error));
        if timed < HEAP_OPS {
            measured.peak_heap_mb = crate::heap::peak_mb() - buffer_mb;
        }
    }
    let wall_ms: Vec<f64> = measured.samples.iter().map(|s| s.ms).collect();
    let finish = workload.end(mean(&wall_ms))?;
    measured.failed += finish.late_failures;
    Ok((measured, finish))
}

/// Runs `setup` `times` times, keeping only the last result alive (each
/// earlier one is dropped before the next starts, so servers, ports and
/// scratch directories never overlap). Returns it with every set-up's time
/// in seconds, scaled to the reference speed by calibration walks timed
/// just before it when the workload is [`Workload::SCALED`].
///
/// # Errors
///
/// Propagates the first setup failure.
pub fn repeated_setup<W: Workload>(
    times: usize,
    calibrator: &mut Calibrator,
    setup: impl Fn() -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut kept: Option<W> = None;
    let mut seconds = Vec::with_capacity(times);
    for _ in 0..times.max(1) {
        drop(kept.take());
        let factor = if W::SCALED { calibrator.factor_now() } else { 1.0 };
        let start = Instant::now();
        let workload = setup()?;
        seconds.push(start.elapsed().as_secs_f64() * factor);
        kept = Some(workload);
    }
    Ok((kept.expect("setup ran at least once"), seconds))
}

/// Times native runs, cycling through the ops' inputs, for at least
/// `min`. Returns (ms per run, Minstr/s), both wall-clock.
pub fn native<W: Workload>(workload: &W, min: Duration) -> (f64, f64) {
    let start = Instant::now();
    let mut runs = 0u64;
    let mut instructions = 0u64;
    while runs == 0 || start.elapsed() < min {
        instructions += std::hint::black_box(workload.native_run(runs));
        runs += 1;
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds * 1e3 / runs as f64, instructions as f64 / seconds / 1e6)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's peak resident set size (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
