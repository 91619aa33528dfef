//! The one wall-clock sampler of the bench binaries and `[[bench]]`
//! targets.
//!
//! The workspace builds offline, so the benches cannot pull Criterion.
//! Every timing follows one rule: run the operation back to back until at
//! least [`BUDGET`] has passed and at least [`MIN_RUNS`] runs were timed,
//! and report the median with p10, p90 and the run count. One run of a
//! small operation takes about a millisecond, so a few runs cannot resolve
//! a change of a few percent.

use std::time::{Duration, Instant};

use minijson::Json;

/// Least wall-clock time a sample spans.
pub const BUDGET: Duration = Duration::from_millis(100);
/// Least number of runs in a sample, so that its p10 and p90 each have at
/// least ten runs beyond them.
pub const MIN_RUNS: usize = 100;

/// Wall-clock times of back-to-back runs of one operation, sorted.
pub struct Samples(Vec<Duration>);

impl Samples {
    /// A sample of runs timed elsewhere.
    #[must_use]
    pub fn new(mut runs: Vec<Duration>) -> Self {
        runs.sort_unstable();
        Samples(runs)
    }

    /// Runs `f` back to back until [`BUDGET`] has passed and at least
    /// [`MIN_RUNS`] runs were timed. Each result goes through
    /// [`std::hint::black_box`], so the optimizer cannot delete the work.
    pub fn take<R>(mut f: impl FnMut() -> R) -> Self {
        let mut runs = Vec::new();
        let mut total = Duration::ZERO;
        while total < BUDGET || runs.len() < MIN_RUNS {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed();
            total += elapsed;
            runs.push(elapsed);
        }
        Samples::new(runs)
    }

    /// The `q` quantile (nearest rank), `0.0..=1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((self.0.len() - 1) as f64 * q).round() as usize;
        self.0[rank]
    }

    #[must_use]
    pub fn median(&self) -> Duration {
        self.quantile(0.5)
    }

    /// The number of runs timed.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.0.len()
    }

    /// `items` per second at the median.
    #[must_use]
    pub fn per_second(&self, items: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let items = items as f64;
        items / self.median().as_secs_f64().max(1e-12)
    }

    /// `median [p10, p90; runs]` for a text report, each time in the unit
    /// that fits it (from nanoseconds to seconds).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{:.2?} [p10 {:.2?}, p90 {:.2?}; {} runs]",
            self.median(),
            self.quantile(0.1),
            self.quantile(0.9),
            self.runs()
        )
    }

    /// The JSON fields `{key}_ms` (the median), `{key}_p10_ms`,
    /// `{key}_p90_ms` and `{key}_runs`.
    #[must_use]
    pub fn fields(&self, key: &str) -> Vec<(String, Json)> {
        vec![
            (format!("{key}_ms"), Json::from(ms(self.median()))),
            (format!("{key}_p10_ms"), Json::from(ms(self.quantile(0.1)))),
            (format!("{key}_p90_ms"), Json::from(ms(self.quantile(0.9)))),
            (format!("{key}_runs"), Json::from(self.runs())),
        ]
    }

    /// The JSON fields `{key}` (the median over `per`), `{key}_p10`,
    /// `{key}_p90` and `{key}_runs`: the sample as multiples of `per`.
    #[must_use]
    pub fn ratio_fields(&self, key: &str, per: Duration) -> Vec<(String, Json)> {
        let ratio = |d: Duration| d.as_secs_f64() / per.as_secs_f64().max(1e-12);
        vec![
            (key.to_string(), Json::from(ratio(self.median()))),
            (format!("{key}_p10"), Json::from(ratio(self.quantile(0.1)))),
            (format!("{key}_p90"), Json::from(ratio(self.quantile(0.9)))),
            (format!("{key}_runs"), Json::from(self.runs())),
        ]
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
