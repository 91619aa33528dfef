//! # replay-race — automatic classification of benign and harmful data races
//!
//! A from-scratch Rust reproduction of:
//!
//! > Satish Narayanasamy, Zhenghao Wang, Jordan Tigani, Andrew Edwards, Brad
//! > Calder. *Automatically Classifying Benign and Harmful Data Races Using
//! > Replay Analysis.* PLDI 2007.
//!
//! The paper's pipeline, reproduced end to end on the [`tvm`] virtual
//! machine and the [`idna_replay`] record/replay substrate:
//!
//! 1. **Record** a multi-threaded execution into a replay log
//!    ([`idna_replay::recorder`]).
//! 2. **Replay** it one sequencing region at a time
//!    ([`idna_replay::replayer`]).
//! 3. **Detect** data races with a happens-before algorithm over overlapping
//!    sequencing regions — no false positives ([`detect`]).
//! 4. **Classify** every race by replaying both orders of the racing
//!    operations in a virtual processor and comparing live-outs: same result
//!    ⇒ *potentially benign*; different result or replay failure ⇒
//!    *potentially harmful* ([`classify`]).
//! 5. **Report** each potentially harmful race with a concrete, reproducible
//!    two-way replay scenario ([`report`]).
//!
//! [`pipeline::run_pipeline`] drives all five stages and measures the phase
//! overheads the paper reports in §5.1. Its replay-onward half,
//! [`pipeline::analyze_log`], is the one path from a recorded log to a
//! report that the `racerep` CLI and service also run. The crate holds only
//! what that path runs; the comparison detectors (vector-clock
//! happens-before and the Eraser lockset algorithm) and the ablations that
//! feed their warnings, or static ones, through the classifier live in
//! the `workloads` crate beside the evaluation.
//!
//! # Quickstart
//!
//! ```
//! use replay_race::pipeline::{run_pipeline, PipelineConfig};
//! use replay_race::classify::Verdict;
//! use tvm::{ProgramBuilder, RunConfig};
//! use tvm::isa::Reg;
//!
//! // Two threads store *different* values to the same word: a harmful race.
//! let mut b = ProgramBuilder::new();
//! b.thread("a");
//! b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x20).halt();
//! b.thread("b");
//! b.movi(Reg::R1, 2).store(Reg::R1, Reg::R15, 0x20).halt();
//!
//! let result = run_pipeline(&b.build().into(), &PipelineConfig::new(RunConfig::round_robin(1)))?;
//! assert_eq!(result.classification.with_verdict(Verdict::PotentiallyHarmful).count(), 1);
//! println!("{}", result.report.to_text());
//! # Ok::<(), idna_replay::replayer::ReplayError>(())
//! ```

pub mod classify;
pub mod detect;
pub mod pipeline;
pub mod report;
pub mod triage;

pub use classify::{
    classify_races_with, predictions_by_id, BatchMode, ClassificationResult, ClassifiedInstance,
    ClassifiedRace, ClassifierConfig, InstanceOutcome, OutcomeGroup, StaticPrediction, TrustStatic,
    Verdict,
};
pub use detect::{detect_races, DetectedRaces, DetectorConfig, RaceInstance, StaticRaceId};
pub use pipeline::{analyze_log, run_pipeline, LogAnalysis, PipelineConfig, PipelineResult};
pub use report::{RaceReport, Report};
pub use triage::{ManualVerdict, TriageDb, TriageQueue};
