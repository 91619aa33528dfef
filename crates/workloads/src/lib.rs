//! # workloads — the evaluation corpus for `replay-race`
//!
//! The PLDI 2007 paper evaluates its classifier on 18 recorded executions
//! of Windows Vista and Internet Explorer services, containing 68 unique
//! data races whose benign/harmful ground truth the authors established by
//! manual triage (Tables 1–2, Figures 3–5).
//!
//! This crate regenerates that study synthetically:
//!
//! * [`patterns`] implements one emitter per entry in the paper's own race
//!   taxonomy — user-constructed synchronization, double checks,
//!   both-values-valid, redundant writes, disjoint bit manipulation,
//!   approximate computation, plus the harmful patterns (the Figure 2
//!   refcount bug, racy publication, dangling pointers);
//! * every pattern returns a [`truth`] manifest labelling the races it
//!   plants, playing the role of the paper's manual triage;
//! * [`corpus`] composes the patterns into one multi-service program and
//!   defines the 18 recorded executions (distinct service mixes and
//!   schedules over the same binary);
//! * [`eval`] runs the pipeline over the corpus and joins the results with
//!   the manifests to regenerate Table 1, Table 2, and Figures 3–5;
//! * [`browser`] is the Internet-Explorer stand-in used for the §5.1
//!   overhead and log-size study;
//! * [`baselines`] holds the classic online detectors the paper compares
//!   against (vector-clock happens-before, the Eraser lockset algorithm,
//!   and their hybrid), and [`lockset_feed`] and [`static_feed`] feed
//!   lockset and static warnings through the replay classifier for the
//!   ablations.

pub mod baselines;
pub mod browser;
pub mod corpus;
pub mod eval;
pub mod lockset_feed;
pub mod patterns;
pub mod static_feed;
pub mod truth;

pub use corpus::{corpus_executions, corpus_manifest, corpus_program, Execution};
pub use eval::{run_corpus, run_static_eval, CorpusReport, Figure, StaticEval, Table1, Table2};
pub use truth::{BenignCategory, GroundTruthRace, HarmfulKind, TrueVerdict, TruthTable};
