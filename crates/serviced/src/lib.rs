//! `racerepd`: the persistent race-classification service.
//!
//! Every capability in this workspace — record/replay, detection, the
//! PLDI 2007 dual-order replay classification, static triage, batched
//! replay — runs here as a long-lived daemon instead of a one-shot CLI:
//!
//! * [`server`] — `racerep serve`: a TCP accept loop with explicit
//!   admission control over a bounded queue, a worker pool running the
//!   one-shot analysis path (`replay_race::pipeline::analyze_log`), and
//!   graceful drain on SIGTERM/ctrl-c or a protocol `shutdown`.
//! * [`client`] — `racerep submit` / `racerep svc-stats`: one-frame
//!   request/response helpers with busy-retry.
//! * [`proto`] — the wire format: length-prefixed, fasthash-checksummed
//!   JSON frames, versioned like the v2 log format.
//! * [`cache`] — the persistent report cache: one checksummed record file
//!   per workload (program, log and the options that change a report),
//!   holding the finished report, written once before the answer goes out.
//! * [`container`] — the on-disk log container format (moved here from
//!   the CLI so the service can decode submissions without it).
//!
//! The server's submit responses embed the *same JSON value* one-shot
//! `racerep races --format json` prints, so clients re-rendering it with
//! the deterministic pretty-printer get byte-identical reports — goldens
//! pin both paths at once.

pub mod cache;
pub mod client;
pub mod container;
pub mod proto;
pub mod server;

pub use cache::{ReportCache, WorkloadKey};
pub use server::{Server, ServerConfig};
