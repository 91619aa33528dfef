//! # idna-replay — record/replay substrate for `replay-race`
//!
//! A from-scratch reproduction of the iDNA framework (Bhansali et al., VEE
//! 2006) as used by *Automatically Classifying Benign and Harmful Data Races
//! Using Replay Analysis* (PLDI 2007), targeting the [`tvm`] virtual machine
//! instead of x86 binaries:
//!
//! * [`recorder`] — load-based checkpointing: per-thread logs of
//!   unreproducible load values, system-call results, and globally
//!   timestamped *sequencers* at every lock-prefixed instruction and system
//!   call (§3.1–3.2).
//! * [`replayer`] — deterministic replay, one sequencing region at a time in
//!   global sequencer order, producing a queryable [`ReplayTrace`] (§3.3).
//!   It re-executes with the machine's own instruction body,
//!   [`tvm::exec::step`], reading values from the thread's log. The same
//!   body runs every phase of the virtual processor, from recorded values
//!   or from its virtual memory, and time travel
//!   ([`ReplayTrace::state_before`], the state before any recorded
//!   instruction).
//! * [`region`] — sequencing regions and the overlap relation that defines
//!   happens-before data races (§3.4).
//! * [`vproc`] — the virtual processor that replays a racing region pair
//!   under **both** orders of the conflicting operations and reports
//!   comparable live-outs or a *replay failure* (§4.2).
//! * [`codec`] — compact binary log encoding with per-thread checksummed
//!   frames and corruption-tolerant decoding, plus LZSS compression for
//!   the paper's bits-per-instruction study (§5.1).
//! * [`damage`] — damage horizons: what a tolerantly decoded log no longer
//!   knows, consulted by the virtual processor's live-in fetches.
//! * [`verify`] — the fidelity checker for the record/replay pair itself.
//!
//! # Record, replay, and compare both orders
//!
//! ```
//! use idna_replay::recorder::record;
//! use idna_replay::replayer::replay;
//! use tvm::{ProgramBuilder, RunConfig};
//! use tvm::isa::Reg;
//!
//! let mut b = ProgramBuilder::new();
//! b.thread("main");
//! b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0x8).fence().halt();
//! let program: std::sync::Arc<tvm::Program> = b.build().into();
//!
//! let recording = record(&program, &RunConfig::round_robin(10));
//! let trace = replay(&program, &recording.log)?;
//! assert_eq!(trace.regions().len(), 2); // split by the fence sequencer
//! # Ok::<(), idna_replay::replayer::ReplayError>(())
//! ```
//!
//! [`ReplayTrace`]: replayer::ReplayTrace
//! [`ReplayTrace::state_before`]: replayer::ReplayTrace::state_before

pub mod codec;
pub mod damage;
pub mod event;
pub mod recorder;
pub mod region;
pub mod replayer;
pub mod verify;
pub mod vproc;

pub use codec::{DecodeMode, DecodeReport, FrameInfo, FrameStatus, LogWriter};
pub use damage::{ThreadDamage, TraceDamage};
pub use event::{EndStatus, ReplayLog, ThreadEvent, ThreadLog};
pub use recorder::{record, record_with, Recorder, Recording};
pub use region::{Region, RegionId};
pub use replayer::{replay, replay_with, ReplayError, ReplayTrace, ReplayedRegion, ThreadSnapshot};
pub use vproc::{
    AccessSite, BatchStats, PairLiveOut, PairOrder, ReplayFailure, Vproc, VprocConfig,
};
