//! # tvm — a tiny deterministic multi-threaded virtual machine
//!
//! `tvm` is the execution substrate for the `replay-race` reproduction of
//! *Automatically Classifying Benign and Harmful Data Races Using Replay
//! Analysis* (Narayanasamy et al., PLDI 2007). The paper instruments x86
//! binaries with iDNA; this crate plays the role of the bare machine:
//!
//! * a small RISC-like [ISA](isa) with plain loads/stores, **lock-prefixed
//!   atomic instructions**, and **system calls** — the two instruction
//!   classes iDNA marks with sequencers,
//! * [sparse word memory](memory) with a heap allocator that faults on
//!   use-after-free and double-free (so harmful races crash, as in the
//!   paper's Figure 2),
//! * per-thread architectural state and an [interpreter](exec) that reports
//!   every executed instruction to an [`exec::Observer`],
//! * [seeded, fully deterministic scheduling](scheduler) so recorded
//!   executions are reproducible.
//!
//! # Quickstart
//!
//! ```
//! use tvm::builder::ProgramBuilder;
//! use tvm::isa::Reg;
//! use tvm::machine::Machine;
//! use tvm::scheduler::{run, RunConfig};
//!
//! let mut b = ProgramBuilder::new();
//! b.thread("main");
//! b.movi(Reg::R0, 7).print(Reg::R0).halt();
//! let mut machine = Machine::new(b.build().into());
//! let summary = run(&mut machine, &RunConfig::round_robin(10), &mut ());
//! assert!(summary.completed);
//! assert_eq!(machine.output()[0].value, 7);
//! ```

pub mod asm;
pub mod builder;
pub mod exec;
pub mod fasthash;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod pagestore;
pub mod predecode;
pub mod program;
pub mod rng;
pub mod scheduler;

pub use builder::ProgramBuilder;
pub use exec::{AccessKind, MemAccessEvent, NativeOutcome, Observer, StepInfo};
pub use isa::{Instr, Reg};
pub use machine::{Fault, Machine, ThreadStatus};
pub use predecode::DecodedProgram;
pub use program::{Program, ThreadSpec};
pub use scheduler::{run, run_native, run_reference, RunConfig, SchedulePolicy};
