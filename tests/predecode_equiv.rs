//! Corpus-wide interpreter equivalence: the one instruction body
//! ([`tvm::scheduler::run`], driving [`tvm::machine::Machine::step_into`],
//! which runs [`tvm::exec::step`] over the program's [`tvm::isa::Instr`]
//! stream) must produce a step-for-step identical [`StepInfo`] stream to
//! the seed interpreter ([`tvm::scheduler::run_reference`], a second body
//! over `Instr` written against the machine directly) — on every corpus
//! pattern, under more than one schedule.
//!
//! This is the widest pin on `step`: any divergence in operand use,
//! branch-target handling, sequencer-point flagging, fault ordering, or
//! scheduler interaction shows up as the first differing step.
//!
//! The corpus raises no fault, so small fixtures cover what it does not:
//! every [`Fault`] kind, every system call, and compare-and-swap success and
//! failure beside read-modify-writes. On the fixtures the native path
//! ([`tvm::scheduler::run_native`]) is also held to `run`: the same run
//! summary, output, thread statuses and end sequencers.

use std::collections::BTreeSet;
use std::sync::Arc;

use tvm::isa::{BinOp, Reg, RmwOp, SysCall};
use tvm::machine::{Fault, Machine, ThreadStatus};
use tvm::memory::{GLOBAL_LIMIT, HEAP_BASE};
use tvm::scheduler::{run, run_native, run_reference, RunConfig};
use tvm::{Observer, ProgramBuilder, StepInfo};
use workloads::corpus::{corpus_program, instance_ids};

/// Records every executed step.
struct Collect {
    steps: Vec<StepInfo>,
}

impl Observer for Collect {
    fn on_step(&mut self, _machine: &Machine, info: &StepInfo) {
        self.steps.push(info.clone());
    }
}

/// Runs `config` over `program` with the given driver, returning the full
/// step stream plus the machine's output.
fn trace_with(
    program: &Arc<tvm::Program>,
    config: &RunConfig,
    driver: fn(&mut Machine, &RunConfig, &mut dyn Observer) -> tvm::scheduler::RunSummary,
) -> (Vec<StepInfo>, Vec<u64>) {
    let mut machine = Machine::new(program.clone());
    let mut observer = Collect { steps: Vec::new() };
    driver(&mut machine, config, &mut observer);
    let output = machine.output().iter().map(|o| o.value).collect();
    (observer.steps, output)
}

#[test]
fn decoded_stream_matches_reference_on_whole_corpus() {
    let schedules = [
        ("rr:2", RunConfig::round_robin(2).with_max_steps(400_000)),
        ("chunk:9:1:6", RunConfig::chunked(9, 1, 6).with_max_steps(400_000)),
    ];
    for id in instance_ids() {
        let enabled: BTreeSet<&str> = [id].into_iter().collect();
        let program = corpus_program(&enabled);
        for (name, config) in &schedules {
            let (decoded_steps, decoded_out) = trace_with(&program, config, run);
            let (reference_steps, reference_out) = trace_with(&program, config, run_reference);
            assert_eq!(
                decoded_steps.len(),
                reference_steps.len(),
                "step count diverged for {id} under {name}"
            );
            for (i, (d, r)) in decoded_steps.iter().zip(&reference_steps).enumerate() {
                assert_eq!(d, r, "step {i} diverged for {id} under {name}");
            }
            assert_eq!(decoded_out, reference_out, "output diverged for {id} under {name}");
        }
    }
}

#[test]
fn decoded_stream_matches_reference_on_full_corpus_program() {
    // All patterns enabled at once: cross-pattern interleavings exercise
    // preemption points no single-instance run reaches.
    let enabled: BTreeSet<&str> = instance_ids().into_iter().collect();
    let program = corpus_program(&enabled);
    let config = RunConfig::round_robin(3).with_max_steps(400_000);
    let (decoded_steps, decoded_out) = trace_with(&program, &config, run);
    let (reference_steps, reference_out) = trace_with(&program, &config, run_reference);
    assert_eq!(decoded_steps, reference_steps);
    assert_eq!(decoded_out, reference_out);
}

/// A named program and the faults its threads must end with (in thread
/// order; `None` for a thread that halts).
type Fixture = (&'static str, Arc<tvm::Program>, Vec<Option<Fault>>);

/// One fixture per fault kind, the system calls, and the atomics.
fn fixtures() -> Vec<Fixture> {
    let (r0, r1, r2, r3, r4, r5) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let mut fixtures = Vec::new();
    let mut add = |name, build: &dyn Fn(&mut ProgramBuilder), faults| {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        fixtures.push((name, Arc::new(b.build()), faults));
    };
    // A bystander that prints, yields and stores beside the faulting thread.
    let bystander = |b: &mut ProgramBuilder| {
        b.thread("bystander");
        b.movi(r1, 0x20).movi(r2, 5).store(r2, r1, 0).syscall(SysCall::Tid).print(r0);
        b.syscall(SysCall::Yield).load(r3, r1, 0).print(r3).halt();
    };
    add(
        "invalid_access",
        &|b| {
            b.thread("load");
            b.movi(r1, GLOBAL_LIMIT).load(r2, r1, 0).halt();
            b.thread("store");
            b.movi(r1, HEAP_BASE).store(r1, r1, 8).halt();
            b.thread("rmw");
            b.movi(r1, GLOBAL_LIMIT).atomic_rmw(RmwOp::Add, r0, r1, 1, r1).halt();
            bystander(b);
        },
        vec![
            Some(Fault::InvalidAccess { addr: GLOBAL_LIMIT }),
            Some(Fault::InvalidAccess { addr: HEAP_BASE + 8 }),
            Some(Fault::InvalidAccess { addr: GLOBAL_LIMIT + 1 }),
            None,
        ],
    );
    add(
        "alloc_past_the_address_space",
        &|b| {
            b.thread("alloc");
            b.movi(r0, u64::MAX).syscall(SysCall::Alloc).halt();
            bystander(b);
        },
        vec![Some(Fault::InvalidAccess { addr: HEAP_BASE }), None],
    );
    add(
        "use_after_free",
        &|b| {
            for (name, load) in [("load", true), ("cas", false)] {
                b.thread(name);
                b.movi(r0, 2).syscall(SysCall::Alloc).mov(r5, r0).movi(r1, 7).store(r1, r5, 1);
                b.syscall(SysCall::Free);
                if load {
                    b.load(r2, r5, 1);
                } else {
                    b.cas(r2, r5, 1, r1, r1);
                }
                b.halt();
            }
            bystander(b);
        },
        vec![
            Some(Fault::UseAfterFree { addr: HEAP_BASE + 1 }),
            Some(Fault::UseAfterFree { addr: HEAP_BASE + 4 }),
            None,
        ],
    );
    add(
        "invalid_free",
        &|b| {
            b.thread("off_base");
            b.movi(r0, 2).syscall(SysCall::Alloc).addi(r0, r0, 1).syscall(SysCall::Free).halt();
            b.thread("double");
            b.movi(r0, 1).syscall(SysCall::Alloc).mov(r5, r0).syscall(SysCall::Free);
            b.mov(r0, r5).syscall(SysCall::Free).halt();
            bystander(b);
        },
        vec![
            Some(Fault::InvalidFree { addr: HEAP_BASE + 1 }),
            Some(Fault::InvalidFree { addr: HEAP_BASE + 3 }),
            None,
        ],
    );
    add(
        "divide_by_zero",
        &|b| {
            b.thread("div");
            b.movi(r1, 4).bin(BinOp::Div, r0, r1, r2).halt();
            b.thread("rem_imm");
            b.movi(r1, 4).bini(BinOp::Rem, r0, r1, 0).halt();
            bystander(b);
        },
        vec![Some(Fault::DivideByZero), Some(Fault::DivideByZero), None],
    );
    add(
        "call_stack_overflow",
        &|b| {
            b.thread("recurse");
            let f = b.fresh_label("f");
            b.label(f).addi(r1, r1, 1).call(f);
            bystander(b);
        },
        vec![Some(Fault::CallStackOverflow), None],
    );
    add(
        "call_stack_underflow",
        &|b| {
            b.thread("ret");
            let f = b.fresh_label("f");
            b.call(f).ret();
            b.label(f).ret();
            bystander(b);
        },
        vec![Some(Fault::CallStackUnderflow), None],
    );
    add(
        "pc_out_of_range",
        &|b| {
            bystander(b);
            b.thread("jump_past_the_end");
            let end = b.fresh_label("end");
            b.movi(r1, 1).jump(end);
            b.thread("fall_off_the_end");
            b.movi(r1, 1).label(end);
        },
        vec![None, Some(Fault::PcOutOfRange { pc: 13 }), Some(Fault::PcOutOfRange { pc: 13 })],
    );
    add(
        "every_syscall",
        &|b| {
            for name in ["a", "b"] {
                b.thread(name);
                b.syscall(SysCall::Tid).print(r0).syscall(SysCall::Yield).syscall(SysCall::Nop);
                b.movi(r0, 3).syscall(SysCall::Alloc).mov(r5, r0).movi(r1, 9).store(r1, r5, 2);
                b.load(r2, r5, 2).print(r2).mov(r0, r5).syscall(SysCall::Free).print(r0).halt();
            }
        },
        vec![None, None],
    );
    add(
        "atomics",
        &|b| {
            for name in ["a", "b", "c"] {
                b.thread(name);
                b.movi(r1, 0x40).movi(r3, 9);
                // The first CAS from 0 to 9 succeeds; every later one fails.
                b.cas(r4, r1, 0, r2, r3).cas(r5, r1, 0, r2, r3).print(r4).print(r5);
                for op in [RmwOp::Add, RmwOp::Sub, RmwOp::Xchg] {
                    b.atomic_rmw(op, r0, r1, 1, r3).syscall(SysCall::Print);
                }
                b.load(r0, r1, 1).syscall(SysCall::Print).halt();
            }
        },
        vec![None, None, None],
    );
    fixtures
}

#[test]
fn fault_and_syscall_fixtures_match_the_reference_and_the_native_path() {
    let schedules = [
        RunConfig::round_robin(1),
        RunConfig::round_robin(3),
        RunConfig::chunked(9, 1, 6),
        RunConfig::random(5),
    ];
    for (name, program, faults) in fixtures() {
        for config in &schedules {
            let (steps, out) = trace_with(&program, config, run);
            let (reference_steps, reference_out) = trace_with(&program, config, run_reference);
            assert_eq!(steps, reference_steps, "{name} under {config:?}");
            assert_eq!(out, reference_out, "{name} under {config:?}");

            let mut observed = Machine::new(program.clone());
            let mut native = Machine::new(program.clone());
            let summary = run(&mut observed, config, &mut ());
            assert_eq!(run_native(&mut native, config), summary, "{name} under {config:?}");
            assert!(summary.completed, "{name} under {config:?}");
            assert_eq!(native.output(), observed.output(), "{name} under {config:?}");
            let ended: Vec<Option<Fault>> = observed
                .threads()
                .iter()
                .map(|t| match t.status() {
                    ThreadStatus::Faulted(fault) => Some(fault),
                    status => {
                        assert_eq!(status, ThreadStatus::Halted, "{name}");
                        None
                    }
                })
                .collect();
            assert_eq!(ended, faults, "{name} under {config:?}");
            for (o, n) in observed.threads().iter().zip(native.threads()) {
                assert_eq!(n.status(), o.status(), "{name} under {config:?}");
                assert_eq!(n.end_seq(), o.end_seq(), "{name} under {config:?}");
                assert_eq!(
                    (n.regs(), n.pc(), n.call_stack()),
                    (o.regs(), o.pc(), o.call_stack()),
                    "{name} under {config:?}"
                );
            }
        }
    }
}
