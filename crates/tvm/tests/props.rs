//! Property-based tests for the VM: assembler round-trips, scheduler
//! determinism, and interpreter sanity on random straight-line programs.
//!
//! The cases are driven by the in-tree [`tvm::rng::SplitMix64`] generator
//! (the workspace builds offline, with no external proptest dependency),
//! so every failure is reproducible from the printed case seed.

use std::sync::Arc;

use tvm::asm::{assemble, disassemble};
use tvm::builder::ProgramBuilder;
use tvm::isa::{BinOp, Instr, Reg, RmwOp, SysCall};
use tvm::machine::Machine;
use tvm::rng::SplitMix64;
use tvm::scheduler::{run, RunConfig};

const CASES: u64 = 64;

fn gen_reg(rng: &mut SplitMix64) -> Reg {
    Reg::new(rng.next_below(16) as u8)
}

/// Straight-line instructions only (no control flow), with memory operands
/// confined to the globals region so they never fault.
fn gen_safe_instr(rng: &mut SplitMix64) -> Instr {
    match rng.next_below(10) {
        0 => Instr::MovImm { dst: gen_reg(rng), imm: rng.next_u64() },
        1 => Instr::Mov { dst: gen_reg(rng), src: gen_reg(rng) },
        2 => {
            let op = BinOp::ALL[rng.next_index(BinOp::ALL.len())];
            Instr::Bin { op, dst: gen_reg(rng), lhs: gen_reg(rng), rhs: gen_reg(rng) }
        }
        3 => {
            let op = BinOp::ALL[rng.next_index(BinOp::ALL.len())];
            Instr::BinImm { op, dst: gen_reg(rng), lhs: gen_reg(rng), imm: rng.next_u64() }
        }
        // r15 is left 0 by these generators, so [r15 + k] stays in globals.
        4 => {
            Instr::Load { dst: gen_reg(rng), base: Reg::R15, offset: rng.next_below(0x1000) as i64 }
        }
        5 => Instr::Store {
            src: gen_reg(rng),
            base: Reg::R15,
            offset: rng.next_below(0x1000) as i64,
        },
        6 => {
            let op = RmwOp::ALL[rng.next_index(RmwOp::ALL.len())];
            Instr::AtomicRmw {
                op,
                dst: gen_reg(rng),
                base: Reg::R15,
                offset: rng.next_below(0x1000) as i64,
                src: gen_reg(rng),
            }
        }
        7 => Instr::Fence,
        8 => Instr::Syscall { call: SysCall::Nop },
        _ => Instr::Syscall { call: SysCall::Tid },
    }
}

fn gen_bodies(
    rng: &mut SplitMix64,
    max_threads: u64,
    min_len: u64,
    max_len: u64,
) -> Vec<Vec<Instr>> {
    let threads = rng.next_in(1, max_threads);
    (0..threads)
        .map(|_| {
            let len = rng.next_in(min_len, max_len);
            (0..len).map(|_| gen_safe_instr(rng)).collect()
        })
        .collect()
}

/// Builds a program whose threads run `body` instruction sequences that
/// never write r15 (so memory operands stay in the globals region) and end
/// in halt.
fn program_from_bodies(bodies: &[Vec<Instr>]) -> Arc<tvm::Program> {
    let mut b = ProgramBuilder::new();
    for (i, body) in bodies.iter().enumerate() {
        b.thread(&format!("t{i}"));
        for instr in body {
            // Re-emit through the builder to keep a single construction path.
            match *instr {
                Instr::MovImm { dst, imm } if dst != Reg::R15 => {
                    b.movi(dst, imm);
                }
                Instr::Mov { dst, src } if dst != Reg::R15 => {
                    b.mov(dst, src);
                }
                Instr::Bin { op, dst, lhs, rhs } if dst != Reg::R15 => {
                    b.bin(op, dst, lhs, rhs);
                }
                Instr::BinImm { op, dst, lhs, imm } if dst != Reg::R15 => {
                    b.bini(op, dst, lhs, imm);
                }
                Instr::Load { dst, base, offset } if dst != Reg::R15 => {
                    b.load(dst, base, offset);
                }
                Instr::Store { src, base, offset } => {
                    b.store(src, base, offset);
                }
                Instr::AtomicRmw { op, dst, base, offset, src } if dst != Reg::R15 => {
                    b.atomic_rmw(op, dst, base, offset, src);
                }
                Instr::Fence => {
                    b.fence();
                }
                Instr::Syscall { call } => {
                    b.syscall(call);
                }
                _ => {
                    // Instruction would clobber r15; replace with a no-op.
                    b.fence();
                }
            }
        }
        b.halt();
    }
    Arc::new(b.build())
}

/// assemble(disassemble(p)) reproduces the program exactly.
#[test]
fn asm_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA5_0000 + case);
        let bodies = gen_bodies(&mut rng, 3, 0, 19);
        let p = program_from_bodies(&bodies);
        let text = disassemble(&p);
        let p2 = assemble(&text)
            .unwrap_or_else(|e| panic!("case {case}: reassembly failed: {e}\n{text}"));
        assert_eq!(p.instrs(), p2.instrs(), "case {case}");
        assert_eq!(p.threads(), p2.threads(), "case {case}");
    }
}

/// The same seed gives byte-identical executions; this is what makes
/// recorded logs reproducible.
#[test]
fn scheduler_determinism() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB6_0000 + case);
        let bodies = gen_bodies(&mut rng, 3, 1, 29);
        let seed = rng.next_u64();
        let p = program_from_bodies(&bodies);
        let cfg = RunConfig::random(seed).with_max_steps(10_000);
        let mut m1 = Machine::new(p.clone());
        let mut m2 = Machine::new(p);
        let s1 = run(&mut m1, &cfg, &mut ());
        let s2 = run(&mut m2, &cfg, &mut ());
        assert_eq!(s1.steps, s2.steps, "case {case}");
        assert_eq!(m1.output(), m2.output(), "case {case}");
        assert_eq!(m1.memory().snapshot(), m2.memory().snapshot(), "case {case}");
        for (t1, t2) in m1.threads().iter().zip(m2.threads()) {
            assert_eq!(t1.regs(), t2.regs(), "case {case}");
            assert_eq!(t1.status(), t2.status(), "case {case}");
        }
    }
}

/// Straight-line safe programs never fault and always terminate.
#[test]
fn safe_programs_complete() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC7_0000 + case);
        let bodies = gen_bodies(&mut rng, 4, 1, 39);
        let seed = rng.next_u64();
        let p = program_from_bodies(&bodies);
        let total: usize = bodies.iter().map(|b| b.len() + 1).sum();
        let mut m = Machine::new(p);
        let summary =
            run(&mut m, &RunConfig::random(seed).with_max_steps(total as u64 * 2 + 16), &mut ());
        assert!(summary.completed, "case {case}");
        // Div/Rem by zero is possible in random programs... except operands
        // here are registers, which may be zero. Allow DivideByZero faults
        // but nothing else.
        for (_, f) in &summary.faults {
            assert!(matches!(f, tvm::Fault::DivideByZero), "case {case}: unexpected fault {f:?}");
        }
    }
}

/// Sequencer timestamps across any execution are unique and strictly
/// increasing in observation order.
#[test]
fn sequencers_strictly_increase() {
    struct SeqWatch {
        last: Option<u64>,
        ok: bool,
    }
    impl tvm::Observer for SeqWatch {
        fn on_step(&mut self, _m: &Machine, info: &tvm::StepInfo) {
            for ts in info.sequencer.into_iter().chain(info.end_sequencer) {
                if let Some(last) = self.last {
                    if ts <= last {
                        self.ok = false;
                    }
                }
                self.last = Some(ts);
            }
        }
    }
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE9_0000 + case);
        let bodies = gen_bodies(&mut rng, 3, 1, 29);
        let seed = rng.next_u64();
        let p = program_from_bodies(&bodies);
        let mut m = Machine::new(p);
        let mut watch = SeqWatch { last: None, ok: true };
        run(&mut m, &RunConfig::random(seed).with_max_steps(10_000), &mut watch);
        assert!(watch.ok, "case {case}: sequencer timestamps not strictly increasing");
    }
}
