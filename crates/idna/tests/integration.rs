//! End-to-end tests: record → replay → dual-order virtual-processor replay,
//! including the paper's Figure 2 reference-counting scenario.

use std::sync::Arc;

use idna_replay::codec::{decode_log, encode_log};
use idna_replay::recorder::record;
use idna_replay::replayer::{replay, ReplayTrace};
use idna_replay::vproc::{AccessSite, PairOrder, Vproc, VprocConfig};
use tvm::isa::{Cond, Reg, RmwOp};
use tvm::scheduler::RunConfig;
use tvm::{Program, ProgramBuilder};

const READY: i64 = 0x8;
const RC: i64 = 0x10;
const FOO: i64 = 0x18;

/// The paper's Figure 2: two threads race on an unsynchronized reference
/// count and conditionally free the object.
fn refcount_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    // Setup thread: allocate the object, publish it, set refcnt = 2,
    // release the workers.
    b.thread("setup");
    b.movi(Reg::R0, 4)
        .syscall(tvm::isa::SysCall::Alloc)
        .store(Reg::R0, Reg::R15, FOO)
        .movi(Reg::R1, 2)
        .store(Reg::R1, Reg::R15, RC)
        .movi(Reg::R2, 1)
        .atomic_rmw(RmwOp::Xchg, Reg::R3, Reg::R15, READY, Reg::R2)
        .halt();
    for name in ["w1", "w2"] {
        b.thread(name);
        let spin = b.fresh_label(&format!("{name}_spin"));
        let skip = b.fresh_label(&format!("{name}_skip"));
        // Wait for setup (atomically, so the handshake itself is race-free).
        b.label(spin)
            .movi(Reg::R2, 0)
            .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, READY, Reg::R2)
            .branch(Cond::Eq, Reg::R1, Reg::R15, spin);
        // foo->refCnt--; if (foo->refCnt == 0) free(foo);   [no locks: bug]
        b.mark(&format!("{name}_load_rc"))
            .load(Reg::R3, Reg::R15, RC)
            .subi(Reg::R3, Reg::R3, 1)
            .mark(&format!("{name}_store_rc"))
            .store(Reg::R3, Reg::R15, RC)
            .mark(&format!("{name}_reload_rc"))
            .load(Reg::R4, Reg::R15, RC)
            .branch(Cond::Ne, Reg::R4, Reg::R15, skip)
            .load(Reg::R0, Reg::R15, FOO)
            .syscall(tvm::isa::SysCall::Free)
            .label(skip)
            .halt();
    }
    Arc::new(b.build())
}

/// Minimal happens-before scan: conflicting accesses to `addr` in
/// overlapping regions of different threads.
fn races_on(trace: &ReplayTrace, addr: u64) -> Vec<(AccessSite, AccessSite)> {
    let mut pairs = Vec::new();
    let regions = trace.regions();
    for (i, ra) in regions.iter().enumerate() {
        for rb in &regions[i + 1..] {
            if !ra.region.overlaps(&rb.region) {
                continue;
            }
            for acc_a in ra.accesses.iter().filter(|a| a.addr == addr) {
                for acc_b in rb.accesses.iter().filter(|a| a.addr == addr) {
                    if acc_a.kind.is_write() || acc_b.kind.is_write() {
                        pairs.push((
                            AccessSite {
                                region: ra.region.id,
                                instr_index: acc_a.instr_index,
                                pc: acc_a.pc,
                                addr,
                                kind: acc_a.kind,
                            },
                            AccessSite {
                                region: rb.region.id,
                                instr_index: acc_b.instr_index,
                                pc: acc_b.pc,
                                addr,
                                kind: acc_b.kind,
                            },
                        ));
                    }
                }
            }
        }
    }
    pairs
}

#[test]
fn refcount_bug_shows_state_change_in_some_order_pair() {
    let program = refcount_program();
    // Find a schedule where the workers' racy regions overlap.
    let mut found_differing = false;
    let mut found_any_race = false;
    for seed in 0..40u64 {
        let rec = record(&program, &RunConfig::chunked(seed, 1, 6).with_max_steps(100_000));
        assert!(rec.summary.completed, "seed {seed} did not complete");
        let trace = replay(&program, &rec.log).expect("replay");
        let races = races_on(&trace, RC as u64);
        if races.is_empty() {
            continue;
        }
        found_any_race = true;
        let vproc = Vproc::new(&trace, VprocConfig::default());
        for (a, b) in &races {
            let fwd = vproc.run_pair(a, b, PairOrder::AThenB);
            let rev = vproc.run_pair(a, b, PairOrder::BThenA);
            match (fwd, rev) {
                (Ok(x), Ok(y)) => {
                    if x != y {
                        found_differing = true;
                        // The difference must be observable: refcount value,
                        // a fault, or a thread's live-out.
                        assert!(
                            x.writes != y.writes
                                || x.any_fault() != y.any_fault()
                                || x.a != y.a
                                || x.b != y.b,
                        );
                    }
                }
                // Replay failures also mark the race harmful; acceptable.
                _ => found_differing = true,
            }
        }
        if found_differing {
            break;
        }
    }
    assert!(found_any_race, "no overlapping racy regions in any schedule");
    assert!(found_differing, "the refcount bug must expose differing live-outs in some instance");
}

#[test]
fn redundant_write_race_is_no_state_change() {
    // Two threads store the *same* value to a shared global; a race, but
    // flipping the order cannot change anything (paper §5.4 category 4).
    let mut b = ProgramBuilder::new();
    for name in ["a", "b"] {
        b.thread(name);
        b.movi(Reg::R1, 7).mark(&format!("{name}_store")).store(Reg::R1, Reg::R15, 0x20).halt();
    }
    let program: Arc<Program> = Arc::new(b.build());
    let rec = record(&program, &RunConfig::round_robin(1));
    let trace = replay(&program, &rec.log).unwrap();
    let races = races_on(&trace, 0x20);
    assert!(!races.is_empty(), "the write-write race must be detected");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    for (a, b) in &races {
        let fwd = vproc.run_pair(a, b, PairOrder::AThenB).expect("no replay failure");
        let rev = vproc.run_pair(a, b, PairOrder::BThenA).expect("no replay failure");
        assert_eq!(fwd, rev, "redundant writes are order-insensitive");
    }
}

#[test]
fn conflicting_write_values_are_state_change() {
    // Two threads store *different* values: last writer wins, so the orders
    // differ in the final memory value.
    let mut b = ProgramBuilder::new();
    for (name, val) in [("a", 1u64), ("b", 2u64)] {
        b.thread(name);
        b.movi(Reg::R1, val).store(Reg::R1, Reg::R15, 0x28).halt();
    }
    let program: Arc<Program> = Arc::new(b.build());
    let rec = record(&program, &RunConfig::round_robin(1));
    let trace = replay(&program, &rec.log).unwrap();
    let races = races_on(&trace, 0x28);
    assert!(!races.is_empty());
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let (a, b) = &races[0];
    let fwd = vproc.run_pair(a, b, PairOrder::AThenB).unwrap();
    let rev = vproc.run_pair(a, b, PairOrder::BThenA).unwrap();
    assert_ne!(fwd.writes.get(&0x28), rev.writes.get(&0x28));
}

#[test]
fn one_order_matches_the_recorded_execution() {
    // A read-write race: one of the two orders must reproduce the recorded
    // region exits (the "original order" of the paper's reports).
    let mut b = ProgramBuilder::new();
    b.thread("writer");
    b.movi(Reg::R1, 5).store(Reg::R1, Reg::R15, 0x30).halt();
    b.thread("reader");
    b.load(Reg::R2, Reg::R15, 0x30).halt();
    let program: Arc<Program> = Arc::new(b.build());
    let rec = record(&program, &RunConfig::round_robin(1));
    let trace = replay(&program, &rec.log).unwrap();
    let races = races_on(&trace, 0x30);
    assert_eq!(races.len(), 1);
    let (a, b) = &races[0];
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let fwd = vproc.run_pair(a, b, PairOrder::AThenB).unwrap();
    let rev = vproc.run_pair(a, b, PairOrder::BThenA).unwrap();
    let matches = [fwd.matches_recorded(&trace, a, b), rev.matches_recorded(&trace, a, b)];
    assert!(
        matches.iter().any(|&m| m),
        "one order must reproduce the recording; fwd={fwd:?} rev={rev:?}"
    );
    // And the two orders must differ (the reader sees 0 vs 5).
    assert_ne!(fwd, rev);
}

#[test]
fn codec_roundtrips_real_logs() {
    let program = refcount_program();
    for seed in [0u64, 3, 11] {
        let rec = record(&program, &RunConfig::chunked(seed, 1, 8).with_max_steps(100_000));
        let bytes = encode_log(&rec.log);
        let decoded = decode_log(&bytes).expect("decode");
        assert_eq!(rec.log, decoded);
        let c = idna_replay::codec::compress(&bytes);
        let d = idna_replay::codec::decompress(&c).expect("decompress");
        assert_eq!(bytes, d);
    }
}

#[test]
fn replay_is_faithful_across_many_schedules() {
    // Record under many seeds; the replayed per-thread final register state
    // must always equal the machine's.
    let program = refcount_program();
    for seed in 0..20u64 {
        let rec = record(&program, &RunConfig::random(seed).with_max_steps(100_000));
        let trace = replay(&program, &rec.log).expect("replay");
        for tid in 0..program.threads().len() {
            let last = trace
                .regions()
                .iter()
                .rfind(|r| r.region.id.tid == tid)
                .expect("every thread has regions");
            assert_eq!(
                &last.exit.regs,
                rec.machine.thread(tid).regs(),
                "seed {seed} tid {tid}: replay diverged from recording"
            );
        }
    }
}
