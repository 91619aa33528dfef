//! Focused tests of the virtual processor's semantics: phase structure,
//! live-in reconstruction, replay-failure detection, fault surfacing, and
//! the permissive extensions. Every fixture also resolves its pair through
//! `run_unit` and checks it against two `run_pair` replays.

use std::sync::Arc;

use idna_replay::recorder::record;
use idna_replay::replayer::{replay, ReplayTrace};
use idna_replay::vproc::{
    AccessSite, BatchStats, PairOrder, PairOutcome, ReplayFailure, Vproc, VprocConfig, STEP_BUDGET,
};
use tvm::isa::{BinOp, Cond, Reg, RmwOp, SysCall};
use tvm::memory::{GLOBAL_LIMIT, HEAP_BASE};
use tvm::scheduler::RunConfig;
use tvm::{Fault, Program, ProgramBuilder};

/// Builds, records, and replays; returns the trace.
fn trace_of(b: ProgramBuilder, cfg: RunConfig) -> (Arc<Program>, ReplayTrace) {
    let program: Arc<Program> = Arc::new(b.build());
    let rec = record(&program, &cfg);
    assert!(rec.summary.completed, "recording truncated");
    let trace = replay(&program, &rec.log).expect("replay");
    (program, trace)
}

/// The sites of every access the marked instruction made, in replay order.
fn sites_at(program: &Program, trace: &ReplayTrace, mark: &str) -> Vec<AccessSite> {
    let pc = program.mark(mark).unwrap_or_else(|| panic!("mark {mark}"));
    let sites: Vec<AccessSite> = trace
        .regions()
        .iter()
        .flat_map(|region| {
            region.accesses.iter().filter(|acc| acc.pc == pc).map(|acc| AccessSite {
                region: region.region.id,
                instr_index: acc.instr_index,
                pc,
                addr: acc.addr,
                kind: acc.kind,
            })
        })
        .collect();
    assert!(!sites.is_empty(), "no access recorded at mark {mark}");
    sites
}

/// Finds the site of the first access made by the marked instruction.
fn site_at(program: &Program, trace: &ReplayTrace, mark: &str) -> AccessSite {
    sites_at(program, trace, mark)[0]
}

/// Resolves `pairs` as one unit, keeping every pair's live-outs, and checks
/// each pair against two `run_pair` replays on a fresh virtual processor:
/// the outcome (live-out equality, each order's recorded-order match, the
/// failures) and the kept live-outs. Returns the outcomes and the unit's
/// engine counters.
fn assert_unit_matches_run_pair(
    trace: &ReplayTrace,
    config: VprocConfig,
    pairs: &[(AccessSite, AccessSite)],
) -> (Vec<PairOutcome>, BatchStats) {
    let vproc = Vproc::new(trace, config);
    let mut asked = Vec::new();
    let resolved = vproc.run_unit(pairs, |i, _| {
        asked.push(i);
        true
    });
    assert_eq!(
        asked,
        (0..pairs.len()).collect::<Vec<_>>(),
        "keep is asked once per pair, in order"
    );
    let reference = Vproc::new(trace, config);
    for ((a, b), (outcome, kept)) in pairs.iter().zip(&resolved) {
        let live_outs = PairOrder::BOTH.map(|order| reference.run_pair(a, b, order));
        let expected = PairOutcome::of(trace, a, b, &live_outs);
        assert_eq!(*outcome, expected, "pair {a:?} {b:?}: {live_outs:?}");
        match live_outs {
            [Ok(fwd), Ok(rev)] => assert_eq!(kept.as_deref(), Some(&[fwd, rev])),
            _ => assert!(kept.is_none(), "a failed order keeps no live-outs"),
        }
    }
    (resolved.into_iter().map(|(outcome, _)| outcome).collect(), vproc.take_stats())
}

/// [`assert_unit_matches_run_pair`] on the one pair `(a, b)`.
fn assert_pair_unit_matches(
    trace: &ReplayTrace,
    config: VprocConfig,
    a: &AccessSite,
    b: &AccessSite,
) {
    assert_unit_matches_run_pair(trace, config, &[(*a, *b)]);
}

#[test]
fn order_controls_the_observed_value() {
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 5).mark("the_store").store(Reg::R1, Reg::R15, 0x40).halt();
    b.thread("r");
    b.mark("the_load").load(Reg::R2, Reg::R15, 0x40).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "the_store");
    let r = site_at(&program, &trace, "the_load");
    let vproc = Vproc::new(&trace, VprocConfig::default());

    // Store first: the reader ends with 5 in r2.
    let store_first = vproc.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    // Load first: the reader ends with the live-in 0.
    let load_first = vproc.run_pair(&w, &r, PairOrder::BThenA).unwrap();
    assert_eq!(store_first.b.regs[2], 5);
    assert_eq!(load_first.b.regs[2], 0);
    // Memory ends the same either way (the store always lands).
    assert_eq!(store_first.writes.get(&0x40), Some(&5));
    assert_eq!(load_first.writes.get(&0x40), Some(&5));
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn live_in_comes_from_global_initializers() {
    let mut b = ProgramBuilder::new();
    b.global(0x50, 77);
    b.thread("w");
    b.movi(Reg::R1, 77).mark("w_store").store(Reg::R1, Reg::R15, 0x50).halt();
    b.thread("r");
    b.mark("r_load").load(Reg::R2, Reg::R15, 0x50).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "w_store");
    let r = site_at(&program, &trace, "r_load");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let load_first = vproc.run_pair(&w, &r, PairOrder::BThenA).unwrap();
    assert_eq!(load_first.b.regs[2], 77, "live-in must include global initializers");
    let store_first = vproc.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    assert_eq!(store_first, load_first, "a redundant write is order-insensitive");
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn live_in_includes_earlier_regions_writes() {
    // Thread "w" publishes 9 and then (after a fence: a new region) races
    // with the reader on a second word. The reader's racy region must see
    // the *pre-race* store through the versioned live-in image.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 9)
        .store(Reg::R1, Reg::R15, 0x60) // earlier-region write
        .fence()
        .movi(Reg::R2, 1)
        .mark("w_flag")
        .store(Reg::R2, Reg::R15, 0x61)
        .halt();
    b.thread("r");
    // Spin on the atomic-free flag until the writer's fence happened; then
    // read both words.
    let spin = b.fresh_label("spin");
    b.label(spin)
        .mark("r_flag")
        .load(Reg::R3, Reg::R15, 0x61)
        .branch(Cond::Eq, Reg::R3, Reg::R15, spin)
        .load(Reg::R4, Reg::R15, 0x60)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(2));
    let w = site_at(&program, &trace, "w_flag");
    let r = site_at(&program, &trace, "r_flag");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    for order in PairOrder::BOTH {
        let out = vproc.run_pair(&w, &r, order).unwrap();
        assert_eq!(out.b.regs[4], 9, "{order:?}: pre-race region write visible via live-in");
    }
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn unknown_heap_load_is_a_replay_failure_and_permissive_mode_continues() {
    // The reader dereferences a pointer; the alternative order reads a
    // stale pointer into unrecorded heap territory.
    let mut b = ProgramBuilder::new();
    b.global(0x70, tvm::memory::HEAP_BASE + 0x9999);
    b.thread("w");
    b.movi(Reg::R0, 1)
        .syscall(SysCall::Alloc)
        .mov(Reg::R5, Reg::R0)
        .mark("swing")
        .store(Reg::R5, Reg::R15, 0x70)
        .halt();
    b.thread("r");
    b.bini(tvm::isa::BinOp::Add, Reg::R13, Reg::R13, 1) // delay one instr
        .mark("read_ptr")
        .load(Reg::R6, Reg::R15, 0x70)
        .load(Reg::R7, Reg::R6, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(8));
    let w = site_at(&program, &trace, "swing");
    let r = site_at(&program, &trace, "read_ptr");

    let strict = Vproc::new(&trace, VprocConfig::default());
    // One of the orders makes the reader chase the stale pointer.
    let outcomes: Vec<_> = PairOrder::BOTH.iter().map(|&o| strict.run_pair(&w, &r, o)).collect();
    assert!(
        outcomes.iter().any(|o| matches!(o, Err(ReplayFailure::UnknownLoad { .. }))),
        "{outcomes:?}"
    );

    let config = VprocConfig { permissive_unknown_loads: true, ..VprocConfig::default() };
    let permissive = Vproc::new(&trace, config);
    for order in PairOrder::BOTH {
        let out = permissive.run_pair(&w, &r, order).expect("permissive mode continues");
        // The unknown load returns the zero-fill value.
        assert!(out.b.fault.is_none());
    }
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
    assert_pair_unit_matches(&trace, config, &w, &r);
}

#[test]
fn unknown_heap_store_is_a_replay_failure_and_permissive_mode_continues() {
    // The reader stores through the pointer instead of loading: a store
    // past the globals runs the same heap-access rule as a load.
    let stale = HEAP_BASE + 0x9999;
    let mut b = ProgramBuilder::new();
    b.global(0x70, stale);
    b.thread("w");
    b.movi(Reg::R0, 1)
        .syscall(SysCall::Alloc)
        .mov(Reg::R5, Reg::R0)
        .mark("swing")
        .store(Reg::R5, Reg::R15, 0x70)
        .halt();
    b.thread("r");
    b.bini(BinOp::Add, Reg::R13, Reg::R13, 1) // delay one instr
        .mark("read_ptr")
        .load(Reg::R6, Reg::R15, 0x70)
        .store(Reg::R13, Reg::R6, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(8));
    let w = site_at(&program, &trace, "swing");
    let r = site_at(&program, &trace, "read_ptr");

    let strict = Vproc::new(&trace, VprocConfig::default());
    let outcomes = PairOrder::BOTH.map(|o| strict.run_pair(&w, &r, o));
    assert!(outcomes.contains(&Err(ReplayFailure::UnknownStore { addr: stale })), "{outcomes:?}");

    let config = VprocConfig { permissive_unknown_loads: true, ..VprocConfig::default() };
    let permissive = Vproc::new(&trace, config);
    let outs =
        PairOrder::BOTH.map(|o| permissive.run_pair(&w, &r, o).expect("permissive mode continues"));
    // The stale store lands in the pair-local memory.
    assert!(outs.iter().any(|out| out.writes.contains_key(&stale)), "{outs:?}");
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
    assert_pair_unit_matches(&trace, config, &w, &r);
}

#[test]
fn cold_branch_is_unrecorded_control_flow() {
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 1).mark("set").store(Reg::R1, Reg::R15, 0x80).halt();
    b.thread("r");
    let cold = b.fresh_label("cold");
    let join = b.fresh_label("join");
    // Delay so the recorded read sees 1 and the cold path stays cold.
    for _ in 0..8 {
        b.movi(Reg::R13, 0);
    }
    b.mark("check")
        .load(Reg::R2, Reg::R15, 0x80)
        .branch(Cond::Eq, Reg::R2, Reg::R15, cold)
        .jump(join)
        .label(cold)
        .movi(Reg::R3, 1)
        .jump(join)
        .label(join)
        .movi(Reg::R2, 0)
        .movi(Reg::R3, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(2));
    let w = site_at(&program, &trace, "set");
    let r = site_at(&program, &trace, "check");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let cold_pc = program.mark("check").unwrap(); // just for reference

    let results: Vec<_> = PairOrder::BOTH.iter().map(|&o| vproc.run_pair(&w, &r, o)).collect();
    assert!(
        results.iter().any(|r| matches!(r, Err(ReplayFailure::UnrecordedControlFlow { .. }))),
        "expected an unrecorded-control-flow failure, got {results:?} (check pc {cold_pc})"
    );

    // With permissive control flow, both orders complete and converge
    // (the cold path is semantically idempotent here).
    let config = VprocConfig { permissive_control_flow: true, ..VprocConfig::default() };
    let permissive = Vproc::new(&trace, config);
    let a = permissive.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    let b2 = permissive.run_pair(&w, &r, PairOrder::BThenA).unwrap();
    assert_eq!(a, b2);
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
    assert_pair_unit_matches(&trace, config, &w, &r);
}

#[test]
fn regions_end_before_syscalls_so_frees_stay_outside_the_window() {
    // A `free` is a system call and therefore a sequencer point: the racy
    // sequencing region ends just before it. The vproc must stop both
    // threads at the free rather than execute it — the double-free harm is
    // exposed through the refcount value (state change) or an unrecorded
    // free path, exactly as in the corpus's Figure 2 pattern.
    let mut b = ProgramBuilder::new();
    b.thread("t1");
    b.movi(Reg::R1, 1)
        .mark("t1_store")
        .store(Reg::R1, Reg::R15, 0x91)
        .movi(Reg::R0, 0)
        .syscall(SysCall::Nop) // stands in for the free: a sequencer point
        .halt();
    b.thread("t2");
    b.mark("t2_load").load(Reg::R2, Reg::R15, 0x91).syscall(SysCall::Nop).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "t1_store");
    let r = site_at(&program, &trace, "t2_load");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let out = vproc.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    // Both threads are parked exactly at their syscall instruction.
    assert!(matches!(program.instr(out.a.pc), Some(tvm::Instr::Syscall { .. })), "{out:?}");
    assert!(matches!(program.instr(out.b.pc), Some(tvm::Instr::Syscall { .. })), "{out:?}");
    assert!(out.a.fault.is_none() && out.b.fault.is_none());
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn use_after_free_faults_inside_the_vproc() {
    // A racing pointer read can observe a *stale, already freed* address;
    // dereferencing it inside the virtual processor faults with
    // UseAfterFree — this is how freed-memory bugs surface as state
    // changes (the recorded order completes, the alternative faults).
    let mut b = ProgramBuilder::new();
    b.thread("setup");
    b.movi(Reg::R0, 1)
        .syscall(SysCall::Alloc)
        .store(Reg::R0, Reg::R15, 0x90) // publish the old object
        .syscall(SysCall::Free) // ... and free it (r0 still holds the base)
        .movi(Reg::R1, 1)
        .atomic_rmw(RmwOp::Xchg, Reg::R2, Reg::R15, 0x91, Reg::R1)
        .halt();
    b.thread("swinger");
    let sspin = b.fresh_label("sspin");
    b.label(sspin)
        .movi(Reg::R2, 0)
        .atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, 0x91, Reg::R2)
        .branch(Cond::Eq, Reg::R1, Reg::R15, sspin)
        .movi(Reg::R0, 1)
        .syscall(SysCall::Alloc)
        .mark("swing")
        .store(Reg::R0, Reg::R15, 0x90) // swing to the fresh object
        .halt();
    b.thread("chaser");
    let cspin = b.fresh_label("cspin");
    b.label(cspin).movi(Reg::R2, 0).atomic_rmw(RmwOp::Or, Reg::R1, Reg::R15, 0x91, Reg::R2).branch(
        Cond::Eq,
        Reg::R1,
        Reg::R15,
        cspin,
    );
    for _ in 0..12 {
        b.movi(Reg::R13, 0); // delay: the recorded read sees the fresh ptr
    }
    b.mark("chase")
        .load(Reg::R6, Reg::R15, 0x90)
        .load(Reg::R7, Reg::R6, 0)
        .movi(Reg::R6, 0)
        .movi(Reg::R7, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(2));
    let w = site_at(&program, &trace, "swing");
    let r = site_at(&program, &trace, "chase");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let outcomes: Vec<_> = PairOrder::BOTH.iter().map(|&o| vproc.run_pair(&w, &r, o)).collect();
    // One order dereferences the freed object and faults; it must complete
    // as a live-out fault (a state change), not a replay failure.
    let faulted = outcomes.iter().any(|o| {
        o.as_ref().is_ok_and(|out| matches!(out.b.fault, Some(tvm::Fault::UseAfterFree { .. })))
    });
    assert!(faulted, "expected a UseAfterFree live-out: {outcomes:?}");
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn budget_exhaustion_is_a_replay_failure() {
    // The waiter spins on a flag the *other* thread's region never sets
    // (the setter's racing store is to a different word), so the flipped
    // order can spin forever.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 1).mark("unrelated_store").store(Reg::R1, Reg::R15, 0xA0).halt();
    b.thread("r");
    let spin = b.fresh_label("spin");
    b.mark("read_a0")
        .load(Reg::R2, Reg::R15, 0xA0)
        // Now spin until 0xA1 becomes non-zero — which nobody ever sets.
        // Recorded execution escapes because the recorded value of 0xA1 is
        // patched by the setup below; the vproc's flipped order spins.
        .label(spin)
        .load(Reg::R3, Reg::R15, 0xA1)
        .branch(Cond::Eq, Reg::R3, Reg::R15, spin)
        .halt();
    b.thread("helper");
    b.movi(Reg::R1, 1).store(Reg::R1, Reg::R15, 0xA1).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "unrelated_store");
    let r = site_at(&program, &trace, "read_a0");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    // The helper is not part of the pair, so its store to 0xA1 only reaches
    // the vproc if it happened before the pair's regions (live-in). Under
    // round-robin(1) the helper runs interleaved; depending on version
    // order one replay direction may spin out.
    let outcomes: Vec<_> = PairOrder::BOTH.iter().map(|&o| vproc.run_pair(&w, &r, o)).collect();
    // Either both complete (live-in already had the flag) or we hit the
    // budget — both are legal; what must never happen is a panic or a hang.
    for outcome in outcomes {
        match outcome {
            Ok(_) | Err(ReplayFailure::BudgetExhausted) => {}
            Err(other) => panic!("unexpected failure kind: {other}"),
        }
    }
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn atomic_racing_access_is_supported() {
    // A lock-prefixed RMW races with a plain store in an overlapping
    // region; the vproc must be able to order the pair both ways.
    let mut b = ProgramBuilder::new();
    b.thread("atomic");
    b.movi(Reg::R1, 1).mark("rmw").atomic_rmw(RmwOp::Add, Reg::R2, Reg::R15, 0xB0, Reg::R1).halt();
    b.thread("plain");
    b.movi(Reg::R1, 10).mark("plain_store").store(Reg::R1, Reg::R15, 0xB0).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let a = site_at(&program, &trace, "rmw");
    let p = site_at(&program, &trace, "plain_store");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let rmw_first = vproc.run_pair(&a, &p, PairOrder::AThenB).unwrap();
    let store_first = vproc.run_pair(&a, &p, PairOrder::BThenA).unwrap();
    // rmw first: 0+1 then overwritten by 10. store first: 10+1 = 11.
    assert_eq!(rmw_first.writes.get(&0xB0), Some(&10));
    assert_eq!(store_first.writes.get(&0xB0), Some(&11));
    assert_pair_unit_matches(&trace, VprocConfig::default(), &a, &p);
}

#[test]
fn outputs_participate_in_live_out_equality() {
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 3).mark("st").store(Reg::R1, Reg::R15, 0xC0).halt();
    b.thread("r");
    b.mark("ld").load(Reg::R0, Reg::R15, 0xC0).syscall(SysCall::Print).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "st");
    let r = site_at(&program, &trace, "ld");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    let x = vproc.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    let y = vproc.run_pair(&w, &r, PairOrder::BThenA).unwrap();
    // The reader's region ends at the print syscall, so the printed value
    // itself is not in the region... the loaded register is. The live-outs
    // must differ through the register.
    assert_ne!(x, y);
    assert_eq!(x.b.regs[0], 3);
    assert_eq!(y.b.regs[0], 0);
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

/// Replays `(w, r)` both ways: the recorded order (`w` first) completes
/// without a fault, and the flipped order leaves exactly `fault` in the
/// reader's live-out — a completed replay, not a replay failure.
fn assert_flipped_order_faults(trace: &ReplayTrace, w: &AccessSite, r: &AccessSite, fault: Fault) {
    let vproc = Vproc::new(trace, VprocConfig::default());
    let recorded = vproc.run_pair(w, r, PairOrder::AThenB).expect("recorded order replays");
    assert!(!recorded.any_fault(), "{recorded:?}");
    let flipped = vproc.run_pair(w, r, PairOrder::BThenA).expect("flipped order replays");
    assert_eq!((flipped.a.fault, flipped.b.fault), (None, Some(fault)), "{flipped:?}");
    assert_pair_unit_matches(trace, VprocConfig::default(), w, r);
}

#[test]
fn a_racy_zero_divisor_faults_inside_the_vproc() {
    // The flipped order reads the divisor before the writer sets it, and
    // divides by the live-in zero.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 4).mark("set_divisor").store(Reg::R1, Reg::R15, 0xD0).halt();
    b.thread("r");
    for _ in 0..3 {
        b.movi(Reg::R13, 0); // delay: the recorded read sees 4
    }
    b.mark("read_divisor")
        .load(Reg::R2, Reg::R15, 0xD0)
        .movi(Reg::R1, 100)
        .bin(BinOp::Div, Reg::R3, Reg::R1, Reg::R2)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "set_divisor");
    let r = site_at(&program, &trace, "read_divisor");
    assert_flipped_order_faults(&trace, &w, &r, Fault::DivideByZero);
}

#[test]
fn a_racy_pointer_into_the_unmapped_gap_faults_with_invalid_access() {
    // The pointer starts between the globals and the heap; the writer
    // swings it to a global before the recorded reader follows it.
    let gap = GLOBAL_LIMIT + 8;
    let mut b = ProgramBuilder::new();
    b.global(0xE0, gap);
    b.thread("w");
    b.movi(Reg::R1, 0xE8).mark("swing").store(Reg::R1, Reg::R15, 0xE0).halt();
    b.thread("r");
    for _ in 0..3 {
        b.movi(Reg::R13, 0); // delay: the recorded read sees the global
    }
    b.mark("read_ptr").load(Reg::R6, Reg::R15, 0xE0).load(Reg::R7, Reg::R6, 0).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "swing");
    let r = site_at(&program, &trace, "read_ptr");
    assert_flipped_order_faults(&trace, &w, &r, Fault::InvalidAccess { addr: gap });
}

#[test]
fn an_off_base_free_stays_outside_the_live_window() {
    // The flipped order reads a pointer one word past the allocation's
    // base. Every system call is a sequencer point, so the reader's region
    // ends before its free: the live phases never execute a free, and the
    // off-base pointer shows as a register difference instead of an
    // `InvalidFree` fault.
    let off_base = HEAP_BASE + 1;
    let mut b = ProgramBuilder::new();
    b.global(0xF0, off_base);
    b.thread("owner");
    b.movi(Reg::R0, 2)
        .syscall(SysCall::Alloc) // the first allocation: its base is HEAP_BASE
        .mark("publish")
        .store(Reg::R0, Reg::R15, 0xF0)
        .halt();
    b.thread("freer");
    for _ in 0..6 {
        b.movi(Reg::R13, 0); // delay: the recorded read sees the base
    }
    b.mark("read_ptr")
        .load(Reg::R6, Reg::R15, 0xF0)
        .mov(Reg::R0, Reg::R6)
        .syscall(SysCall::Free)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "publish");
    let r = site_at(&program, &trace, "read_ptr");
    let vproc = Vproc::new(&trace, VprocConfig::default());
    for (order, freed) in [(PairOrder::AThenB, HEAP_BASE), (PairOrder::BThenA, off_base)] {
        let out = vproc.run_pair(&w, &r, order).expect("both orders replay");
        assert!(!out.any_fault(), "{order:?}: {out:?}");
        let parked = program.instr(out.b.pc);
        assert!(matches!(parked, Some(tvm::Instr::Syscall { call: SysCall::Free })), "{out:?}");
        assert_eq!(out.b.regs[0], freed, "{order:?}: the pointer the free would get");
    }
    assert_pair_unit_matches(&trace, VprocConfig::default(), &w, &r);
}

#[test]
fn a_word_only_the_flipped_order_writes_is_a_state_change() {
    // The reader stores to 0x1A8 only when its racy read of the flag sees
    // zero, which only the flipped order (reader first) does. Both orders
    // end with the same registers and pc, so that one word, written by
    // b-then-a alone, is the whole difference.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    b.movi(Reg::R1, 1).mark("set_flag").store(Reg::R1, Reg::R15, 0x1A0).halt();
    b.thread("r");
    for _ in 0..3 {
        b.movi(Reg::R13, 0); // delay: the recorded read sees the flag set
    }
    let skip = b.fresh_label("skip");
    b.mark("read_flag")
        .load(Reg::R2, Reg::R15, 0x1A0)
        .branch(Cond::Ne, Reg::R2, Reg::R15, skip)
        .movi(Reg::R3, 1)
        .store(Reg::R3, Reg::R15, 0x1A8)
        .label(skip)
        .movi(Reg::R2, 0)
        .movi(Reg::R3, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let w = site_at(&program, &trace, "set_flag");
    let r = site_at(&program, &trace, "read_flag");
    // The recording never ran the guarded store, so the flipped order
    // reaches it only under the permissive control-flow extension.
    let config = VprocConfig { permissive_control_flow: true, ..VprocConfig::default() };
    let vproc = Vproc::new(&trace, config);
    let fwd = vproc.run_pair(&w, &r, PairOrder::AThenB).unwrap();
    let rev = vproc.run_pair(&w, &r, PairOrder::BThenA).unwrap();
    assert_eq!((&fwd.a, &fwd.b), (&rev.a, &rev.b), "the two orders' exits agree");
    assert_eq!(fwd.writes.get(&0x1A8), None);
    assert_eq!(rev.writes.get(&0x1A8), Some(&1));
    let (outcomes, _) = assert_unit_matches_run_pair(&trace, config, &[(w, r)]);
    // Both orders reproduce the recorded exits; only the memory differs.
    assert_eq!(outcomes[0], PairOutcome { orders: [Ok(true), Ok(true)], same: false });
}

#[test]
fn a_unit_spread_across_its_regions_resolves_from_the_checkpoint_chain() {
    // Both loops run inside one sequencing region each, so every store x
    // load pair shares one region pair, and the racing indexes spread
    // across both regions: each side's checkpoint chain has four stops.
    // The writer stores one value, so once the word holds it some pairs
    // no longer depend on the order.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    let wloop = b.fresh_label("wloop");
    b.movi(Reg::R1, 5)
        .movi(Reg::R2, 4)
        .label(wloop)
        .mark("w_store")
        .store(Reg::R1, Reg::R15, 0x1B0)
        .subi(Reg::R2, Reg::R2, 1)
        .branch(Cond::Ne, Reg::R2, Reg::R15, wloop)
        .halt();
    b.thread("r");
    let rloop = b.fresh_label("rloop");
    b.movi(Reg::R4, 4)
        .label(rloop)
        .mark("r_load")
        .load(Reg::R3, Reg::R15, 0x1B0)
        .bin(BinOp::Add, Reg::R5, Reg::R5, Reg::R3)
        .subi(Reg::R4, Reg::R4, 1)
        .branch(Cond::Ne, Reg::R4, Reg::R15, rloop)
        .movi(Reg::R3, 0)
        .halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let stores = sites_at(&program, &trace, "w_store");
    let loads = sites_at(&program, &trace, "r_load");
    assert_eq!((stores.len(), loads.len()), (4, 4));
    // Later loads first: the unit's pair order need not follow the chain.
    let pairs: Vec<_> =
        loads.iter().rev().flat_map(|&r| stores.iter().map(move |&w| (w, r))).collect();
    let (outcomes, stats) = assert_unit_matches_run_pair(&trace, VprocConfig::default(), &pairs);
    assert!(outcomes.iter().any(|o| o.same) && outcomes.iter().any(|o| !o.same), "{outcomes:?}");
    assert_eq!((stats.batches, stats.forks, stats.prefix_executions), (1, 32, 2), "{stats:?}");
}

#[test]
fn a_pair_past_the_step_budget_fails_without_executing() {
    // The writer's second store sits more than STEP_BUDGET instructions
    // into its region, so its pair fails in both orders before anything
    // executes, where `run_pair`'s oracle phase runs out. The first
    // store's pair in the same unit runs its prefix and then fails too:
    // its completion phase crosses the same loop.
    let mut b = ProgramBuilder::new();
    b.thread("w");
    let spin = b.fresh_label("spin");
    b.movi(Reg::R1, 7)
        .mark("early")
        .store(Reg::R1, Reg::R15, 0x1C0)
        .movi(Reg::R2, STEP_BUDGET / 2 + 1)
        .label(spin)
        .subi(Reg::R2, Reg::R2, 1)
        .branch(Cond::Ne, Reg::R2, Reg::R15, spin)
        .mark("late")
        .store(Reg::R1, Reg::R15, 0x1C0)
        .halt();
    b.thread("r");
    b.mark("read").load(Reg::R3, Reg::R15, 0x1C0).halt();
    let (program, trace) = trace_of(b, RunConfig::round_robin(1));
    let early = site_at(&program, &trace, "early");
    let late = site_at(&program, &trace, "late");
    let r = site_at(&program, &trace, "read");
    let offset = |s: &AccessSite| trace.region(s.region).region.instr_offset(s.instr_index);
    assert!(offset(&late) + offset(&r) >= STEP_BUDGET);
    let (outcomes, stats) =
        assert_unit_matches_run_pair(&trace, VprocConfig::default(), &[(late, r), (early, r)]);
    let exhausted = PairOutcome { orders: [Err(ReplayFailure::BudgetExhausted); 2], same: false };
    assert_eq!(outcomes, [exhausted; 2]);
    // Only the first store's pair is inside the budget: no batch and no
    // fork, one prefix per side up to that pair, and its second order's
    // copy of the prefix saved.
    let counters = (stats.batches, stats.forks, stats.prefix_executions, stats.prefix_instrs_saved);
    assert_eq!(counters, (0, 0, 2, offset(&early) + offset(&r)), "{stats:?}");
}
