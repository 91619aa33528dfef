//! Differential fuzzer for the static order pass (`DESIGN.md` §D11).
//!
//! Generates seeded handoff-shaped programs ([`bench::genprog`]) and
//! checks, for every program under two schedules, that the static
//! analysis stays a conservative over-approximation of the dynamic
//! happens-before detector:
//!
//! - every dynamically detected race is a static candidate pair —
//!   in particular, no pair the order pass pruned as statically ordered
//!   ever races at runtime;
//! - running the detector behind the candidate pre-filter reproduces the
//!   unfiltered output exactly (instances, per-race grouping, and access
//!   accounting);
//! - the order pass only ever shrinks the candidate set relative to the
//!   orderless analysis, prunes are disjoint from candidates, and the
//!   may-happen-in-parallel relation is symmetric.
//!
//! Usage: `fuzz_order [seed] [rounds]`. Every failure prints the
//! (round, schedule) pair, so a run is replayable from its seed alone.
//! Exits non-zero on any violation.

use std::collections::BTreeMap;
use std::sync::Arc;

use bench::genprog;
use idna_replay::recorder::record;
use idna_replay::replayer::replay;
use replay_race::detect::{detect_races, DetectorConfig};
use tvm::rng::SplitMix64;

/// Outcome tallies across all trials.
#[derive(Default)]
struct Tally {
    programs: u64,
    runs: u64,
    dynamic_races: u64,
    candidates: u64,
    order_pruned: u64,
    violations: u64,
}

/// Static-only invariants of one analysis pair. Returns violation messages.
fn check_static(
    program: &tvm::Program,
    analysis: &racecheck::Analysis,
    pruned: &BTreeMap<(usize, usize), racecheck::PruneReason>,
    base: &racecheck::Analysis,
) -> Vec<String> {
    let mut violations = Vec::new();

    // The order pass may only remove candidates, never add them.
    for (lo, hi) in analysis.candidates.iter() {
        if !base.candidates.contains(lo, hi) {
            violations.push(format!("candidate ({lo}, {hi}) absent without the order pass"));
        }
    }
    // A pair is pruned or a candidate, never both.
    for (&(lo, hi), reason) in pruned {
        if analysis.candidates.contains(lo, hi) {
            violations.push(format!("({lo}, {hi}) both pruned ({}) and a candidate", reason.tag()));
        }
    }
    // MHP is symmetric over every thread/pc pair.
    let threads = program.threads().len();
    for ta in 0..threads {
        for tb in 0..threads {
            for pc_a in 0..program.len() {
                for pc_b in 0..program.len() {
                    let ab = analysis.order.may_happen_in_parallel(ta, pc_a, tb, pc_b);
                    let ba = analysis.order.may_happen_in_parallel(tb, pc_b, ta, pc_a);
                    if ab != ba {
                        violations.push(format!(
                            "MHP asymmetric: t{ta}:{pc_a} vs t{tb}:{pc_b} = {ab}, reversed {ba}"
                        ));
                    }
                }
            }
        }
    }
    violations
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(0x0D11_5EED, |s| s.parse().expect("seed"));
    let rounds: u64 = args.next().map_or(500, |s| s.parse().expect("rounds"));

    let mut tally = Tally::default();
    eprintln!("fuzzing order soundness: {rounds} programs x 2 schedules (seed {seed:#x}) ...");
    for round in 0..rounds {
        let mut rng = SplitMix64::new(seed.wrapping_add(round.wrapping_mul(0x9E37)));
        let program = Arc::new(genprog::generate(&mut rng));
        let analysis = racecheck::analyze(&program);
        let pruned = analysis.pruned();
        let base = racecheck::analyze_without_order(&program);
        tally.programs += 1;
        tally.candidates += analysis.stats.candidate_pairs as u64;
        tally.order_pruned += analysis.stats.pruned_statically_ordered;

        for v in check_static(&program, &analysis, &pruned, &base) {
            tally.violations += 1;
            println!("VIOLATION [round {round}, static]: {v}");
        }

        let candidates = Arc::new(analysis.candidates.clone());
        for (si, schedule) in genprog::schedules(round).into_iter().enumerate() {
            tally.runs += 1;
            let rec = record(&program, &schedule);
            let trace = match replay(&program, &rec.log) {
                Ok(trace) => trace,
                Err(e) => {
                    tally.violations += 1;
                    println!("VIOLATION [round {round}, schedule {si}]: replay failed: {e:?}");
                    continue;
                }
            };

            let unfiltered = detect_races(&trace, &DetectorConfig::default());
            tally.dynamic_races += unfiltered.instances.len() as u64;
            for instance in &unfiltered.instances {
                let id = instance.static_id();
                if !candidates.contains(id.pc_lo, id.pc_hi) {
                    tally.violations += 1;
                    let pruned = pruned.get(&(id.pc_lo, id.pc_hi));
                    println!(
                        "VIOLATION [round {round}, schedule {si}]: dynamic race {id} \
                         not a static candidate (pruned: {pruned:?})"
                    );
                }
            }

            let filtered_config = DetectorConfig { prefilter: Some(Arc::clone(&candidates)) };
            let filtered = detect_races(&trace, &filtered_config);
            if filtered.instances != unfiltered.instances
                || filtered.by_static != unfiltered.by_static
            {
                tally.violations += 1;
                println!(
                    "VIOLATION [round {round}, schedule {si}]: pre-filter changed detector output"
                );
            }
            if filtered.indexed_accesses + filtered.skipped_accesses != unfiltered.indexed_accesses
            {
                tally.violations += 1;
                println!(
                    "VIOLATION [round {round}, schedule {si}]: pre-filter access accounting broken"
                );
            }
        }
    }

    println!(
        "{} programs / {} runs: {} dynamic races, {} candidate pairs, \
         {} statically-ordered prunes, {} violations",
        tally.programs,
        tally.runs,
        tally.dynamic_races,
        tally.candidates,
        tally.order_pruned,
        tally.violations,
    );
    assert!(tally.order_pruned > 0, "the fuzzer never exercised the order pass");
    if tally.violations > 0 {
        std::process::exit(1);
    }
}
