//! Static race analysis for `tvm` programs.
//!
//! `racecheck` is the zero-execution front half of the replay-race
//! pipeline: it builds a per-thread CFG ([`mod@cfg`]), abstractly interprets
//! each thread to resolve memory addresses and track spin-lock ownership
//! ([`domain`], [`absint`]), and cross-products the per-thread access
//! summaries into *statically-may-race* candidate pairs ([`analysis`]).
//!
//! The output is **sound with respect to the dynamic detector**: every race
//! instance the happens-before pass can report on any execution maps to a
//! candidate pair here (`tests/static_soundness.rs` pins this over the
//! whole workload corpus). That makes the candidate set usable in three
//! ways:
//!
//! 1. `racerep lint` — report the warnings without running the program,
//! 2. a detector pre-filter — skip monitoring accesses that cannot be part
//!    of any candidate pair,
//! 3. a classifier feed — materialize concrete instances for the warnings
//!    from a recorded trace and replay-classify them.
//!
//! ```
//! use tvm::asm::assemble;
//!
//! let program = assemble(
//!     ".global 0x0 0\n\
//!      .thread a\n  movi r1, 7\n  st [r15+0], r1\n  halt\n\
//!      .thread b\n  ld r2, [r15+0]\n  halt\n",
//! )
//! .unwrap();
//! let analysis = racecheck::analyze(&program);
//! assert_eq!(analysis.stats.candidate_pairs, 1);
//! assert!(analysis.candidates.contains(1, 3));
//! ```

pub mod absint;
pub mod analysis;
pub mod cfg;
pub mod domain;
pub mod idioms;
pub mod impact;
pub mod order;
pub mod report;

pub use analysis::{
    analyze, analyze_without_order, Access, Analysis, AnalysisStats, CandidateSet, Demotion,
    LockReport, PruneReason, RaceWarning, ThreadSummary, WarningSide,
};
pub use cfg::Cfg;
pub use domain::{AbsLoc, AbsVal};
pub use idioms::{AccessIdiom, Confidence, Idiom, PredictedVerdict, SpinPolarity};
pub use impact::{ImpactVerdict, Reach};
pub use order::{HandoffReport, OrderAnalysis, OrderEdge};
pub use report::{render_json, render_text};

#[cfg(test)]
mod tests {
    use tvm::asm::assemble;
    use tvm::program::Program;

    use crate::analysis::Demotion;

    fn prog(src: &str) -> Program {
        assemble(src).expect("test program assembles")
    }

    #[test]
    fn handoff_store_load_is_a_candidate() {
        let p = prog(
            ".thread producer\n  movi r1, 42\n  st [r15+32], r1\n  halt\n\
             .thread consumer\n  ld r2, [r15+32]\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.candidates.contains(1, 3), "store/load on one global must race");
        assert_eq!(a.warnings.len(), 1);
        assert!(a.warnings[0].lo.writes && !a.warnings[0].hi.writes);
    }

    #[test]
    fn disjoint_globals_do_not_race() {
        let p = prog(
            ".thread a\n  movi r1, 1\n  st [r15+32], r1\n  halt\n\
             .thread b\n  movi r1, 2\n  st [r15+40], r1\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.candidates.is_empty());
        assert_eq!(a.stats.pruned_no_alias, 1);
    }

    #[test]
    fn read_read_is_pruned() {
        let p = prog(
            ".thread a\n  ld r1, [r15+32]\n  halt\n\
             .thread b\n  ld r2, [r15+32]\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.candidates.is_empty());
        assert_eq!(a.stats.pruned_read_read, 1);
    }

    #[test]
    fn atomic_atomic_is_pruned() {
        // Two lock.add on the same counter: both are sequencer points, so the
        // dynamic region graph always orders them.
        let p = prog(
            ".thread a\n  movi r1, 1\n  lock.add r2, [r15+32], r1\n  halt\n\
             .thread b\n  movi r1, 1\n  lock.add r2, [r15+32], r1\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.candidates.is_empty());
        assert_eq!(a.stats.pruned_atomic_atomic, 1);
    }

    const LOCKED_WRITER: &str = "\
  movi r10, 0\n\
  movi r11, 1\n\
spin{n}:\n\
  cas r12, [r15+64], r10, r11\n\
  beq r12, r15, spin{n}\n\
  st [r15+8], r1\n\
  movi r10, 0\n\
  xchg r12, [r15+64], r10\n\
  halt\n";

    fn locked_pair() -> String {
        let a = LOCKED_WRITER.replace("{n}", "_a");
        let b = LOCKED_WRITER.replace("{n}", "_b");
        format!(".thread a\n{a}.thread b\n{b}")
    }

    #[test]
    fn common_valid_lock_prunes_the_pair() {
        let a = crate::analyze(&prog(&locked_pair()));
        assert_eq!(a.locks.len(), 1, "one lock candidate at 0x40");
        assert!(a.locks[0].valid(), "lock discipline is clean: {:?}", a.locks[0]);
        assert_eq!(a.stats.pruned_common_lock, 1, "the two guarded stores are pruned");
        // The store pcs (4 and 12) must not be candidates...
        assert!(!a.candidates.contains(4, 12));
        // ...and the lock-word atomics order as atomic/atomic pairs.
        assert_eq!(a.stats.candidate_pairs, 0, "{:?}", a.warnings);
    }

    #[test]
    fn rogue_write_demotes_the_lock() {
        // Same as above, but a third thread smashes the lock word directly.
        let src = format!("{}.thread rogue\n  st [r15+64], r1\n  halt\n", locked_pair());
        let a = crate::analyze(&prog(&src));
        assert_eq!(a.locks.len(), 1);
        assert!(matches!(a.locks[0].demoted, Some(Demotion::RogueWrite { .. })));
        // With the lock demoted the guarded stores race again.
        assert!(a.candidates.contains(4, 12));
    }

    #[test]
    fn release_without_hold_demotes_the_lock() {
        // Thread b releases a lock it never acquired; thread a uses it
        // properly. Mutual exclusion cannot be trusted.
        let a_src = LOCKED_WRITER.replace("{n}", "_a");
        let p = prog(&format!(
            ".thread a\n{a_src}.thread b\n  movi r10, 0\n  xchg r12, [r15+64], r10\n  \
             st [r15+8], r1\n  halt\n"
        ));
        let a = crate::analyze(&p);
        assert_eq!(a.locks.len(), 1);
        assert!(matches!(a.locks[0].demoted, Some(Demotion::ReleaseWithoutHold { .. })));
        assert!(a.candidates.contains(4, 10), "guarded store races with unguarded store");
    }

    #[test]
    fn heap_and_global_do_not_alias() {
        let p = prog(
            ".thread a\n  movi r0, 4\n  sys.alloc\n  movi r1, 1\n  st [r0+0], r1\n  halt\n\
             .thread b\n  movi r1, 2\n  st [r15+32], r1\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.candidates.is_empty(), "{:?}", a.warnings);
    }

    #[test]
    fn two_allocations_conservatively_alias() {
        // Heap disjointness by allocation site is unsound under
        // out-of-bounds-but-mapped accesses, so two distinct allocations
        // still may-race.
        let p = prog(
            ".thread a\n  movi r0, 4\n  sys.alloc\n  movi r1, 1\n  st [r0+0], r1\n  halt\n\
             .thread b\n  movi r0, 4\n  sys.alloc\n  ld r1, [r0+0]\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert_eq!(a.stats.candidate_pairs, 1);
    }

    #[test]
    fn unknown_addresses_stay_in_the_candidate_set() {
        // Thread a writes through a loaded (unresolvable) pointer; thread b
        // writes a global. The unknown access must pair with everything.
        let p = prog(
            ".thread a\n  ld r2, [r15+16]\n  st [r2+0], r1\n  halt\n\
             .thread b\n  movi r1, 2\n  st [r15+32], r1\n  halt\n",
        );
        let a = crate::analyze(&p);
        assert!(a.stats.unknown_accesses >= 1);
        assert!(a.candidates.contains(1, 4));
    }

    #[test]
    fn stable_global_chain_unfolds_over_three_rounds() {
        // Round 1 folds both gates to 0, so t1's and t3's stores are dead.
        // t2 writes 0x10, so round 2 unfolds t1's load and brings its store
        // to 0x18 alive; that unfolds 0x18, so only round 3 brings t3's
        // store to 0x20 alive. A loop that stops early, or that keeps a
        // thread's old run after one of its folded loads lost its
        // constant, misses a candidate.
        let p = prog(
            ".global 0x10 0\n.global 0x18 0\n\
             .thread t1\n  ld r1, [r15+16]\n  beq r1, r15, skip1\n  movi r2, 1\n  \
             st [r15+24], r2\nskip1:\n  halt\n\
             .thread t2\n  movi r1, 1\n  st [r15+16], r1\n  halt\n\
             .thread t3\n  ld r3, [r15+24]\n  beq r3, r15, skip3\n  movi r2, 7\n  \
             st [r15+32], r2\nskip3:\n  halt\n\
             .thread t4\n  ld r4, [r15+32]\n  halt\n",
        );
        let a = crate::analyze(&p);
        let pairs: Vec<(usize, usize)> = a.candidates.iter().collect();
        assert_eq!(pairs, vec![(0, 6), (3, 8), (11, 13)]);
    }

    #[test]
    fn report_renders_text_and_json() {
        let a = crate::analyze(&prog(
            ".thread a\n  movi r1, 1\n  st [r15+32], r1\n  halt\n\
             .thread b\n  ld r2, [r15+32]\n  halt\n",
        ));
        let text = crate::render_text(&a);
        assert!(text.contains("may-race candidate"), "{text}");
        let json = crate::render_json(&a).to_string_pretty();
        let parsed = minijson::Json::parse(&json).expect("lint json parses");
        let pairs = parsed.field("stats").unwrap().field("candidate_pairs").unwrap();
        assert_eq!(pairs.as_u64(), Some(1));
    }
}
