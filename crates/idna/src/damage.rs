//! Damage horizons for tolerant-mode replay.
//!
//! When a log frame is lost or corrupted (see `codec`'s tolerant decode),
//! the replay no longer knows everything the damaged thread did: its
//! writes past the trusted horizon may be missing from the versioned
//! memory, and its allocations and frees may be missing from the heap
//! history. A [`TraceDamage`] records, per damaged thread, how far its
//! surviving log is trusted and what it *may* have written — either
//! "anything" (the codec's conservative default) or the static analyzer's
//! may-write set (profiled by `replay_race::pipeline::analyze_log`). The
//! virtual processor consults it on every live-in fetch: a fetch that a
//! damaged thread could have influenced fails with
//! `ReplayFailure::LogDamage`, which the classifier maps to *potentially
//! harmful* per the paper's §4 rule that a replay failure can never
//! demonstrate benignity.

/// What is no longer known about one thread whose log frame was damaged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadDamage {
    /// Thread slot in the log.
    pub tid: usize,
    /// Global timestamp up to which the thread's surviving log is
    /// trusted; any write it made at or after this instant may be lost.
    pub trusted_ts: u64,
    /// Inclusive global address ranges the thread may write, from the
    /// static analyzer; `None` means unknown — assume any address.
    pub may_write: Option<Vec<(u64, u64)>>,
    /// Whether the thread may allocate, free, or write heap memory (lost
    /// heap traffic invalidates the heap history for every address).
    pub may_heap: bool,
}

impl ThreadDamage {
    /// Whether this thread may have written global `addr` after its
    /// trusted horizon.
    #[must_use]
    pub fn may_write_addr(&self, addr: u64) -> bool {
        match &self.may_write {
            None => true,
            Some(ranges) => ranges.iter().any(|&(lo, hi)| lo <= addr && addr <= hi),
        }
    }
}

/// The set of damaged threads for one decoded log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDamage {
    threads: Vec<ThreadDamage>,
}

impl TraceDamage {
    /// Damage profile from the given per-thread records (intact threads
    /// are simply absent).
    #[must_use]
    pub fn new(threads: Vec<ThreadDamage>) -> Self {
        TraceDamage { threads }
    }

    /// Whether no thread is damaged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// The damaged threads.
    #[must_use]
    pub fn threads(&self) -> &[ThreadDamage] {
        &self.threads
    }

    /// Whether a live-in fetch of global `addr` by a region starting at
    /// `base_ts` could observe (or miss) a write lost to damage. A lost
    /// write can only be ordered before the region if the damaged
    /// thread's untrusted tail begins no later than the region does.
    #[must_use]
    pub fn taints_global(&self, addr: u64, base_ts: u64) -> bool {
        self.threads.iter().any(|t| t.trusted_ts <= base_ts && t.may_write_addr(addr))
    }

    /// Whether heap state consulted by a region starting at `base_ts`
    /// could be wrong because a damaged thread's heap traffic was lost.
    #[must_use]
    pub fn taints_heap(&self, base_ts: u64) -> bool {
        self.threads.iter().any(|t| t.may_heap && t.trusted_ts <= base_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_damage_taints_nothing() {
        let d = TraceDamage::default();
        assert!(d.is_empty());
        assert!(!d.taints_global(0x10, 100));
        assert!(!d.taints_heap(100));
    }

    #[test]
    fn unknown_may_write_taints_everything_past_horizon() {
        let d = TraceDamage::new(vec![ThreadDamage {
            tid: 1,
            trusted_ts: 5,
            may_write: None,
            may_heap: true,
        }]);
        assert!(d.taints_global(0x10, 5), "horizon tie counts as tainted");
        assert!(d.taints_global(0xffff, 9));
        assert!(!d.taints_global(0x10, 4), "regions before the horizon are clean");
        assert!(d.taints_heap(7));
        assert!(!d.taints_heap(0));
    }

    #[test]
    fn range_refinement_limits_taint() {
        let d = TraceDamage::new(vec![ThreadDamage {
            tid: 2,
            trusted_ts: 0,
            may_write: Some(vec![(0x20, 0x28), (0x40, 0x40)]),
            may_heap: false,
        }]);
        assert!(d.taints_global(0x20, 1));
        assert!(d.taints_global(0x28, 1));
        assert!(d.taints_global(0x40, 1));
        assert!(!d.taints_global(0x29, 1));
        assert!(!d.taints_global(0x3f, 1));
        assert!(!d.taints_heap(1));
    }
}
