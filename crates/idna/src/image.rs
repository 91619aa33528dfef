//! The live-in index: a replay version's memory image, materialized once
//! for the virtual processor's live-in fetches (paper §4.2).
//!
//! The other image, each thread's replay image (paper §3.1), is a
//! [`tvm::pagestore::PagedWords`] that the recorder and the replayer hold
//! directly; the tests below pin it as they use it.

/// A materialized live-in image for one replay version: every address the
/// recording ever wrote, paired with its value as of that version, sorted
/// by address.
///
/// The virtual processor's live-in fetches used to walk
/// `VersionedMemory` per lookup (a hash probe plus a binary search over
/// the address's whole write history). A region's live-in image is fixed,
/// so it is materialized once per `(trace, version)` and every fetch
/// becomes one binary search over a dense sorted table. Addresses absent
/// from the table were never written before the version and read as
/// `None` (the caller zero-fills), exactly like the history scan.
///
/// # Examples
///
/// ```
/// use idna_replay::image::LiveInIndex;
///
/// let index = LiveInIndex::from_sorted(vec![(0x10, 7), (0x20, 9)]);
/// assert_eq!(index.get(0x10), Some(7));
/// assert_eq!(index.get(0x18), None);
/// assert_eq!(index.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LiveInIndex {
    /// `(addr, value)` sorted by address, one entry per written address.
    entries: Vec<(u64, u64)>,
}

impl LiveInIndex {
    /// Builds an index from entries already sorted by address.
    ///
    /// # Panics
    ///
    /// Debug-asserts the entries are sorted by strictly increasing address.
    #[must_use]
    pub fn from_sorted(entries: Vec<(u64, u64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted");
        LiveInIndex { entries }
    }

    /// The live-in value at `addr`, or `None` when the recording never
    /// wrote it before the index's version.
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.entries.binary_search_by_key(&addr, |&(a, _)| a).ok().map(|i| self.entries[i].1)
    }

    /// Number of addresses in the index.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index covers no addresses at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tvm::isa::{BinOp, Cond, Reg, SysCall};
    use tvm::pagestore::PAGE_WORDS;
    use tvm::rng::SplitMix64;
    use tvm::{AccessKind, Machine, Observer, ProgramBuilder, RunConfig, StepInfo};

    use crate::event::{ReplayLog, ThreadEvent};
    use crate::recorder::record;
    use crate::replayer::replay;

    /// The recorder's rule run over a `HashMap` image: per thread, the
    /// `(load_index, value)` of every load that differs from the image.
    #[derive(Default)]
    struct HashMapImages {
        images: Vec<HashMap<u64, u64>>,
        loads: Vec<u64>,
        logged: Vec<Vec<(u64, u64)>>,
    }

    impl Observer for HashMapImages {
        fn on_start(&mut self, machine: &Machine) {
            let n = machine.threads().len();
            self.images = vec![HashMap::new(); n];
            self.loads = vec![0; n];
            self.logged = vec![Vec::new(); n];
        }

        fn on_step(&mut self, _machine: &Machine, info: &StepInfo) {
            let image = &mut self.images[info.tid];
            for acc in &info.accesses {
                if acc.kind == AccessKind::Read {
                    let load_index = self.loads[info.tid];
                    self.loads[info.tid] += 1;
                    if image.get(&acc.addr).copied().unwrap_or(0) != acc.value {
                        self.logged[info.tid].push((load_index, acc.value));
                    }
                }
                image.insert(acc.addr, acc.value);
            }
        }
    }

    fn logged_loads(log: &ReplayLog) -> Vec<Vec<(u64, u64)>> {
        log.threads
            .iter()
            .map(|t| {
                t.events
                    .iter()
                    .filter_map(|e| match *e {
                        ThreadEvent::Load { load_index, value } => Some((load_index, value)),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn image_matches_hashmap_model() {
        // Two threads race on shared globals and each overwrites its own
        // heap block: the paged images must log exactly the loads a
        // `HashMap` image would, under every schedule.
        let mut b = ProgramBuilder::new();
        for name in ["a", "b"] {
            b.thread(name);
            let top = b.fresh_label(&format!("{name}_top"));
            b.movi(Reg::R0, PAGE_WORDS as u64)
                .syscall(SysCall::Alloc)
                .movi(Reg::R1, 0)
                .movi(Reg::R3, 300)
                .label(top)
                .bini(BinOp::Mul, Reg::R2, Reg::R1, 37)
                .andi(Reg::R2, Reg::R2, 0xff)
                .load(Reg::R4, Reg::R2, 0)
                .add(Reg::R4, Reg::R4, Reg::R1)
                .store(Reg::R4, Reg::R2, 0)
                .andi(Reg::R5, Reg::R1, PAGE_WORDS as u64 - 1)
                .add(Reg::R5, Reg::R5, Reg::R0)
                .load(Reg::R6, Reg::R5, 0)
                .store(Reg::R4, Reg::R5, 0)
                .addi(Reg::R1, Reg::R1, 1)
                .branch(Cond::Ne, Reg::R1, Reg::R3, top)
                .halt();
        }
        let program = Arc::new(b.build());
        let (mut logged, mut loads) = (0, 0);
        for seed in 0..10 {
            let config = RunConfig::random(seed).with_max_steps(100_000);
            let mut model = HashMapImages::default();
            tvm::run(&mut Machine::new(program.clone()), &config, &mut model);
            let rec = record(&program, &config);
            assert_eq!(logged_loads(&rec.log), model.logged, "seed {seed}");
            logged += model.logged.iter().map(Vec::len).sum::<usize>();
            loads += model.loads.iter().sum::<u64>();
        }
        assert!(logged > 0 && (logged as u64) < loads, "{logged} of {loads} loads logged");
    }

    #[test]
    fn many_pages_survive_table_growth() {
        // One thread writes 1000 distinct pages, forcing several grow()
        // cycles, then reads each back: the recorder's image must know
        // every value (nothing logged) and the replayer's must return it.
        const PAGES: u64 = 1000;
        let stride = PAGE_WORDS as u64;
        let mut b = ProgramBuilder::new();
        b.thread("pages");
        let fill = b.fresh_label("fill");
        let check = b.fresh_label("check");
        b.movi(Reg::R1, 0)
            .movi(Reg::R2, 1)
            .movi(Reg::R3, PAGES * stride)
            .label(fill)
            .store(Reg::R2, Reg::R1, 0)
            .addi(Reg::R1, Reg::R1, stride)
            .addi(Reg::R2, Reg::R2, 1)
            .branch(Cond::Ne, Reg::R1, Reg::R3, fill)
            .movi(Reg::R1, 0)
            .label(check)
            .load(Reg::R4, Reg::R1, 0)
            .addi(Reg::R1, Reg::R1, stride)
            .branch(Cond::Ne, Reg::R1, Reg::R3, check)
            .halt();
        let program = Arc::new(b.build());
        let rec = record(&program, &RunConfig::round_robin(1).with_max_steps(100_000));
        assert_eq!(logged_loads(&rec.log), vec![Vec::new()], "the image lost a page");
        let trace = replay(&program, &rec.log).expect("replay");
        let reads: Vec<(u64, u64)> = trace
            .regions()
            .iter()
            .flat_map(|r| &r.accesses)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| (a.addr, a.value))
            .collect();
        let want: Vec<(u64, u64)> = (0..PAGES).map(|i| (i * stride, i + 1)).collect();
        assert_eq!(reads, want);
    }

    #[test]
    fn live_in_index_answers_like_a_map() {
        let mut rng = SplitMix64::new(0xbeef);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..500 {
            model.insert(rng.next_u64() % 4096, rng.next_u64());
        }
        let mut entries: Vec<(u64, u64)> = model.iter().map(|(&a, &v)| (a, v)).collect();
        entries.sort_unstable();
        let index = LiveInIndex::from_sorted(entries);
        assert_eq!(index.len(), model.len());
        for addr in 0..4096 {
            assert_eq!(index.get(addr), model.get(&addr).copied(), "addr {addr:#x}");
        }
    }
}
