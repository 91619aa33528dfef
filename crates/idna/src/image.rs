//! The paged replay image: the per-thread "what the replayer can reproduce"
//! memory view, tuned for the recorder's hot path.
//!
//! Both the recorder and the replayer consult a *replay image* on every load
//! (paper §3.1): the value is logged (recorder) or taken from the log
//! (replayer) only when it differs from the image. The seed implementation
//! used a `HashMap<u64, u64>` per thread, paying a SipHash probe per memory
//! access. Real programs touch memory with high spatial locality, so the
//! image is backed by [`tvm::pagestore::PagedWords`] — the same paged
//! open-addressing store the machine's own memory uses: one multiplicative
//! hash plus a linear probe finds a zero-initialized fixed-size page, and
//! the word is a direct index into it; sparse high addresses (heap
//! addresses past `2^32`, once the allocator has handed out about 4G words)
//! fall back to a plain map.
//!
//! The image semantics are exactly the seed's: unwritten addresses read as
//! zero (`tvm` memory is zero-initialized). The tests below pin that
//! equivalence against a `HashMap` model.

use tvm::pagestore::PagedWords;

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

/// A thread's replay image; see the module docs.
///
/// # Examples
///
/// ```
/// use idna_replay::image::ReplayImage;
///
/// let mut image = ReplayImage::new();
/// assert_eq!(image.get(0x10), 0, "unwritten memory reads as zero");
/// image.set(0x10, 7);
/// image.set(1 << 40, 9); // sparse high address
/// assert_eq!(image.get(0x10), 7);
/// assert_eq!(image.get(1 << 40), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReplayImage {
    words: PagedWords,
}

impl ReplayImage {
    /// An empty image: every address reads as zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The image's value at `addr` (zero when never written).
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> u64 {
        self.words.get(addr)
    }

    /// Records `value` at `addr`.
    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        self.words.set(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tvm::pagestore::{PAGE_WORDS, SPARSE_ADDR_LIMIT};
    use tvm::rng::SplitMix64;

    #[test]
    fn unwritten_addresses_read_zero() {
        let image = ReplayImage::new();
        for addr in [0, 1, 63, 64, 0x10_0000, SPARSE_ADDR_LIMIT, u64::MAX] {
            assert_eq!(image.get(addr), 0, "addr {addr:#x}");
        }
    }

    #[test]
    fn neighbors_in_a_page_stay_independent() {
        let mut image = ReplayImage::new();
        image.set(64, 1);
        image.set(65, 2);
        image.set(127, 3);
        assert_eq!(image.get(64), 1);
        assert_eq!(image.get(65), 2);
        assert_eq!(image.get(127), 3);
        assert_eq!(image.get(66), 0);
        assert_eq!(image.get(128), 0, "next page untouched");
    }

    #[test]
    fn image_matches_hashmap_model() {
        // Mixed low/heap/sparse-high addresses, overwrite-heavy: the paged
        // image must agree with the seed's HashMap at every step.
        let mut rng = SplitMix64::new(0x1d7a);
        let mut image = ReplayImage::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000 {
            let addr = match rng.next_index(4) {
                0 => rng.next_u64() % 0x1_0000,                   // globals
                1 => 0x10_0000 + rng.next_u64() % 4096,           // heap
                2 => rng.next_u64() % (SPARSE_ADDR_LIMIT >> 10),  // mid
                _ => (1 << 40) + (rng.next_u64() % 256) * 0x1000, // sparse heap
            };
            if rng.next_index(3) == 0 {
                let value = rng.next_u64();
                image.set(addr, value);
                model.insert(addr, value);
            }
            let expect = model.get(&addr).copied().unwrap_or(0);
            assert_eq!(image.get(addr), expect, "step {step}, addr {addr:#x}");
        }
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

    #[test]
    fn many_pages_survive_table_growth() {
        let mut image = ReplayImage::new();
        // 1000 distinct pages forces several grow() cycles.
        for i in 0..1000u64 {
            image.set(i * PAGE_WORDS as u64, i + 1);
        }
        for i in 0..1000u64 {
            assert_eq!(image.get(i * PAGE_WORDS as u64), i + 1, "page {i}");
        }
    }
}
