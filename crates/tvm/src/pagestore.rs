//! A paged, open-addressing word store: the machine's sparse memory and the
//! replay substrate's per-thread replay images share this structure.
//!
//! Real executions touch memory with high spatial locality — globals below
//! [`crate::memory::GLOBAL_LIMIT`], heap words packed upward from
//! [`crate::memory::HEAP_BASE`] — so a `HashMap<u64, u64>` (one SipHash
//! probe per access) leaves a lot on the table. [`PagedWords`] instead keeps
//! a small open-addressing *page table* of fixed-size, zero-initialized
//! pages: one cheap multiplicative hash plus a linear probe finds the page,
//! and the word is a direct index into it. Addresses at or above
//! [`SPARSE_ADDR_LIMIT`] would waste a [`PAGE_WORDS`]-word page each, so
//! they fall back to a plain map. A program reaches them with heap
//! addresses past `2^32`, once the allocator has handed out about 4G words
//! (one large `sys.alloc` does it).
//!
//! Semantics are exactly those of a zero-defaulted map: unwritten addresses
//! read as zero. The `store_matches_hashmap_model` test pins the
//! equivalence.

use std::collections::HashMap;

/// log2 of the page size in words.
const PAGE_SHIFT: u32 = 6;
/// Words per page (64 words = 512 bytes of values).
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
/// Addresses at or above this limit live in the sparse fallback map. High
/// enough to cover every address a real `tvm` execution produces while
/// keeping pathological sparse address spaces from allocating a page per
/// word.
pub const SPARSE_ADDR_LIMIT: u64 = 1 << 32;

/// One resident page: its page number and the backing words.
#[derive(Clone, Debug)]
struct Slot {
    page_no: u64,
    words: Box<[u64; PAGE_WORDS]>,
}

/// A zero-defaulted `u64 -> u64` store paged for spatial locality; see the
/// module docs.
///
/// # Examples
///
/// ```
/// use tvm::pagestore::PagedWords;
///
/// let mut words = PagedWords::new();
/// assert_eq!(words.get(0x10), 0, "unwritten memory reads as zero");
/// words.set(0x10, 7);
/// words.set(1 << 40, 9); // sparse high address
/// assert_eq!(words.get(0x10), 7);
/// assert_eq!(words.get(1 << 40), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PagedWords {
    /// Open-addressing page table; capacity is a power of two (or zero
    /// before the first write).
    slots: Vec<Option<Slot>>,
    /// Resident pages.
    pages: usize,
    /// Fallback for addresses `>= SPARSE_ADDR_LIMIT`.
    sparse: HashMap<u64, u64>,
}

impl PagedWords {
    /// An empty store: every address reads as zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value at `addr` (zero when never written).
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> u64 {
        if addr >= SPARSE_ADDR_LIMIT {
            return self.sparse.get(&addr).copied().unwrap_or(0);
        }
        if self.slots.is_empty() {
            return 0;
        }
        let page_no = addr >> PAGE_SHIFT;
        let mask = self.slots.len() - 1;
        let mut idx = Self::hash(page_no) & mask;
        loop {
            match &self.slots[idx] {
                Some(slot) if slot.page_no == page_no => {
                    return slot.words[(addr as usize) & (PAGE_WORDS - 1)];
                }
                Some(_) => idx = (idx + 1) & mask,
                None => return 0,
            }
        }
    }

    /// Stores `value` at `addr`.
    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        if addr >= SPARSE_ADDR_LIMIT {
            self.sparse.insert(addr, value);
            return;
        }
        if self.slots.len() * 3 < (self.pages + 1) * 4 {
            self.grow();
        }
        let page_no = addr >> PAGE_SHIFT;
        let mask = self.slots.len() - 1;
        let mut idx = Self::hash(page_no) & mask;
        loop {
            match &mut self.slots[idx] {
                Some(slot) if slot.page_no == page_no => {
                    slot.words[(addr as usize) & (PAGE_WORDS - 1)] = value;
                    return;
                }
                Some(_) => idx = (idx + 1) & mask,
                None => {
                    let mut words = Box::new([0u64; PAGE_WORDS]);
                    words[(addr as usize) & (PAGE_WORDS - 1)] = value;
                    self.slots[idx] = Some(Slot { page_no, words });
                    self.pages += 1;
                    return;
                }
            }
        }
    }

    /// Iterates over all non-zero words, in unspecified order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let paged = self.slots.iter().flatten().flat_map(|slot| {
            let base = slot.page_no << PAGE_SHIFT;
            slot.words
                .iter()
                .enumerate()
                .filter(|(_, w)| **w != 0)
                .map(move |(i, w)| (base + i as u64, *w))
        });
        let sparse = self.sparse.iter().filter(|(_, v)| **v != 0).map(|(a, v)| (*a, *v));
        paged.chain(sparse)
    }

    /// Fibonacci multiplicative hash of a page number.
    #[inline]
    fn hash(page_no: u64) -> usize {
        (page_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Doubles the page table (25% max load after growth keeps probe chains
    /// short) and re-inserts every resident page.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        let mask = new_cap - 1;
        for slot in old.into_iter().flatten() {
            let mut idx = Self::hash(slot.page_no) & mask;
            while self.slots[idx].is_some() {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = Some(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::HEAP_BASE;
    use crate::rng::SplitMix64;

    #[test]
    fn unwritten_addresses_read_zero() {
        let words = PagedWords::new();
        for addr in [0, 1, 63, 64, HEAP_BASE, SPARSE_ADDR_LIMIT, u64::MAX] {
            assert_eq!(words.get(addr), 0, "addr {addr:#x}");
        }
    }

    #[test]
    fn neighbors_in_a_page_stay_independent() {
        let mut words = PagedWords::new();
        words.set(64, 1);
        words.set(65, 2);
        words.set(127, 3);
        assert_eq!(words.get(64), 1);
        assert_eq!(words.get(65), 2);
        assert_eq!(words.get(127), 3);
        assert_eq!(words.get(66), 0);
        assert_eq!(words.get(128), 0, "next page untouched");
    }

    #[test]
    fn store_matches_hashmap_model() {
        // Mixed low/heap/sparse-high addresses, overwrite-heavy: the paged
        // store must agree with a plain zero-defaulted map at every step.
        let mut rng = SplitMix64::new(0x9a7e);
        let mut words = PagedWords::new();
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
                words.set(addr, value);
                model.insert(addr, value);
            }
            let expect = model.get(&addr).copied().unwrap_or(0);
            assert_eq!(words.get(addr), expect, "step {step}, addr {addr:#x}");
        }
        let mut got: Vec<(u64, u64)> = words.iter_nonzero().collect();
        let mut want: Vec<(u64, u64)> =
            model.iter().filter(|(_, v)| **v != 0).map(|(a, v)| (*a, *v)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn many_pages_survive_table_growth() {
        let mut words = PagedWords::new();
        // 1000 distinct pages forces several grow() cycles.
        for i in 0..1000u64 {
            words.set(i * PAGE_WORDS as u64, i + 1);
        }
        for i in 0..1000u64 {
            assert_eq!(words.get(i * PAGE_WORDS as u64), i + 1, "page {i}");
        }
    }
}
