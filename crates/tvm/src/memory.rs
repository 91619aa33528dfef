//! Sparse word-addressed memory with a heap allocator and fault detection.
//!
//! The address space is split into two regions:
//!
//! * **Globals**: `0 .. GLOBAL_LIMIT`. Always mapped; this is where workload
//!   programs place their shared variables.
//! * **Heap**: `HEAP_BASE ..`. Mapped only while an allocation made through
//!   [`SysCall::Alloc`] is live. Accessing freed or never-allocated heap
//!   memory raises a fault — this is how use-after-free bugs (like the
//!   paper's reference-counting example, Figure 2) become observable.
//!
//! [`SysCall::Alloc`]: crate::isa::SysCall::Alloc

use std::collections::{BTreeMap, HashMap};

use crate::machine::Fault;
use crate::pagestore::PagedWords;

/// First address past the always-mapped globals region.
pub const GLOBAL_LIMIT: u64 = 0x1_0000;

/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x10_0000;

/// Sparse word memory plus the heap allocator state.
///
/// Reads of mapped-but-never-written words return 0, mirroring zero-filled
/// pages.
///
/// # Examples
///
/// ```
/// use tvm::memory::Memory;
/// let mut mem = Memory::new();
/// assert_eq!(mem.read(0x10)?, 0);
/// mem.write(0x10, 42)?;
/// assert_eq!(mem.read(0x10)?, 42);
/// # Ok::<(), tvm::machine::Fault>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Word contents, paged for spatial locality (the interpreter's hottest
    /// data structure after the register files).
    words: PagedWords,
    /// Live allocations: base address -> size in words.
    live: BTreeMap<u64, u64>,
    /// Bases that were freed (for better diagnostics on use-after-free).
    freed: BTreeMap<u64, u64>,
    next: u64,
}

impl Memory {
    /// Creates an empty memory with an empty heap.
    #[must_use]
    pub fn new() -> Self {
        Memory {
            words: PagedWords::new(),
            live: BTreeMap::new(),
            freed: BTreeMap::new(),
            next: HEAP_BASE,
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidAccess`] when `addr` is outside the globals
    /// region and not inside a live heap allocation.
    pub fn read(&self, addr: u64) -> Result<u64, Fault> {
        self.check(addr)?;
        Ok(self.words.get(addr))
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidAccess`] under the same conditions as
    /// [`Memory::read`].
    pub fn write(&mut self, addr: u64, value: u64) -> Result<(), Fault> {
        self.check(addr)?;
        self.words.set(addr, value);
        Ok(())
    }

    /// Reads a word without a validity check (used by replay tooling that
    /// inspects raw images).
    #[must_use]
    pub fn peek(&self, addr: u64) -> u64 {
        self.words.get(addr)
    }

    /// Allocates `size` words (at least one) and returns the base address.
    /// Bases are never recycled, so a new block's words read 0.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidAccess`] at the next free address when the
    /// block and its red zone would pass `u64::MAX`; the allocator is left
    /// as it was.
    pub fn alloc(&mut self, size: u64) -> Result<u64, Fault> {
        let size = size.max(1);
        let base = self.next;
        // One-word red zone between allocations.
        self.next = size
            .checked_add(1)
            .and_then(|span| base.checked_add(span))
            .ok_or(Fault::InvalidAccess { addr: base })?;
        self.live.insert(base, size);
        Ok(base)
    }

    /// Frees the allocation at `base`. Its words keep their values: every
    /// checked access to them faults [`Fault::UseAfterFree`].
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidFree`] when `base` is not the base address of a
    /// live allocation — including the double-free case.
    pub fn free(&mut self, base: u64) -> Result<(), Fault> {
        let size = self.live.remove(&base).ok_or(Fault::InvalidFree { addr: base })?;
        self.freed.insert(base, size);
        Ok(())
    }

    /// Iterates over all non-zero words, in unspecified order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter_nonzero()
    }

    /// A snapshot of the memory contents (non-zero words only). Freed
    /// blocks are not zeroed, so their last values are in it too.
    #[must_use]
    pub fn snapshot(&self) -> HashMap<u64, u64> {
        self.iter_nonzero().collect()
    }

    /// Number of live heap allocations.
    #[must_use]
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    #[inline]
    fn check(&self, addr: u64) -> Result<(), Fault> {
        if addr < GLOBAL_LIMIT {
            return Ok(());
        }
        if addr >= HEAP_BASE {
            if let Some((base, size)) = self.live.range(..=addr).next_back() {
                if addr < base + size {
                    return Ok(());
                }
            }
            if let Some((base, size)) = self.freed.range(..=addr).next_back() {
                if addr < base + size {
                    return Err(Fault::UseAfterFree { addr });
                }
            }
        }
        Err(Fault::InvalidAccess { addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_region_always_mapped() {
        let mut mem = Memory::new();
        assert_eq!(mem.read(0).unwrap(), 0);
        mem.write(GLOBAL_LIMIT - 1, 7).unwrap();
        assert_eq!(mem.read(GLOBAL_LIMIT - 1).unwrap(), 7);
    }

    #[test]
    fn unmapped_gap_faults() {
        let mem = Memory::new();
        assert_eq!(mem.read(GLOBAL_LIMIT), Err(Fault::InvalidAccess { addr: GLOBAL_LIMIT }));
        assert_eq!(mem.read(HEAP_BASE), Err(Fault::InvalidAccess { addr: HEAP_BASE }));
    }

    #[test]
    fn alloc_free_lifecycle() {
        let mut mem = Memory::new();
        let a = mem.alloc(4).unwrap();
        assert!(a >= HEAP_BASE);
        mem.write(a + 3, 9).unwrap();
        assert_eq!(mem.read(a + 3).unwrap(), 9);
        // Past the end of the allocation: fault.
        assert!(mem.read(a + 4).is_err());
        mem.free(a).unwrap();
        assert_eq!(mem.read(a), Err(Fault::UseAfterFree { addr: a }));
        // Double free is itself a fault (the paper's refcount bug).
        assert_eq!(mem.free(a), Err(Fault::InvalidFree { addr: a }));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut mem = Memory::new();
        let a = mem.alloc(2).unwrap();
        let b = mem.alloc(2).unwrap();
        assert!(b >= a + 2);
        mem.write(a, 1).unwrap();
        mem.write(b, 2).unwrap();
        assert_eq!(mem.read(a).unwrap(), 1);
        assert_eq!(mem.read(b).unwrap(), 2);
        assert_eq!(mem.live_allocations(), 2);
    }

    #[test]
    fn zero_sized_alloc_rounds_up() {
        let mut mem = Memory::new();
        let a = mem.alloc(0).unwrap();
        mem.write(a, 5).unwrap();
        assert_eq!(mem.read(a).unwrap(), 5);
    }

    #[test]
    fn freed_memory_reads_as_fault_not_zero() {
        let mut mem = Memory::new();
        let a = mem.alloc(1).unwrap();
        mem.write(a, 77).unwrap();
        mem.free(a).unwrap();
        assert!(matches!(mem.read(a), Err(Fault::UseAfterFree { .. })));
    }

    #[test]
    fn a_huge_block_allocates_and_frees_without_touching_its_words() {
        let mut mem = Memory::new();
        let words = 1u64 << 32;
        let a = mem.alloc(words).unwrap();
        assert_eq!(mem.read(a + words - 1), Ok(0));
        assert!(mem.read(a + words).is_err(), "red zone");
        mem.free(a).unwrap();
        assert_eq!(mem.read(a + words - 1), Err(Fault::UseAfterFree { addr: a + words - 1 }));
        // Bases are never recycled, so the next block starts past the old one.
        assert!(mem.alloc(1).unwrap() > a + words);
    }

    #[test]
    fn a_block_past_the_address_space_faults_and_leaves_the_allocator_alone() {
        let mut mem = Memory::new();
        assert_eq!(mem.alloc(u64::MAX), Err(Fault::InvalidAccess { addr: HEAP_BASE }));
        assert_eq!(mem.live_allocations(), 0);
        assert_eq!(mem.alloc(2), Ok(HEAP_BASE));
        assert_eq!(
            mem.alloc(u64::MAX - HEAP_BASE),
            Err(Fault::InvalidAccess { addr: HEAP_BASE + 3 })
        );
        assert_eq!(mem.alloc(1), Ok(HEAP_BASE + 3));
    }

    #[test]
    fn snapshot_contains_only_nonzero() {
        let mut mem = Memory::new();
        mem.write(1, 0).unwrap();
        mem.write(2, 5).unwrap();
        let snap = mem.snapshot();
        assert!(!snap.contains_key(&1));
        assert_eq!(snap.get(&2), Some(&5));
    }
}
