//! The benchmark's own counting allocator.
//!
//! Installed as the global allocator of the `ledger` binary only. While
//! counting is off — every end-to-end run — an allocation costs one relaxed
//! flag load on top of the system allocator; the traced pass switches it on
//! around the measured `Runner` call to report allocations and bytes per
//! request. (The harness has an opt-in `alloc-profile` feature doing the same
//! job per phase; enabling a feature of a layer crate would change what the
//! end-to-end runs measure, so the ledger counts from outside instead.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAllocator;

impl CountingAllocator {
    // The counters publish no other data (they are statistics read after the
    // counted region has ended on the reading thread, or after worker threads
    // were joined), so `Relaxed` is enough throughout.
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are atomic counter
// updates, which neither allocate nor unwind.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's obligations on `layout` pass through to
    // `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations on `layout` pass through to
    // `System.alloc_zeroed` untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`; since `alloc`/`alloc_zeroed`/`realloc` all delegate to
    // `System`, it came from `System` with that layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocator round trip; count its new size.
        Self::note(new_size);
        // SAFETY: see the method's comment; arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`, hence from `System` with that layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the method's comment; arguments are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocations: u64,
    pub bytes: u64,
}

/// One counted region at a time: the counters are process-wide.
static REGION: Mutex<()> = Mutex::new(());

/// Runs `f` with counting on and returns what it (and any thread it drives)
/// allocated. Concurrent callers are serialised; do not nest.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    // The guarded data is `()`, so a poisoned lock is still valid.
    let _region = REGION
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other test threads allocate while this region is open, so only lower
    // bounds can be asserted.
    #[test]
    fn counts_only_inside_the_region() {
        let (v, count) = counted(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(count.allocations >= 1);
        assert!(count.bytes >= 4096);
    }
}
