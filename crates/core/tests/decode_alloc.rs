//! Decoding a forged run-store record allocates in proportion to the
//! record, not to the element counts it claims. This is its own test
//! binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adcomp_core::recording::decode_spec;
use adcomp_core::{InterfaceMeta, TargetLayout};

/// The system allocator, tracking each thread's live and peak bytes
/// (per thread, so the test harness's other threads do not count).
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call goes to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees are this allocator's; the
// counters are const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size());
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated on this thread at the peak of `f`, above what was
/// live when it started.
fn peak_during(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

#[test]
fn forged_counts_allocate_no_more_than_the_input_holds() {
    const BOUND: usize = 64 * 1024;
    // Empty targeting and measurement labels, an id map that claims
    // 2^32 − 1 ids, and no ids: 13 bytes.
    let layout = [0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF];
    let peak = peak_during(|| assert!(TargetLayout::decode(&layout).is_err()));
    assert!(peak < BOUND, "13-byte target layout allocated {peak} bytes");

    // An empty label, no flags, 2^32 − 1 catalog entries claimed: 9 bytes.
    let meta = [0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF];
    let peak = peak_during(|| assert!(InterfaceMeta::decode(&meta).is_err()));
    assert!(
        peak < BOUND,
        "9-byte interface metadata allocated {peak} bytes"
    );

    // Unconstrained demographics, 2^32 − 1 include groups claimed, the
    // first of which claims 2^32 − 1 attributes: 11 bytes.
    let spec = [
        0xFF, 0xFF, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    ];
    let peak = peak_during(|| assert!(decode_spec(&spec).is_err()));
    assert!(peak < BOUND, "11-byte spec allocated {peak} bytes");
}
