//! `TileUniverse::approx_bytes` is what a byte-budgeted universe cache
//! charges, so it must match what a built universe really holds. A
//! counting global allocator measures the heap bytes a build leaves
//! live, and the number of allocations a build makes.

use cyclecover_ring::Ring;
use cyclecover_solver::TileUniverse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting live bytes and
/// allocation calls per thread (so concurrently running tests do not
/// disturb each other's figures). The counters are const-initialised
/// `Cell`s, so touching them never allocates.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: isize, allocs: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around each
// call neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller vouches for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as isize - layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize), 0);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Builds a universe; returns it with the heap bytes it holds (the
/// build's net live allocation plus the struct itself) and the number
/// of allocation calls the build made.
fn measured_build(n: u32, max_len: usize, max_gap: u32) -> (TileUniverse, usize, usize) {
    let (live0, allocs0) = (LIVE.with(Cell::get), ALLOCS.with(Cell::get));
    let u = TileUniverse::with_max_gap(Ring::new(n), max_len, max_gap);
    let (live1, allocs1) = (LIVE.with(Cell::get), ALLOCS.with(Cell::get));
    let held = (live1 - live0) as usize + std::mem::size_of::<TileUniverse>();
    (u, held, allocs1 - allocs0)
}

#[test]
fn approx_bytes_is_within_ten_percent_of_the_heap_held() {
    for (n, max_len, max_gap) in [(12u32, 12usize, 12u32), (16, 4, 8)] {
        let (u, held, _) = measured_build(n, max_len, max_gap);
        let charged = u.approx_bytes();
        let err = (charged as f64 - held as f64).abs() / held as f64;
        assert!(
            err <= 0.10,
            "n={n} max_len={max_len} max_gap={max_gap}: approx_bytes {charged} vs {held} held \
             ({:.1}% off)",
            100.0 * err
        );
    }
}

#[test]
fn allocations_per_build_do_not_grow_with_the_tile_count() {
    // Same ring, tile counts 1,484 and 65,399: the build must make the
    // same number of allocations for both.
    let (small, _, small_allocs) = measured_build(16, 4, 8);
    let (full, _, full_allocs) = measured_build(16, 16, 16);
    assert!(full.len() > 40 * small.len());
    assert_eq!(
        small_allocs,
        full_allocs,
        "{} tiles took {small_allocs} allocations, {} tiles took {full_allocs}",
        small.len(),
        full.len()
    );
    // And the count is a small constant, not a per-tile figure.
    assert!(
        small_allocs < small.len() / 10,
        "{small_allocs} allocations"
    );
}

#[test]
fn full_universe_at_n16_fits_its_layout_budget() {
    // 65,399 tiles. The chord table is the only per-tile record of a
    // tile's vertices; storing the vertex lists as well charges
    // 8,908,528 bytes here.
    let u = TileUniverse::new(Ring::new(16), 16);
    assert!(
        u.approx_bytes() <= 7_000_000,
        "n = 16 full universe charges {} bytes for {} tiles",
        u.approx_bytes(),
        u.len()
    );
}
