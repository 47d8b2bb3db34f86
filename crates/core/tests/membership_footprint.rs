//! A membership table's memory follows its entries, not the organizer ids
//! it has seen: HELPs from far-off organizers must not size it to their
//! ids.
//!
//! The test binary counts the bytes each thread asks the allocator for,
//! so a test measures its own table and nothing the harness does on other
//! threads.

use realtor_core::community::MembershipTable;
use realtor_simcore::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes requested per thread.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Cannot fail while the thread runs a test; ignore teardown.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every call goes to the system allocator unchanged; counting
// touches only a thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requested while running `f`.
fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.with(Cell::get);
    f();
    REQUESTED.with(Cell::get) - before
}

const TTL: SimDuration = SimDuration::from_secs(100);

#[test]
fn refreshing_a_large_organizer_id_allocates_o1() {
    let mut table = MembershipTable::new(TTL);
    let bytes = requested_by(|| {
        table.refresh(1_000_000, SimTime::ZERO);
    });
    assert!(
        bytes <= 1024,
        "refreshing organizer 1,000,000 requested {bytes} B"
    );
    assert!(table.is_member(1_000_000, SimTime::ZERO));
    assert_eq!(table.count(SimTime::ZERO), 1);
}

#[test]
fn memory_grows_with_entries_not_ids() {
    let mut table = MembershipTable::new(TTL);
    let entries = 1000;
    let bytes = requested_by(|| {
        for i in 0..entries {
            table.refresh(i * 1000, SimTime::ZERO + SimDuration::from_millis(i as u64));
        }
    });
    // Both structures double as they grow, so this is the sum over all
    // doublings: about 100 B per entry.
    assert!(
        bytes <= 200 * entries,
        "{entries} organizers up to id {} requested {bytes} B",
        (entries - 1) * 1000
    );
    assert_eq!(table.count(SimTime::from_secs(1)), entries as u32);
}
