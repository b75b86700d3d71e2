//! Bounds the heap allocations of the small graph builds `certify` runs
//! most: the budgeted `E_1*` graph of 2-process `T_{5,2}` and its Theorem
//! 13 chain, the configuration graph of the universal construction over
//! `stack:2,2` and its simulation check, and the consensus check of
//! `T_{4,2}`. These builds are allocation-bound, so an allocation count is
//! a stable proxy for their cost: an extra allocation per state or per
//! part shows here at once, where a timing would drown it in noise.
//!
//! A counting global allocator counts per thread, so the test harness's
//! other threads do not perturb a reading. Each call runs once unmeasured
//! first, so that one-time setup (lazily built tables, the thread's own
//! buffers) is not charged to it.

use rcn::model::System;
use rcn::protocols::TnnRecoverable;
use rcn::spec::zoo::BoundedStack;
use rcn::spec::ValueId;
use rcn::universal::{verify_simulation, UniversalSim};
use rcn::valency::{check_consensus, theorem13_chain, BudgetedGraph, ConfigGraph};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting each thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread past its TLS teardown allocates uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets `System`'s contract exactly when it meets
// `GlobalAlloc`'s, and returns what `System` returns. Counting touches only
// a `const`-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `Heap`, with
        // `layout`, and the caller upholds `realloc`'s contract.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `Heap`, with
        // `layout`.
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, its result dropped
/// uncounted, after one unmeasured warm-up call.
fn allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    drop(f());
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

const MAX_STATES: usize = 1_000_000;

/// The one-shot universal construction simulating `stack:2,2`: process 0
/// pushes 0, process 1 pops.
fn stack_sim() -> (System, BoundedStack) {
    let stack = BoundedStack::new(2, 2);
    let ops = vec![
        stack.push_op(0).index() as u32,
        stack.pop_op().index() as u32,
    ];
    let sys = UniversalSim::system(Arc::new(stack.clone()), ValueId::new(0), ops);
    (sys, stack)
}

/// Each call's allocations against its bound; the ones over it.
#[derive(Default)]
struct Bounds(Vec<String>);

impl Bounds {
    fn check<T>(&mut self, what: &str, bound: u64, f: impl FnMut() -> T) {
        let made = allocations(f);
        if made > bound {
            self.0
                .push(format!("{what}: {made} allocations, bound {bound}"));
        }
    }
}

#[test]
fn small_graph_builds_stay_allocation_lean() {
    let mut bounds = Bounds::default();
    let tnn52 = TnnRecoverable::system(5, 2, vec![0, 1]);
    bounds.check("BudgetedGraph T_{5,2}", 100, || {
        BudgetedGraph::explore(&tnn52, 1, 4, MAX_STATES).unwrap()
    });
    bounds.check("theorem13_chain T_{5,2}", 122, || {
        theorem13_chain(&tnn52, 1, 4, MAX_STATES).unwrap()
    });
    let (sim, stack) = stack_sim();
    bounds.check("ConfigGraph stack:2,2", 181, || {
        ConfigGraph::explore(&sim, MAX_STATES).unwrap()
    });
    bounds.check("verify_simulation stack:2,2", 264, || {
        verify_simulation(&sim, &stack, ValueId::new(0), MAX_STATES).unwrap()
    });
    let tnn42 = TnnRecoverable::system(4, 2, vec![0, 1]);
    bounds.check("check_consensus T_{4,2}", 135, || {
        check_consensus(&tnn42, MAX_STATES).unwrap()
    });
    assert!(bounds.0.is_empty(), "{}", bounds.0.join("\n"));
}
