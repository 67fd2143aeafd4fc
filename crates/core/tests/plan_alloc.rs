//! Counting-allocator test pinning the pooled planning overlay's allocation
//! discipline: once the per-worker `PlanScratch` / `MergeCtx` pools are warm,
//! planning a candidate set performs **zero heap allocations** — no overlay maps, no
//! per-root metadata clones, no per-merge adjacency folds, no queue/plan vectors.
//! Pinned at θ = 0 (every evaluation runs to completion unless it cannot beat the
//! best partner) and at θ = 0.5, where the bounded evaluation's early exits
//! dominate.
//!
//! The file holds a single test (plus the allocator plumbing) so no other test
//! thread can allocate inside the measured window.

use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::{MergeCtx, MergeEngine};
use slugger_core::merge::{plan_candidate_set, MergeOptions};
use slugger_core::pipeline::set_rng;
use slugger_graph::gen::{caveman, CavemanConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocation events while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_set_planning_allocates_nothing() {
    for threshold in [0.0, 0.5] {
        assert_steady_state_planning_allocates_nothing(threshold);
    }
}

fn assert_steady_state_planning_allocates_nothing(threshold: f64) {
    let graph = caveman(&CavemanConfig {
        num_nodes: 120,
        num_cliques: 15,
        min_clique: 5,
        max_clique: 9,
        rewire_probability: 0.02,
        seed: 7,
    });
    let engine = MergeEngine::new(&graph);
    let roots = engine.roots();
    // Two candidate sets over live roots; planning alternates between them, so the
    // measured pass re-plans sets whose roles the pools already served.
    let set_a: Vec<u32> = roots.iter().copied().take(40).collect();
    let set_b: Vec<u32> = roots.iter().copied().skip(40).take(40).collect();
    let options = MergeOptions {
        threshold,
        height_bound: None,
    };
    let mut ctx = MergeCtx::new();
    let mut scratch = PlanScratch::new();

    let plan = |ctx: &mut MergeCtx, scratch: &mut PlanScratch, set: &[u32], stream: usize| {
        let mut overlay = PlanningEngine::new(&engine, set, scratch);
        let mut rng = set_rng(9, 1, stream);
        let (merges, stats) = plan_candidate_set(&mut overlay, ctx, set, &options, &mut rng);
        assert!(stats.evaluated > 0, "the workload must exercise planning");
        if threshold > 0.0 {
            assert!(
                stats.bounded * 2 > stats.evaluated,
                "early exits must dominate at θ = {threshold}: {stats:?}"
            );
        }
        // Recycle the plan's merge vector, as the apply stage's consumer would.
        ctx.recycle_merges(merges);
    };

    // Warm-up: populate the memo, the overlay pools and the merge-vector pool.
    // Every round replays the identical (set, RNG stream) workload, so the pooled
    // buffers' capacities converge to the workload's demand multiset; the number of
    // rounds that takes is an allocator implementation detail, so warm adaptively
    // until a full round stays off the heap (the convergence itself is asserted by
    // the round cap).
    let mut rounds = 0usize;
    loop {
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        plan(&mut ctx, &mut scratch, &set_a, 0);
        plan(&mut ctx, &mut scratch, &set_b, 1);
        ARMED.store(false, Ordering::SeqCst);
        if ALLOCS.load(Ordering::SeqCst) == 0 {
            break;
        }
        rounds += 1;
        assert!(
            rounds < 32,
            "planning pools failed to reach an allocation-free steady state at θ = {threshold}"
        );
    }

    // Steady state: re-planning the same sets must not touch the heap at all.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    plan(&mut ctx, &mut scratch, &set_a, 0);
    plan(&mut ctx, &mut scratch, &set_b, 1);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state planning of two warmed candidate sets at θ = {threshold} performed {allocs} heap allocations"
    );
}
