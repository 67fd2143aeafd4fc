//! Soundness of the bounded `Saving(A, B, G)` evaluation behind the merging
//! step's partner scan.
//!
//! [`MergeState::evaluate_merge_within`] gives up on a pair as soon as an upper
//! bound on its saving fails the [`SavingCutoff`].  Every bound it checks must be
//! at least the exact saving, or the scan could skip the partner it would have
//! merged.  A cutoff rejects an upper bound `u` when `u < threshold` or
//! `u <= best`, so with `threshold` set to the exact saving `s` — or `best` set one
//! ulp below it — an evaluation gives up exactly when some bound it checked lies
//! below `s`.  Each pair is therefore checked at both cutoffs: it must complete,
//! with the exact result.  Under any other cutoff an evaluation must either
//! complete exactly or give up on a pair whose exact saving fails that cutoff.
//!
//! Pairs come from random graphs after random merge prefixes, on the
//! authoritative engine, on the planning overlay, and on engines adopted from
//! pruned multi-arity hierarchies (`MergeEngine::from_summary`, where sides enter
//! the panels as opaque cells).

// The vendored `proptest!` macro expands recursively per statement.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::{MergeCtx, MergeEngine, MergeState, SavingCutoff};
use slugger_core::model::SupernodeId;
use slugger_core::{Slugger, SluggerConfig};
use slugger_graph::gen::{caveman, erdos_renyi, CavemanConfig};
use slugger_graph::Graph;

/// Pairs whose evaluation gave up, over all cutoffs a check tried.
#[derive(Default)]
struct Tally {
    pairs: usize,
    gave_up: usize,
}

/// Checks every pair among the `limit` highest-id roots on `state` (merge products
/// and adopted internal roots first).
fn check_pairs<E: MergeState>(
    state: &E,
    mut roots: Vec<SupernodeId>,
    limit: usize,
    ctx: &mut MergeCtx,
    tally: &mut Tally,
) -> Result<(), String> {
    roots.sort_unstable_by(|x, y| y.cmp(x));
    roots.truncate(limit);
    for (i, &a) in roots.iter().enumerate() {
        for &b in &roots[i + 1..] {
            check_pair(state, a, b, ctx, tally)?;
        }
    }
    Ok(())
}

fn check_pair<E: MergeState>(
    state: &E,
    a: SupernodeId,
    b: SupernodeId,
    ctx: &mut MergeCtx,
    tally: &mut Tally,
) -> Result<(), String> {
    let exact = state.evaluate_merge(a, b, ctx);
    let s = exact.saving;
    tally.pairs += 1;
    let mut cutoffs = vec![
        (
            "threshold at the exact saving",
            SavingCutoff {
                threshold: s,
                best: None,
            },
            true,
        ),
        (
            "best one ulp below the exact saving",
            SavingCutoff {
                threshold: f64::NEG_INFINITY,
                best: Some(s.next_down()),
            },
            s.is_finite(),
        ),
    ];
    // Cutoffs that may or may not give up: the scan's own thresholds, and bests
    // at and just above the exact saving.
    for threshold in [0.0, 0.05, 1.0 / 3.0, 0.5] {
        cutoffs.push((
            "scan threshold",
            SavingCutoff {
                threshold,
                best: None,
            },
            false,
        ));
    }
    for best in [s, s.next_up()] {
        cutoffs.push((
            "best at or above the exact saving",
            SavingCutoff {
                threshold: 0.0,
                best: Some(best),
            },
            false,
        ));
    }
    for (what, cutoff, must_complete) in cutoffs {
        match state.evaluate_merge_within(a, b, ctx, &cutoff) {
            Some(eval) => {
                prop_assert_eq!(eval.cost_before, exact.cost_before, "({a},{b}) {what}");
                prop_assert_eq!(eval.cost_after, exact.cost_after, "({a},{b}) {what}");
                prop_assert_eq!(eval.saving.to_bits(), s.to_bits(), "({a},{b}) {what}");
            }
            None => {
                tally.gave_up += 1;
                prop_assert!(
                    !must_complete,
                    "({a},{b}) gave up under the {what} (saving {s}): a bound undercut it"
                );
                prop_assert!(
                    cutoff.rejects(s),
                    "({a},{b}) gave up under the {what} {cutoff:?} although its exact saving {s} passes"
                );
            }
        }
    }
    Ok(())
}

/// Applies up to `count` merges of random root pairs drawn from `pool` (merge
/// products join the pool).
fn random_prefix<E: MergeState>(
    state: &mut E,
    pool: &mut Vec<SupernodeId>,
    count: usize,
    rng: &mut StdRng,
    ctx: &mut MergeCtx,
) {
    for _ in 0..count {
        pool.retain(|&r| state.is_root(r));
        if pool.len() < 2 {
            return;
        }
        let a = pool.swap_remove(rng.random_range(0..pool.len()));
        let b = pool.swap_remove(rng.random_range(0..pool.len()));
        let merged = state.apply_merge(a, b, ctx);
        pool.push(merged);
    }
}

fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
    erdos_renyi(n, m.min(n * (n - 1) / 2), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_bounds_never_undercut_the_exact_saving(
        n in 6usize..40, m in 5usize..160, seed in 0u64..1_000_000, prefix in 0usize..30
    ) {
        let graph = random_graph(n, m, seed);
        let mut engine = MergeEngine::new(&graph);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = engine.roots();
        random_prefix(&mut engine, &mut pool, prefix, &mut rng, &mut ctx);
        check_pairs(&engine, engine.roots(), 24, &mut ctx, &mut Tally::default())?;
    }

    #[test]
    fn overlay_bounds_never_undercut_the_exact_saving(
        n in 6usize..40, m in 5usize..160, seed in 0u64..1_000_000, prefix in 0usize..30
    ) {
        let graph = random_graph(n, m, seed);
        let frozen = MergeEngine::new(&graph);
        let tracked = frozen.roots();
        let mut scratch = PlanScratch::new();
        let mut overlay = PlanningEngine::new(&frozen, &tracked, &mut scratch);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e7e_41a7);
        let mut pool = tracked.clone();
        random_prefix(&mut overlay, &mut pool, prefix, &mut rng, &mut ctx);
        pool.retain(|&r| overlay.is_root(r));
        check_pairs(&overlay, pool, 24, &mut ctx, &mut Tally::default())?;
    }

    #[test]
    fn adopted_pruned_hierarchy_bounds_never_undercut_the_exact_saving(
        cliques in 3usize..8, seed in 0u64..1_000_000, prefix in 0usize..12
    ) {
        let (mut engine, _) = adopted_pruned_engine(cliques, seed);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = engine.roots();
        random_prefix(&mut engine, &mut pool, prefix, &mut rng, &mut ctx);
        check_pairs(&engine, engine.roots(), 24, &mut ctx, &mut Tally::default())?;
    }
}

/// A summarized (hence pruned) caveman graph re-adopted by a fresh engine, plus
/// the number of its roots with more than two children.
fn adopted_pruned_engine(cliques: usize, seed: u64) -> (MergeEngine, usize) {
    let graph = caveman(&CavemanConfig {
        num_nodes: cliques * 8,
        num_cliques: cliques,
        min_clique: 5,
        max_clique: 11,
        rewire_probability: 0.05,
        seed,
    });
    let outcome = Slugger::new(SluggerConfig {
        iterations: 6,
        seed,
        ..SluggerConfig::default()
    })
    .summarize(&graph);
    let engine = MergeEngine::from_summary(outcome.summary);
    let multi_arity = engine
        .roots()
        .into_iter()
        .filter(|&r| engine.summary().children(r).len() > 2)
        .count();
    (engine, multi_arity)
}

/// The properties above must actually exercise the early exits and the opaque
/// multi-arity sides, or they would pin nothing.
#[test]
fn bound_checks_exercise_early_exits_and_opaque_sides() {
    let mut ctx = MergeCtx::new();
    let mut tally = Tally::default();
    let mut multi_arity = 0;
    for seed in 0..4u64 {
        let (engine, multi) = adopted_pruned_engine(6, seed);
        multi_arity += multi;
        check_pairs(&engine, engine.roots(), 30, &mut ctx, &mut tally).unwrap();
    }
    let graph = random_graph(30, 90, 11);
    let engine = MergeEngine::new(&graph);
    check_pairs(&engine, engine.roots(), 30, &mut ctx, &mut tally).unwrap();
    assert!(
        multi_arity > 0,
        "no adopted root has more than two children"
    );
    assert!(tally.gave_up > 0, "no evaluation gave up early");
    assert!(
        tally.gave_up < tally.pairs * 8,
        "every evaluation gave up under every cutoff"
    );
}
