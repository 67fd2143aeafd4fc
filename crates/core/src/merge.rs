//! The merging step (Algorithm 2): within each candidate set, repeatedly pick a random
//! root `A`, find the partner `B` maximizing `Saving(A, B, G)` (Eq. 8), and merge the
//! pair when the saving clears the iteration threshold `θ(t)` (Eq. 9).

use crate::engine::apply::{MergeRef, PlannedMerge};
use crate::engine::{MergeCtx, MergeEngine, MergeState, SavingCutoff};
use crate::model::SupernodeId;
use rand::rngs::StdRng;
use rand::RngExt;
use slugger_graph::hash::FxHashMap;

/// The merging threshold `θ(t)` of Eq. 9: high early on (so only clearly beneficial
/// pairs merge first), zero at the final iteration (so any non-worsening merge is
/// taken).
pub fn merging_threshold(iteration: usize, total_iterations: usize) -> f64 {
    if iteration >= total_iterations {
        0.0
    } else {
        1.0 / (1.0 + iteration as f64)
    }
}

/// Statistics of one merging pass over a single candidate set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Number of candidate pairs considered: every (pivot, partner) pair the scan
    /// reached, whether its saving was evaluated in full or bounded away.
    pub evaluated: usize,
    /// Of the `evaluated` pairs, those rejected before a full evaluation because an
    /// upper bound on their saving could not pass the scan's cutoff (see
    /// [`SavingCutoff`]).
    pub bounded: usize,
    /// Number of merges performed.
    pub merged: usize,
}

impl MergeStats {
    /// Accumulates another batch of statistics.
    pub fn absorb(&mut self, other: MergeStats) {
        self.evaluated += other.evaluated;
        self.bounded += other.bounded;
        self.merged += other.merged;
    }
}

/// Options for the merging step.
#[derive(Clone, Copy, Debug)]
pub struct MergeOptions {
    /// Threshold `θ(t)` for the current iteration.
    pub threshold: f64,
    /// Optional upper bound on the hierarchy-tree height (the Table V variant): a merge
    /// is skipped when the resulting tree would exceed this height.
    pub height_bound: Option<usize>,
}

/// Plans one candidate set `D` (Algorithm 2): merges greedily until every root has
/// been considered once as the pivot `A`, recording each merge as a
/// [`PlannedMerge`] so the sequence can be replayed on the authoritative engine by
/// the [`crate::engine::apply`] reconciliation layer.
///
/// Each partner of a pivot is evaluated against a [`SavingCutoff`] — `θ(t)` and the
/// pivot's best saving so far — and is given up on as soon as an upper bound on its
/// saving fails it.  Such a partner could neither become the pivot's first
/// strictly-best partner nor clear `θ(t)` as the best, so the planned merges are
/// exactly those of the exhaustive scan
/// ([`crate::testsupport::plan_candidate_set_reference`]).
///
/// The merges *are applied* to the given [`MergeState`] — in the sharded pipeline
/// that is a per-set copy-on-write overlay over the frozen iteration view; planning
/// directly on the authoritative [`MergeEngine`] is the in-place special case used
/// by [`process_candidate_set`].
pub fn plan_candidate_set<E: MergeState>(
    engine: &mut E,
    ctx: &mut MergeCtx,
    candidate_set: &[SupernodeId],
    options: &MergeOptions,
    rng: &mut StdRng,
) -> (Vec<PlannedMerge>, MergeStats) {
    let mut stats = MergeStats::default();
    // The pivot queue and the planned-product index are pooled in the context's
    // scratch (taken out for the duration of the call so the evaluate/apply calls
    // below can still borrow `ctx`); the merges vector is recycled from the pool
    // when a consumer has returned one.
    let mut merges: Vec<PlannedMerge> = ctx.scratch.merge_pool.pop().unwrap_or_default();
    merges.clear();
    // Supernodes created by this set's own merges, mapped to their plan position so
    // later merges can reference them positionally (engine-local ids are not stable
    // across a replay).
    let mut planned_ids: FxHashMap<SupernodeId, usize> =
        std::mem::take(&mut ctx.scratch.planned_ids);
    planned_ids.clear();
    // Q ← D; in the sharded pipeline candidate sets are disjoint, but stay defensive
    // against callers feeding stale ids (e.g. hand-built sets in tests).
    let mut queue: Vec<SupernodeId> = std::mem::take(&mut ctx.scratch.plan_queue);
    queue.clear();
    queue.extend(candidate_set.iter().copied().filter(|&r| engine.is_root(r)));
    while queue.len() > 1 {
        // Pick and remove a random pivot A.
        let idx = rng.random_range(0..queue.len());
        let a = queue.swap_remove(idx);
        if !engine.is_root(a) {
            continue;
        }
        // Find the partner with maximum saving.
        let mut best: Option<(usize, f64)> = None;
        for (pos, &z) in queue.iter().enumerate() {
            if z == a || !engine.is_root(z) {
                continue;
            }
            if let Some(bound) = options.height_bound {
                let new_height = engine.root_height(a).max(engine.root_height(z)) + 1;
                if new_height > bound {
                    continue;
                }
            }
            stats.evaluated += 1;
            let cutoff = SavingCutoff {
                threshold: options.threshold,
                best: best.map(|(_, s)| s),
            };
            // Only a partner that passes the cutoff with its exact saving becomes
            // the best: one below θ(t) could never merge, so recording it would not
            // tighten the bar either.
            match engine.evaluate_merge_within(a, z, ctx, &cutoff) {
                Some(eval) if !cutoff.rejects(eval.saving) => best = Some((pos, eval.saving)),
                Some(_) => {}
                None => stats.bounded += 1,
            }
        }
        // The best partner passed the cutoff, so its saving clears θ(t).
        let Some((pos, _)) = best else { continue };
        let b = queue[pos];
        let as_ref = |id: SupernodeId| match planned_ids.get(&id) {
            Some(&i) => MergeRef::Planned(i),
            None => MergeRef::Root(id),
        };
        merges.push(PlannedMerge {
            a: as_ref(a),
            b: as_ref(b),
        });
        let merged = engine.apply_merge(a, b, ctx);
        planned_ids.insert(merged, merges.len() - 1);
        stats.merged += 1;
        // Q ← (Q \ {B}) ∪ {A ∪ B}
        queue[pos] = merged;
    }
    ctx.scratch.plan_queue = queue;
    ctx.scratch.planned_ids = planned_ids;
    (merges, stats)
}

/// Processes one candidate set `D` (Algorithm 2) directly on the given engine: the
/// plan-and-apply-in-place special case of [`plan_candidate_set`].
pub fn process_candidate_set(
    engine: &mut MergeEngine,
    ctx: &mut MergeCtx,
    candidate_set: &[SupernodeId],
    options: &MergeOptions,
    rng: &mut StdRng,
) -> MergeStats {
    let (merges, stats) = plan_candidate_set(engine, ctx, candidate_set, options, rng);
    // In-place processing has no replay consumer; recycle the plan immediately.
    ctx.recycle_merges(merges);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use slugger_graph::Graph;

    #[test]
    fn threshold_schedule_matches_eq9() {
        assert!((merging_threshold(1, 20) - 0.5).abs() < 1e-12);
        assert!((merging_threshold(2, 20) - 1.0 / 3.0).abs() < 1e-12);
        assert!((merging_threshold(19, 20) - 0.05).abs() < 1e-12);
        assert_eq!(merging_threshold(20, 20), 0.0);
        assert_eq!(merging_threshold(25, 20), 0.0);
    }

    fn twin_heavy_graph() -> Graph {
        // Two hubs (0, 1) and six twin spokes attached to both: ideal merge fodder.
        let mut edges = Vec::new();
        for spoke in 2..8u32 {
            edges.push((0, spoke));
            edges.push((1, spoke));
        }
        edges.push((0, 1));
        Graph::from_edges(8, edges)
    }

    #[test]
    fn processing_a_candidate_set_merges_twins() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(3);
        let spokes: Vec<SupernodeId> = (2..8).collect();
        let before = engine.summary().encoding_cost();
        let stats = process_candidate_set(
            &mut engine,
            &mut ctx,
            &spokes,
            &MergeOptions {
                threshold: 0.0,
                height_bound: None,
            },
            &mut rng,
        );
        assert!(stats.evaluated > 0);
        assert!(
            stats.merged >= 4,
            "expected most twins to merge, got {stats:?}"
        );
        // Merging twins is cost-neutral before pruning (saved p-edges pay for the new
        // h-edges); the gain appears once edge-free internal supernodes are pruned.
        let after = engine.summary().encoding_cost();
        assert!(after <= before, "cost must not grow ({before} -> {after})");
        let graph = twin_heavy_graph();
        let mut summary = engine.into_summary();
        crate::prune::prune_all(&mut summary, &graph, 2);
        assert!(
            summary.encoding_cost() < before,
            "pruned cost should drop ({before} -> {})",
            summary.encoding_cost()
        );
        crate::decode::verify_lossless(&summary, &graph).unwrap();
    }

    #[test]
    fn high_threshold_blocks_marginal_merges() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(5);
        let all: Vec<SupernodeId> = (0..4).collect();
        let stats = process_candidate_set(
            &mut engine,
            &mut ctx,
            &all,
            &MergeOptions {
                threshold: 0.9,
                height_bound: None,
            },
            &mut rng,
        );
        assert_eq!(stats.merged, 0);
        assert_eq!(engine.num_roots(), 4);
    }

    #[test]
    fn height_bound_limits_tree_growth() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(9);
        let spokes: Vec<SupernodeId> = (2..8).collect();
        // Height bound 1: only leaf-leaf merges allowed, so every merged tree has
        // exactly two leaves.
        let _ = process_candidate_set(
            &mut engine,
            &mut ctx,
            &spokes,
            &MergeOptions {
                threshold: 0.0,
                height_bound: Some(1),
            },
            &mut rng,
        );
        for root in engine.roots() {
            assert!(engine.root_height(root) <= 1);
            assert!(engine.summary().members(root).len() <= 2);
        }
        engine.summary().validate().unwrap();
    }

    #[test]
    fn stale_candidates_are_skipped() {
        let g = twin_heavy_graph();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut rng = StdRng::seed_from_u64(1);
        // Merge 2 and 3 beforehand; the candidate set still names them.
        let m = engine.apply_merge(2, 3, &mut ctx);
        let candidates: Vec<SupernodeId> = vec![2, 3, 4, 5, m];
        let stats = process_candidate_set(
            &mut engine,
            &mut ctx,
            &candidates,
            &MergeOptions {
                threshold: 0.0,
                height_bound: None,
            },
            &mut rng,
        );
        // No panic, and some work happened on the live roots.
        assert!(stats.evaluated > 0);
        engine.summary().validate().unwrap();
    }
}
