//! Shared invariance-test machinery.
//!
//! The byte-identity pins (`apply_invariance`, `incremental_invariance`,
//! `query_snapshot`, `scenario_matrix`, ...) all compare summaries through the
//! same canonical form and sweep the same `parallelism × shards` lattice, and
//! the optimized merging step is pinned to its exhaustive reference scan
//! ([`plan_candidate_set_reference`]).
//! This module is that machinery's single home; it ships in the library (not
//! `#[cfg(test)]`) so integration tests *and* downstream crates' tests can use
//! it, but it is documented as test support and carries no stability promise
//! beyond what the tests themselves pin.

use crate::engine::apply::{MergeRef, PlannedMerge};
use crate::engine::{MergeCtx, MergeState};
use crate::merge::{MergeOptions, MergeStats};
use crate::model::{HierarchicalSummary, SupernodeId};
use crate::pipeline::Parallelism;
use rand::rngs::StdRng;
use rand::RngExt;
use slugger_graph::hash::FxHashMap;

/// One arena slot of the canonical form: `(parent, children, members, alive)`.
pub type CanonicalSlot = (Option<u32>, Vec<u32>, Vec<u32>, bool);

/// The canonical form of a summary: every observable byte of the model, with
/// the (layout-dependent) hash maps flattened into sorted vectors.  Two
/// summaries with equal canonical forms are byte-identical as far as any
/// consumer can tell — this is the **id-exact** comparison; for the id-free
/// (structural) comparison used across compaction/recovery boundaries see
/// [`crate::decode::canonical_form`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalSummary {
    /// Subnode-universe size.
    pub num_subnodes: usize,
    /// Every arena slot in id order (dead slots included).
    pub arena: Vec<CanonicalSlot>,
    /// Sorted `((a, b), weight)` p/n-edge list.
    pub edges: Vec<((u32, u32), i32)>,
}

/// Flattens a summary into its canonical form (see [`CanonicalSummary`]).
pub fn canonical(summary: &HierarchicalSummary) -> CanonicalSummary {
    let arena = (0..summary.arena_len() as u32)
        .map(|id| {
            (
                summary.parent(id),
                summary.children(id).to_vec(),
                summary.members(id).to_vec(),
                summary.is_alive(id),
            )
        })
        .collect();
    let mut edges: Vec<((u32, u32), i32)> = summary
        .pn_edges()
        .map(|(key, sign)| (key, sign.weight()))
        .collect();
    edges.sort_unstable();
    CanonicalSummary {
        num_subnodes: summary.num_subnodes(),
        arena,
        edges,
    }
}

/// Thread counts the invariance lattice sweeps.
pub const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts the invariance lattice sweeps.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// One point of the `parallelism × shards` invariance lattice.
#[derive(Clone, Copy, Debug)]
pub struct LatticePoint {
    /// The swept thread count (1 maps to [`Parallelism::Sequential`]).
    pub threads: usize,
    /// The pipeline parallelism setting for `threads`.
    pub parallelism: Parallelism,
    /// The swept shard count.
    pub shards: usize,
}

/// The full 12-point lattice: `threads {1, 2, 4, 8} × shards {1, 4, 16}`,
/// threads-major, with `threads == 1` mapped to [`Parallelism::Sequential`]
/// (the serial ascending-set-index replay every other point must reproduce).
pub fn lattice() -> Vec<LatticePoint> {
    let mut points = Vec::with_capacity(PARALLELISM_LEVELS.len() * SHARD_COUNTS.len());
    for &threads in &PARALLELISM_LEVELS {
        for &shards in &SHARD_COUNTS {
            let parallelism = if threads == 1 {
                Parallelism::Sequential
            } else {
                Parallelism::Fixed(threads)
            };
            points.push(LatticePoint {
                threads,
                parallelism,
                shards,
            });
        }
    }
    points
}

/// The exhaustive form of [`crate::merge::plan_candidate_set`]: every partner of
/// every pivot gets a full `Saving(A, B, G)` evaluation, with no cutoff.  The oracle
/// the bounded scan must match merge for merge (same [`PlannedMerge`] sequence,
/// same RNG draws, same merged roots); its `bounded` count is always 0.
pub fn plan_candidate_set_reference<E: MergeState>(
    engine: &mut E,
    ctx: &mut MergeCtx,
    candidate_set: &[SupernodeId],
    options: &MergeOptions,
    rng: &mut StdRng,
) -> (Vec<PlannedMerge>, MergeStats) {
    let mut stats = MergeStats::default();
    let mut merges = Vec::new();
    let mut planned_ids: FxHashMap<SupernodeId, usize> = FxHashMap::default();
    let mut queue: Vec<SupernodeId> = candidate_set
        .iter()
        .copied()
        .filter(|&r| engine.is_root(r))
        .collect();
    while queue.len() > 1 {
        let a = queue.swap_remove(rng.random_range(0..queue.len()));
        if !engine.is_root(a) {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pos, &z) in queue.iter().enumerate() {
            if z == a || !engine.is_root(z) {
                continue;
            }
            if let Some(bound) = options.height_bound {
                if engine.root_height(a).max(engine.root_height(z)) + 1 > bound {
                    continue;
                }
            }
            let eval = engine.evaluate_merge(a, z, ctx);
            stats.evaluated += 1;
            if best.is_none_or(|(_, s)| eval.saving > s) {
                best = Some((pos, eval.saving));
            }
        }
        let Some((pos, saving)) = best else { continue };
        if saving >= options.threshold {
            let as_ref = |id: SupernodeId| match planned_ids.get(&id) {
                Some(&i) => MergeRef::Planned(i),
                None => MergeRef::Root(id),
            };
            merges.push(PlannedMerge {
                a: as_ref(a),
                b: as_ref(queue[pos]),
            });
            let merged = engine.apply_merge(a, queue[pos], ctx);
            planned_ids.insert(merged, merges.len() - 1);
            stats.merged += 1;
            queue[pos] = merged;
        }
    }
    (merges, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Slugger, SluggerConfig};
    use slugger_graph::Graph;

    #[test]
    fn lattice_has_twelve_points_and_maps_one_to_sequential() {
        let points = lattice();
        assert_eq!(points.len(), 12);
        for p in &points {
            match p.parallelism {
                Parallelism::Sequential => assert_eq!(p.threads, 1),
                Parallelism::Fixed(n) => assert_eq!(n, p.threads),
                other => panic!("unexpected lattice parallelism {other:?}"),
            }
            assert!(SHARD_COUNTS.contains(&p.shards));
        }
    }

    #[test]
    fn canonical_distinguishes_structurally_different_summaries() {
        let a = Slugger::new(SluggerConfig {
            iterations: 3,
            seed: 1,
            ..SluggerConfig::default()
        })
        .summarize(&Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4)]));
        let b = Slugger::new(SluggerConfig {
            iterations: 3,
            seed: 1,
            ..SluggerConfig::default()
        })
        .summarize(&Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (4, 5)]));
        assert_eq!(canonical(&a.summary), canonical(&a.summary));
        assert_ne!(canonical(&a.summary), canonical(&b.summary));
    }
}
