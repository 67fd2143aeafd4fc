//! The merge engine: incremental bookkeeping around a [`HierarchicalSummary`] that the
//! merging step (Algorithm 2) needs — which supernode is the current root of each
//! tree, which roots are adjacent through p/n-edges, per-root costs — plus the two
//! operations at the heart of SLUGGER: evaluating `Saving(A, B, G)` (Eq. 8) and
//! actually merging two roots while re-encoding their panel (Sect. III-B3).
//!
//! In the sharded pipeline ([`crate::pipeline`]) the engine is split into two roles:
//!
//! * the **immutable cost/topology view** — the engine as it stood when the
//!   iteration's candidate sets were generated, shared as `&MergeEngine` by every
//!   shard and queried through the `view` trait;
//! * the **per-shard mutable state** — a copy-on-write [`plan::PlanningEngine`]
//!   overlay on which a shard speculatively plans each candidate set's merges,
//!   touching memory proportional to the set instead of deep-copying the engine.
//!
//! The plans are then replayed against the authoritative engine by the [`apply`]
//! reconciliation layer, which re-runs the exact `Saving(A, B, G)` re-encoding
//! machinery of [`MergeEngine::apply_merge`], so the final cost bookkeeping is exact
//! regardless of how planning was sharded.
//!
//! Every evaluation/application runs against a per-worker [`MergeCtx`]: the encoder
//! memo plus reusable scratch buffers, so the hot path performs no per-evaluation
//! heap allocation (see `view`'s module docs for the allocation discipline).

pub mod apply;
pub mod plan;
pub(crate) mod view;

use crate::encoder::{EncoderMemo, PanelSolution};
use crate::model::{EdgeSign, HierarchicalSummary, SupernodeId};
use slugger_graph::hash::FxHashMap;
use slugger_graph::Graph;
use view::{MergeView, PanelEdges, PnEdgeSink};

/// Per-worker mutable context of the merge machinery: the panel re-encoding memo
/// plus reusable scratch buffers.
///
/// One context per shard worker (forked by [`crate::pipeline::ShardWorker::fork`])
/// or per driver; reusing it across evaluations is what keeps the inner loop
/// allocation-free.  The scratch contents are transient per call and never carry
/// state between evaluations — pinned by the scratch-reuse property test in
/// `tests/candidate_determinism.rs`.
#[derive(Default)]
pub struct MergeCtx {
    /// The memoized Case-1/Case-2 panel solver.
    pub memo: EncoderMemo,
    /// Reusable buffers for the problem builders (transient per call).
    pub(crate) scratch: EvalScratch,
}

impl MergeCtx {
    /// A context with an enabled memo.
    pub fn new() -> Self {
        MergeCtx {
            memo: EncoderMemo::new(),
            scratch: EvalScratch::default(),
        }
    }

    /// A context whose memo re-solves every panel (for the memoization ablation).
    pub fn disabled() -> Self {
        MergeCtx {
            memo: EncoderMemo::disabled(),
            scratch: EvalScratch::default(),
        }
    }

    /// Wraps an existing memo (e.g. one shared across runs) with fresh scratch.
    pub fn from_memo(memo: EncoderMemo) -> Self {
        MergeCtx {
            memo,
            scratch: EvalScratch::default(),
        }
    }

    /// A fresh context with the same memoization setting as `self` (used to fork
    /// per-worker contexts for the parallel apply stage).
    pub fn fork_like(&self) -> Self {
        if self.memo.enabled {
            MergeCtx::new()
        } else {
            MergeCtx::disabled()
        }
    }

    /// Returns a spent `SetPlan::merges` vector to the pool, so the next
    /// [`crate::merge::plan_candidate_set`] call on this context reuses its
    /// allocation instead of allocating a fresh one.  The pool is capped; excess
    /// vectors are simply dropped.
    pub fn recycle_merges(&mut self, merges: Vec<apply::PlannedMerge>) {
        const MERGE_POOL_CAP: usize = 256;
        if self.scratch.merge_pool.len() < MERGE_POOL_CAP {
            self.scratch.merge_pool.push(merges);
        }
    }
}

/// One Case-2 re-encoding gathered while planning a merge application: the common
/// adjacent root, its solved panel, the old cross edges and the root's children.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Case2Record {
    pub(crate) c: SupernodeId,
    pub(crate) sol: PanelSolution,
    pub(crate) old: PanelEdges,
    pub(crate) c_kids: [Option<SupernodeId>; 3],
}

/// A fully resolved merge: everything [`MergeEngine::commit_merge`] (or the overlay's
/// replay) needs to apply the merge of roots `a` and `b` into supernode `m` without
/// re-reading any pre-merge state.
///
/// Produced by [`view::resolve_merge_into`] against the pre-merge state; the Case-2
/// records live in a caller-owned buffer, referenced by `(case2_start, case2_len)`.
/// Resolution is the expensive half of a merge (panel building + solving), which is
/// what the parallel apply stage fans out across workers; committing a resolution is
/// cheap and stays serial.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedMerge {
    pub(crate) a: SupernodeId,
    pub(crate) b: SupernodeId,
    /// The id the merged supernode gets (precomputed for forced-slot commits).
    pub(crate) m: SupernodeId,
    /// Pre-merge p/n-edge count between the two trees.
    pub(crate) cross_ab: u32,
    pub(crate) a_kids: [Option<SupernodeId>; 3],
    pub(crate) b_kids: [Option<SupernodeId>; 3],
    pub(crate) sol1: PanelSolution,
    pub(crate) old1: PanelEdges,
    pub(crate) case2_start: usize,
    pub(crate) case2_len: usize,
}

/// Reusable buffers of one [`MergeCtx`] (see [`view`]'s allocation discipline).
#[derive(Default)]
pub(crate) struct EvalScratch {
    /// Roots adjacent to both sides of the evaluated pair, each with the number of
    /// p/n-edges it shares with the two trees (see [`view::common_adjacent_roots`]).
    pub(crate) commons: Vec<(SupernodeId, u32)>,
    /// Case-2 records accumulated while applying one merge.
    pub(crate) case2: Vec<Case2Record>,
    /// Supernode ids created while replaying one set plan
    /// ([`apply::apply_set_plan`]), pooled so replay allocates nothing per plan.
    pub(crate) created: Vec<SupernodeId>,
    /// Pooled pivot queue of [`crate::merge::plan_candidate_set`].
    pub(crate) plan_queue: Vec<SupernodeId>,
    /// Pooled planned-product index of [`crate::merge::plan_candidate_set`].
    pub(crate) planned_ids: FxHashMap<SupernodeId, usize>,
    /// Recycled `SetPlan::merges` vectors: planning pops one instead of allocating,
    /// and consumers may push spent vectors back.
    pub(crate) merge_pool: Vec<Vec<apply::PlannedMerge>>,
}

/// Per-root metadata maintained incrementally by the engine (and, copy-on-write, by
/// the planning overlay in [`plan`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct RootMeta {
    /// Number of supernodes in the tree (so `h-edges = tree_size − 1`).
    pub(crate) tree_size: usize,
    /// Height of the tree (a lone leaf has height 0).
    pub(crate) height: usize,
    /// For each adjacent root (including the root itself for intra-tree edges), the
    /// number of p/n-edges between the two trees.
    pub(crate) adjacency: FxHashMap<SupernodeId, u32>,
    /// Total number of p/n-edges incident to the tree (the sum of `adjacency`'s values,
    /// cached so `Cost^P_A` is O(1) — evaluating savings against high-degree roots
    /// would otherwise re-sum a large map for every candidate pair).
    pub(crate) pn_count: usize,
}

impl RootMeta {
    pub(crate) fn h_edges(&self) -> usize {
        self.tree_size.saturating_sub(1)
    }

    /// `Cost_A(G) = Cost^H_A + Cost^P_A` (Eq. 6).
    pub(crate) fn cost(&self) -> usize {
        self.h_edges() + self.pn_incident()
    }

    /// Number of p/n-edges between this tree and the tree of `other` (the tree's
    /// own intra-tree edges when `other` is this root).
    pub(crate) fn edges_to(&self, other: SupernodeId) -> usize {
        self.adjacency.get(&other).map_or(0, |&c| c as usize)
    }

    /// Cost^P_A(G): number of p/n-edges incident to the tree (intra-tree edges counted
    /// once).
    pub(crate) fn pn_incident(&self) -> usize {
        debug_assert_eq!(
            self.pn_count,
            self.adjacency.values().map(|&c| c as usize).sum::<usize>()
        );
        self.pn_count
    }
}

/// The mutable planning surface Algorithm 2 needs, implemented both by the
/// authoritative [`MergeEngine`] (plan-and-apply in place) and by the per-shard
/// copy-on-write overlay ([`plan::PlanningEngine`]).
pub trait MergeState {
    /// Whether `id` is currently a root.
    fn is_root(&self, id: SupernodeId) -> bool;
    /// Height of the tree rooted at `root`.
    fn root_height(&self, root: SupernodeId) -> usize;
    /// Evaluates `Saving(A, B, G)` (Eq. 8) without mutating the state, giving up
    /// with `None` as soon as an upper bound on the saving proves the pair cannot
    /// pass `cutoff` (see [`SavingCutoff`]).
    fn evaluate_merge_within(
        &self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
        cutoff: &SavingCutoff,
    ) -> Option<MergeEvaluation>;
    /// Evaluates `Saving(A, B, G)` (Eq. 8) exactly, without mutating the state.
    fn evaluate_merge(
        &self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
    ) -> MergeEvaluation {
        self.evaluate_merge_within(a, b, ctx, &SavingCutoff::NONE)
            .expect("an evaluation without a cutoff always completes")
    }
    /// Merges roots `a` and `b`, applying the panel re-encodings; returns the merged
    /// root's id.
    fn apply_merge(&mut self, a: SupernodeId, b: SupernodeId, ctx: &mut MergeCtx) -> SupernodeId;
}

impl MergeState for MergeEngine {
    fn is_root(&self, id: SupernodeId) -> bool {
        self.summary().is_root(id)
    }

    fn root_height(&self, root: SupernodeId) -> usize {
        MergeEngine::root_height(self, root)
    }

    fn evaluate_merge_within(
        &self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
        cutoff: &SavingCutoff,
    ) -> Option<MergeEvaluation> {
        view::evaluate_merge(self, a, b, ctx, cutoff)
    }

    fn apply_merge(&mut self, a: SupernodeId, b: SupernodeId, ctx: &mut MergeCtx) -> SupernodeId {
        MergeEngine::apply_merge(self, a, b, ctx)
    }
}

/// The bar a partner's `Saving(A, B, G)` must clear to matter to the pivot scan of
/// [`crate::merge::plan_candidate_set`]: at least `θ(t)` (Eq. 9), and strictly more
/// than the pivot's best saving so far (the scan keeps the first strict maximum).
///
/// A bounded evaluation ([`MergeState::evaluate_merge_within`]) stops as soon as an
/// upper bound on the saving fails this bar.  Skipping such a partner never
/// changes the scan's outcome: it could neither become the pivot's best partner
/// nor, as the best, clear the threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SavingCutoff {
    /// Savings below `θ(t)` never merge.
    pub threshold: f64,
    /// The best saving among the partners scanned so far, if any.
    pub best: Option<f64>,
}

impl SavingCutoff {
    /// The cutoff that rejects nothing: the evaluation always completes.
    pub const NONE: SavingCutoff = SavingCutoff {
        threshold: f64::NEG_INFINITY,
        best: None,
    };

    /// Whether a pair whose saving is at most `upper` cannot pass the cutoff.
    #[inline]
    pub fn rejects(&self, upper: f64) -> bool {
        upper < self.threshold || self.best.is_some_and(|best| upper <= best)
    }
}

/// Outcome of evaluating a candidate merge.
#[derive(Clone, Debug)]
pub struct MergeEvaluation {
    /// `Saving(A, B, G)` as defined by Eq. 8 (may be negative).
    pub saving: f64,
    /// Encoding cost attributed to the pair before the merge (Eq. 8's denominator).
    pub cost_before: usize,
    /// Encoding cost of the merged root after the merge (Eq. 8's numerator).
    pub cost_after: usize,
}

/// Outcome of [`MergeEngine::dissolve_partial`].
///
/// Invariants: every id in `restore_leaves` is an edge-free singleton root whose
/// current-graph edges the caller must restore through
/// [`MergeEngine::restore_leaf_edge`]; `new_roots` are ALL the roots split out of
/// the dissolved tree (ascending) — the intact surviving subtrees plus the
/// re-expanded leaves, so `restore_leaves ⊆ new_roots` and on the whole-tree
/// path the two are equal.
#[derive(Clone, Debug)]
pub struct PartialDissolution {
    /// Leaves whose coverage was zeroed and whose edges need restoring.
    pub restore_leaves: Vec<SupernodeId>,
    /// Roots now heading the split-out surviving structure (ascending).
    pub new_roots: Vec<SupernodeId>,
    /// Supernodes killed (the ancestor spine, or the whole tree's internals on
    /// the fallback path).
    pub killed: usize,
    /// Whether the exact subtree split was unrepresentable and the whole tree
    /// was dissolved instead.
    pub fell_back: bool,
}

/// The merge engine. Owns the evolving [`HierarchicalSummary`] plus the root-level
/// indices; borrows the input graph only for initialization (the merging phase itself
/// works purely on the summary).
pub struct MergeEngine {
    summary: HierarchicalSummary,
    /// Union-find over supernode ids; the representative of a set is mapped to the
    /// current root supernode of that tree through `set_root`.
    dsu_parent: Vec<SupernodeId>,
    set_root: FxHashMap<SupernodeId, SupernodeId>,
    roots: FxHashMap<SupernodeId, RootMeta>,
    /// Root retirements buffered for a candidate index (see
    /// [`crate::candidates::IndexSink`]): every structural event that can change
    /// a root's shingle signature — merge, dissolution, split, root-level prune
    /// — records the ids it retired or re-promoted here.  Disabled (and empty)
    /// unless [`MergeEngine::enable_index_log`] was called, so the batch
    /// pipeline pays nothing; the owner drains it through
    /// [`MergeEngine::flush_retired`].
    retired: Vec<SupernodeId>,
    log_retired: bool,
}

impl MergeEngine {
    /// Initializes the engine with the identity summary of `graph`: every subnode is a
    /// singleton root and every subedge becomes a p-edge between the two singletons
    /// (Algorithm 1, lines 1–4).
    pub fn new(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut summary = HierarchicalSummary::identity(n);
        let mut roots: FxHashMap<SupernodeId, RootMeta> = FxHashMap::default();
        for u in 0..n as SupernodeId {
            roots.insert(
                u,
                RootMeta {
                    tree_size: 1,
                    height: 0,
                    adjacency: FxHashMap::default(),
                    pn_count: 0,
                },
            );
        }
        for (u, v) in graph.edges() {
            summary.set_edge(u, v, EdgeSign::Positive);
            let meta_u = roots.get_mut(&u).unwrap();
            *meta_u.adjacency.entry(v).or_insert(0) += 1;
            meta_u.pn_count += 1;
            let meta_v = roots.get_mut(&v).unwrap();
            *meta_v.adjacency.entry(u).or_insert(0) += 1;
            meta_v.pn_count += 1;
        }
        let dsu_parent = (0..n as SupernodeId).collect();
        let set_root = (0..n as SupernodeId).map(|u| (u, u)).collect();
        MergeEngine {
            summary,
            dsu_parent,
            set_root,
            roots,
            retired: Vec::new(),
            log_retired: false,
        }
    }

    /// Rebuilds an engine around an **existing** summary — one produced by a
    /// previous run (possibly pruned) or reloaded through [`crate::storage`]:
    /// reconstructs the union-find, the root set and every root's metadata from the
    /// summary's structure and p/n-edges.  O(arena + |P⁺| + |P⁻|), paid once; the
    /// incremental re-summarizer ([`crate::incremental`]) then maintains the engine
    /// across delta batches so per-batch work stays proportional to the dirty
    /// region.
    ///
    /// The summary is adopted as-is: the caller is responsible for it being a
    /// lossless encoding of whatever graph the follow-up merges should preserve.
    pub fn from_summary(summary: HierarchicalSummary) -> Self {
        let arena = summary.arena_len();
        let mut dsu_parent: Vec<SupernodeId> = (0..arena as SupernodeId).collect();
        for id in 0..arena as SupernodeId {
            if let Some(p) = summary.parent(id) {
                dsu_parent[id as usize] = p;
            }
        }
        let root_ids: Vec<SupernodeId> = summary.roots().collect();
        let mut set_root: FxHashMap<SupernodeId, SupernodeId> = FxHashMap::default();
        let mut roots: FxHashMap<SupernodeId, RootMeta> = FxHashMap::default();
        for &r in &root_ids {
            set_root.insert(r, r);
            roots.insert(
                r,
                RootMeta {
                    tree_size: summary.tree_supernodes(r).len(),
                    height: summary.tree_height(r),
                    adjacency: FxHashMap::default(),
                    pn_count: 0,
                },
            );
        }
        for ((x, y), _sign) in summary.pn_edges() {
            let rx = summary.root_of(x);
            let ry = summary.root_of(y);
            let meta_x = roots.get_mut(&rx).expect("edge endpoint's root");
            *meta_x.adjacency.entry(ry).or_insert(0) += 1;
            meta_x.pn_count += 1;
            if rx != ry {
                let meta_y = roots.get_mut(&ry).expect("edge endpoint's root");
                *meta_y.adjacency.entry(rx).or_insert(0) += 1;
                meta_y.pn_count += 1;
            }
        }
        MergeEngine {
            summary,
            dsu_parent,
            set_root,
            roots,
            retired: Vec::new(),
            log_retired: false,
        }
    }

    /// Turns on the retirement log: from now on every structural event that can
    /// change a root's shingle signature pushes the retired/re-promoted ids into
    /// an internal buffer, drained by [`MergeEngine::flush_retired`].  Idempotent;
    /// survives [`MergeEngine::compact`].
    pub fn enable_index_log(&mut self) {
        self.log_retired = true;
    }

    #[inline]
    fn log_retire(&mut self, id: SupernodeId) {
        if self.log_retired {
            self.retired.push(id);
        }
    }

    /// Drains the buffered retirements into `sink` (typically a
    /// [`crate::candidates::CandidateIndex`]).  No-op when the log is disabled
    /// or empty.
    pub fn flush_retired(&mut self, sink: &mut impl crate::candidates::IndexSink) {
        for id in self.retired.drain(..) {
            sink.retire_root(id);
        }
    }

    /// Dissolves the tree of `root` back into singleton-leaf roots: removes every
    /// p/n-edge incident to the tree through the bookkeeping sink (so neighbor
    /// roots' metadata stays exact), resets the union-find entries of the dissolved
    /// region, and gives every leaf a fresh edge-free `RootMeta`.  Returns
    /// `(leaves, killed_internal_supernodes)`.
    ///
    /// This is the dirty-region **re-expansion** primitive of
    /// [`crate::incremental`]: after dissolving, the caller restores exact
    /// leaf-level p-edges for the current graph's edges incident to the region,
    /// which re-establishes losslessness with the region fully expanded.
    pub fn dissolve_root(&mut self, root: SupernodeId) -> (usize, usize) {
        debug_assert!(
            self.roots.contains_key(&root),
            "dissolve requires a current root"
        );
        let tree = self.summary.tree_supernodes(root);
        // Drop every incident p/n-edge in deterministic (sorted) order: incidence
        // sets iterate in hash-layout order, which legitimately differs between the
        // serial and the parallel apply path's insertion histories.
        let mut incident: Vec<SupernodeId> = Vec::new();
        for &x in &tree {
            incident.clear();
            incident.extend(self.summary.incident(x));
            incident.sort_unstable();
            for &other in &incident {
                self.remove_pn_edge(x, other);
            }
        }
        // Root bookkeeping of the dissolved tree, then the structural dissolution.
        let rep = self.find(root);
        self.set_root.remove(&rep);
        self.roots.remove(&root);
        self.log_retire(root);
        let nodes = self.summary.dissolve_tree(root);
        let num_subnodes = self.summary.num_subnodes();
        let mut leaves = 0usize;
        for &x in &nodes {
            self.dsu_parent[x as usize] = x;
            if (x as usize) < num_subnodes {
                self.log_retire(x);
                self.set_root.insert(x, x);
                self.roots.insert(
                    x,
                    RootMeta {
                        tree_size: 1,
                        height: 0,
                        adjacency: FxHashMap::default(),
                        pn_count: 0,
                    },
                );
                leaves += 1;
            }
        }
        (leaves, nodes.len() - leaves)
    }

    /// Restores one exact leaf-level p-edge (the dirty-region re-encoding of a
    /// current-graph edge) through the bookkeeping sink.  The pair must currently
    /// be uncovered — which holds by construction after [`MergeEngine::dissolve_root`]
    /// removed every edge incident to the dirty trees.
    pub fn restore_leaf_edge(&mut self, u: SupernodeId, v: SupernodeId) {
        debug_assert_eq!(self.summary.edge_weight(u, v), 0);
        self.add_pn_edge(u, v, 1);
    }

    /// Batched [`MergeEngine::restore_leaf_edge`]: identical per-edge bookkeeping
    /// effects in identical order (so every hash-map insertion history — and hence
    /// any layout-order iteration downstream — matches the one-at-a-time loop
    /// exactly), with the root resolution hoisted out of the per-edge path.
    ///
    /// Each pair's first endpoint must be a freshly-promoted singleton leaf root
    /// (as dissolution produces), so its root is itself; and since restoration
    /// only **adds** edges — no structural event can occur mid-batch — every
    /// second endpoint's root is stable and is resolved once per distinct
    /// endpoint instead of once per edge.
    pub fn restore_leaf_edges(&mut self, edges: &[(SupernodeId, SupernodeId)]) {
        let mut root_memo: FxHashMap<SupernodeId, SupernodeId> = FxHashMap::default();
        for &(u, v) in edges {
            debug_assert_eq!(self.summary.edge_weight(u, v), 0);
            debug_assert_eq!(self.root_of(u), u, "u must be a singleton leaf root");
            let prev = self.summary.set_edge(u, v, EdgeSign::Positive);
            debug_assert!(prev.is_none(), "restored pair must be uncovered");
            let rv = *root_memo.entry(v).or_insert_with(|| self.root_of(v));
            let meta_u = self.roots.get_mut(&u).expect("root");
            *meta_u.adjacency.entry(rv).or_insert(0) += 1;
            meta_u.pn_count += 1;
            if u != rv {
                let meta_v = self.roots.get_mut(&rv).expect("root");
                *meta_v.adjacency.entry(u).or_insert(0) += 1;
                meta_v.pn_count += 1;
            }
        }
    }

    /// Subtree-granular dissolution: re-expands only the `affected` leaves of
    /// `root`'s tree, killing their ancestor **spine** and promoting every intact
    /// sibling subtree to a root of its own — with exact `Saving(A, B, G)`
    /// bookkeeping, exactly like [`MergeEngine::dissolve_root`] but proportional
    /// to the delta, not the region.
    ///
    /// See [`PartialDissolution`] for the outcome contract.
    ///
    /// `affected` must be a sorted, deduplicated, non-empty set of singleton-leaf
    /// supernode ids belonging to `root`'s tree.  After the call, every affected
    /// leaf is an edge-free singleton root (the caller restores its current-graph
    /// edges through [`MergeEngine::restore_leaf_edge`], as after a full
    /// dissolution), while every pair *not* involving an affected leaf keeps its
    /// exact net coverage: the surviving structure's edges are re-attached onto
    /// the maximal intact subtrees through the bookkeeping sink.
    ///
    /// Falls back to whole-tree dissolution (and says so in the returned
    /// [`PartialDissolution::fell_back`]) when the exact subtree split is not
    /// representable — an expanded pair would need a net weight outside ±1
    /// (nested/stacked coverage) or the expansion would cost more than the
    /// whole-tree path it is supposed to undercut.
    pub fn dissolve_partial(
        &mut self,
        root: SupernodeId,
        affected: &[SupernodeId],
    ) -> PartialDissolution {
        debug_assert!(
            self.roots.contains_key(&root),
            "dissolve requires a current root"
        );
        debug_assert!(!affected.is_empty());
        debug_assert!(affected.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(affected.iter().all(
            |&u| (u as usize) < self.summary.num_subnodes() && self.summary.root_of(u) == root
        ));
        let members = self.summary.members(root);
        // A lone-leaf root, or a delta touching every member, has no intact
        // structure to preserve: the whole-tree path IS the minimal one.
        if members.len() <= affected.len() {
            return self.dissolve_whole(root);
        }
        // The kill set is the union of the affected leaves' proper ancestor
        // chains — upward-closed by construction, always containing `root`.
        let mut kill_set: slugger_graph::hash::FxHashSet<SupernodeId> =
            slugger_graph::hash::FxHashSet::default();
        for &u in affected {
            let mut cur = self.summary.parent(u);
            while let Some(p) = cur {
                if !kill_set.insert(p) {
                    break;
                }
                cur = self.summary.parent(p);
            }
        }
        let mut kill: Vec<SupernodeId> = kill_set.into_iter().collect();
        kill.sort_unstable();
        match self.split_root(root, &kill, affected) {
            Some(new_roots) => PartialDissolution {
                restore_leaves: affected.to_vec(),
                new_roots,
                killed: kill.len(),
                fell_back: false,
            },
            None => self.dissolve_whole(root),
        }
    }

    /// The whole-tree path of [`MergeEngine::dissolve_partial`], packaged as a
    /// [`PartialDissolution`] (every member becomes a restore leaf).
    fn dissolve_whole(&mut self, root: SupernodeId) -> PartialDissolution {
        let members: Vec<SupernodeId> = self.summary.members(root).to_vec();
        let (_, killed) = self.dissolve_root(root);
        PartialDissolution {
            new_roots: members.clone(),
            restore_leaves: members,
            killed,
            fell_back: true,
        }
    }

    /// Detaches the subtree rooted at `s` from its tree: kills `s`'s proper
    /// ancestors (the spine up to the root) and promotes `s` and every intact
    /// sibling subtree to roots, re-attaching the tree's edges exactly.  Returns
    /// the promoted roots (ascending; `s` among them), or `None` when the exact
    /// split is not representable (see [`MergeEngine::dissolve_partial`] — the
    /// caller then falls back to [`MergeEngine::dissolve_root`]).
    ///
    /// This is the primitive [`crate::incremental`]'s localization drives:
    /// detaching invalidates only the panel encodings of the killed ancestors, so
    /// only they are re-expanded and only the promoted roots re-enter planning.
    pub fn detach_subtree(&mut self, s: SupernodeId) -> Option<Vec<SupernodeId>> {
        assert!(self.summary.is_alive(s), "cannot detach a dead supernode");
        if self.summary.is_root(s) {
            return Some(vec![s]);
        }
        let mut kill: Vec<SupernodeId> = Vec::new();
        let mut cur = self.summary.parent(s);
        let mut root = s;
        while let Some(p) = cur {
            kill.push(p);
            root = p;
            cur = self.summary.parent(p);
        }
        kill.sort_unstable();
        self.split_root(root, &kill, &[])
    }

    /// Shared split machinery of [`MergeEngine::dissolve_partial`] and
    /// [`MergeEngine::detach_subtree`]: plans the exact re-attachment of every
    /// edge incident to `root`'s tree under the kill/drop decomposition, and
    /// commits it through the same remove-all / split / re-add template as the
    /// root case of [`MergeEngine::prune_supernode`].  Returns the promoted
    /// roots, or `None` (state untouched) when the plan is unrepresentable.
    ///
    /// `kill` is the sorted, upward-closed spine of internal nodes to kill;
    /// `drop_leaves` the sorted affected leaves whose coverage is zeroed (their
    /// edges are dropped, not re-attached — the caller restores them at leaf
    /// level afterwards).
    ///
    /// Every other endpoint is **expanded**: a killed endpoint is replaced by its
    /// *frontier* — the maximal surviving (non-kill, non-drop) nodes of its
    /// subtree — which partitions exactly the members the decode rule iterates,
    /// so each expanded pair's accumulated weight reproduces the pair's net
    /// coverage precisely (nested endpoints fold to a doubled self-loop weight,
    /// which is unrepresentable and triggers the fallback).
    fn split_root(
        &mut self,
        root: SupernodeId,
        kill: &[SupernodeId],
        drop_leaves: &[SupernodeId],
    ) -> Option<Vec<SupernodeId>> {
        let summary = &self.summary;
        let tree = summary.tree_supernodes(root);
        let mut tree_sorted = tree.clone();
        tree_sorted.sort_unstable();
        // Frontier of every kill node, children-before-parents: a killed child
        // contributes its own frontier, a dropped leaf contributes nothing, and
        // any other child is itself a maximal survivor.
        let mut frontier: FxHashMap<SupernodeId, Vec<SupernodeId>> = FxHashMap::default();
        let mut stack: Vec<(SupernodeId, bool)> = vec![(root, false)];
        while let Some((d, expanded)) = stack.pop() {
            if expanded {
                let mut f: Vec<SupernodeId> = Vec::new();
                for &c in summary.children(d) {
                    if kill.binary_search(&c).is_ok() {
                        f.extend_from_slice(&frontier[&c]);
                    } else if drop_leaves.binary_search(&c).is_err() {
                        f.push(c);
                    }
                }
                frontier.insert(d, f);
            } else {
                stack.push((d, true));
                for &c in summary.children(d) {
                    if kill.binary_search(&c).is_ok() {
                        stack.push((c, false));
                    }
                }
            }
        }
        // Every edge incident to the tree, deduplicated (intra-tree edges appear
        // in both endpoints' incidence; keep the visit from the smaller id).
        let mut saved: Vec<(SupernodeId, SupernodeId, EdgeSign)> = Vec::new();
        let mut buf: Vec<SupernodeId> = Vec::new();
        for &x in &tree {
            buf.clear();
            buf.extend(summary.incident(x));
            buf.sort_unstable();
            for &y in &buf {
                if y < x && tree_sorted.binary_search(&y).is_ok() {
                    continue;
                }
                saved.push((x, y, summary.edge_sign(x, y).expect("incident edge")));
            }
        }
        // Accumulate the expanded edges.  The budget keeps the expansion from
        // ever exceeding the whole-tree cost it is meant to undercut (a root
        // self-loop over a wide frontier expands quadratically).
        let budget = 16 * (saved.len() + tree.len()) + 64;
        let mut ops = 0usize;
        let mut final_weights: FxHashMap<(SupernodeId, SupernodeId), i32> = FxHashMap::default();
        for &(x, y, sign) in &saved {
            let w = sign.weight();
            if x == y {
                // A self-loop covers each unordered member pair once; over the
                // frontier partition that is one edge per frontier pair plus a
                // self-loop per multi-member survivor (singleton survivors cover
                // zero pairs).  Surviving/dropped self-loops keep/lose it whole.
                if kill.binary_search(&x).is_ok() {
                    let f = &frontier[&x];
                    ops += f.len() * (f.len() + 1) / 2;
                    if ops > budget {
                        return None;
                    }
                    for (i, &fi) in f.iter().enumerate() {
                        if summary.members(fi).len() > 1 {
                            *final_weights.entry((fi, fi)).or_insert(0) += w;
                        }
                        for &fj in &f[i + 1..] {
                            *final_weights
                                .entry(crate::model::edge_key(fi, fj))
                                .or_insert(0) += w;
                        }
                    }
                } else if drop_leaves.binary_search(&x).is_err() {
                    *final_weights.entry((x, x)).or_insert(0) += w;
                }
                continue;
            }
            let xbuf = [x];
            let ybuf = [y];
            let ex: &[SupernodeId] = if kill.binary_search(&x).is_ok() {
                &frontier[&x]
            } else if drop_leaves.binary_search(&x).is_ok() {
                &[]
            } else {
                &xbuf
            };
            let ey: &[SupernodeId] = if kill.binary_search(&y).is_ok() {
                &frontier[&y]
            } else if drop_leaves.binary_search(&y).is_ok() {
                &[]
            } else {
                &ybuf
            };
            ops += ex.len() * ey.len();
            if ops > budget {
                return None;
            }
            for &fx in ex {
                for &fy in ey {
                    if fx == fy {
                        // Nested endpoints: the decode rule iterates the shared
                        // members from both orientations, doubling the weight.
                        *final_weights.entry((fx, fx)).or_insert(0) += 2 * w;
                    } else {
                        *final_weights
                            .entry(crate::model::edge_key(fx, fy))
                            .or_insert(0) += w;
                    }
                }
            }
        }
        let mut re_add: Vec<((SupernodeId, SupernodeId), i32)> = Vec::new();
        for (&key, &w) in &final_weights {
            match w {
                0 => {}
                -1 | 1 => re_add.push((key, w)),
                _ => return None, // not representable as a single p/n-edge
            }
        }
        re_add.sort_unstable();
        // Commit: remove everything incident to the tree through the sink, split
        // the structure, rebuild the union-find + root metadata per survivor, and
        // re-add the planned edges — the prune_supernode root-split template.
        for &(x, y, _) in &saved {
            self.remove_pn_edge(x, y);
        }
        let rep = self.find(root);
        self.set_root.remove(&rep);
        self.roots.remove(&root);
        self.log_retire(root);
        for &d in drop_leaves {
            self.log_retire(d);
        }
        let promoted = self.summary.detach_and_kill(root, kill);
        for &d in kill {
            self.dsu_parent[d as usize] = d;
        }
        for &c in &promoted {
            self.log_retire(c);
            let subtree = self.summary.tree_supernodes(c);
            for &x in &subtree {
                self.dsu_parent[x as usize] = c;
            }
            self.set_root.insert(c, c);
            self.roots.insert(
                c,
                RootMeta {
                    tree_size: subtree.len(),
                    height: self.summary.tree_height(c),
                    adjacency: FxHashMap::default(),
                    pn_count: 0,
                },
            );
        }
        for &((a, b), w) in &re_add {
            self.add_pn_edge(a, b, w as i8);
        }
        Some(promoted)
    }

    /// Removes a non-leaf supernode from the maintained summary with **exact**
    /// engine bookkeeping — the structural half of engine-hosted pruning (the
    /// [`crate::prune::PruneHost`] impl routes the substeps' edge edits through the
    /// p/n-edge sink and their structural removals through here).
    ///
    /// The node's own incident edges are dropped through the sink first.  Removing
    /// an **internal** node keeps the containing root's identity (its tree just
    /// shrinks); removing a **root** splits its tree into one tree per child, so
    /// the union-find, the root set and every re-attributed edge's adjacency
    /// metadata are rebuilt for the split region — cost proportional to the tree
    /// and its incident edges, never to the whole summary.
    pub fn prune_supernode(&mut self, id: SupernodeId) {
        // Drop the node's own p/n-edges through the sink, in sorted order (the
        // incidence set iterates in layout order, which is not content-determined).
        let mut incident: Vec<SupernodeId> = self.summary.incident(id).collect();
        incident.sort_unstable();
        for other in incident {
            self.remove_pn_edge(id, other);
        }
        let root = self.root_of(id);
        if root != id {
            // Internal node: the containing root keeps its identity; the tree
            // shrinks by one and may get shallower.  The dead node's union-find
            // entry keeps chaining into the tree, which stays correct.  No index
            // retirement: the root's member set and the graph's adjacency are
            // untouched, so its shingle signature is provably unchanged.
            self.summary.prune_supernode(id);
            let meta = self.roots.get_mut(&root).expect("containing root");
            meta.tree_size -= 1;
            meta.height = self.summary.tree_height(root);
            return;
        }
        // Root removal: the tree splits into one tree per child.  Re-attributing
        // the descendants' edges pair by pair would have to split adjacency maps;
        // instead drop every edge incident to the tree through the sink, perform
        // the split, and re-add them — the summary content is untouched (the same
        // (x, y, sign) triples come back) while every neighbor's metadata is
        // re-derived exactly.
        let children = self.summary.children(id).to_vec();
        let tree = self.summary.tree_supernodes(id);
        let mut edges: Vec<(SupernodeId, SupernodeId, EdgeSign)> = Vec::new();
        let mut buf: Vec<SupernodeId> = Vec::new();
        for &x in &tree {
            buf.clear();
            buf.extend(self.summary.incident(x));
            buf.sort_unstable();
            for &y in &buf {
                let sign = self.summary.edge_sign(x, y).expect("incident edge");
                edges.push((x, y, sign));
                self.remove_pn_edge(x, y);
            }
        }
        let rep = self.find(id);
        self.set_root.remove(&rep);
        self.roots.remove(&id);
        self.log_retire(id);
        self.summary.prune_supernode(id);
        self.dsu_parent[id as usize] = id;
        for &c in &children {
            self.log_retire(c);
            let subtree = self.summary.tree_supernodes(c);
            for &x in &subtree {
                self.dsu_parent[x as usize] = c;
            }
            self.set_root.insert(c, c);
            self.roots.insert(
                c,
                RootMeta {
                    tree_size: subtree.len(),
                    height: self.summary.tree_height(c),
                    adjacency: FxHashMap::default(),
                    pn_count: 0,
                },
            );
        }
        for (x, y, sign) in edges {
            self.add_pn_edge(x, y, sign.weight() as i8);
        }
    }

    /// Compacts the summary's arena ([`HierarchicalSummary::compact`]) and rebuilds
    /// the engine's union-find, root set and adjacency metadata for the renumbered
    /// ids.  Returns the number of dead slots reclaimed (0 = arena already dense,
    /// nothing changed).
    ///
    /// The remap preserves id order, so candidate bucketing, pivot selection and
    /// every other id-*order*-dependent tie-break behave identically afterwards:
    /// compaction never changes subsequent outputs (in id-free canonical form) —
    /// pinned by `tests/incremental_prune_compact.rs`.  Must only be called between
    /// pipeline passes (no outstanding plans or forced arena slots).
    pub fn compact(&mut self) -> usize {
        self.compact_mapped().map_or(0, |map| map.reclaimed())
    }

    /// [`MergeEngine::compact`] returning the [`crate::model::CompactionMap`] itself (`None` =
    /// arena already dense, nothing changed) so a candidate index can renumber
    /// its cached entries instead of dropping them.  The retirement log's
    /// enablement (and any undrained retirements, remapped) survives the rebuild.
    pub fn compact_mapped(&mut self) -> Option<crate::model::CompactionMap> {
        if self.summary.num_dead_slots() == 0 {
            return None;
        }
        let log_retired = self.log_retired;
        let retired = std::mem::take(&mut self.retired);
        let mut summary = std::mem::take(&mut self.summary);
        let map = summary.compact();
        *self = MergeEngine::from_summary(summary);
        self.log_retired = log_retired;
        self.retired = retired;
        self.retired.retain_mut(|id| match map.remap(*id) {
            Some(new) => {
                *id = new;
                true
            }
            None => false,
        });
        Some(map)
    }

    /// Exhaustive consistency check of the engine's incremental bookkeeping
    /// against a from-scratch rebuild — `O(arena + edges)`, meant for tests.
    ///
    /// Verifies the summary itself ([`HierarchicalSummary::validate`]), that the
    /// union-find resolves every alive supernode to its summary root, and that the
    /// root set and every root's metadata (tree size, height, adjacency counts)
    /// equal what [`MergeEngine::from_summary`] derives from the summary alone.
    pub fn validate(&self) -> Result<(), String> {
        self.summary.validate()?;
        for id in 0..self.summary.arena_len() as SupernodeId {
            if !self.summary.is_alive(id) {
                continue;
            }
            let expected = self.summary.root_of(id);
            let got = self.root_of_frozen(id);
            if got != expected {
                return Err(format!(
                    "union-find resolves {id} to {got}, summary says {expected}"
                ));
            }
        }
        let rebuilt = MergeEngine::from_summary(self.summary.clone());
        if self.roots() != rebuilt.roots() {
            return Err(format!(
                "root set {:?} != rebuilt {:?}",
                self.roots(),
                rebuilt.roots()
            ));
        }
        for r in self.roots() {
            let live = &self.roots[&r];
            let fresh = &rebuilt.roots[&r];
            if live.tree_size != fresh.tree_size {
                return Err(format!(
                    "root {r}: tree_size {} != rebuilt {}",
                    live.tree_size, fresh.tree_size
                ));
            }
            if live.height != fresh.height {
                return Err(format!(
                    "root {r}: height {} != rebuilt {}",
                    live.height, fresh.height
                ));
            }
            if live.pn_count != fresh.pn_count {
                return Err(format!(
                    "root {r}: pn_count {} != rebuilt {}",
                    live.pn_count, fresh.pn_count
                ));
            }
            let canon = |m: &FxHashMap<SupernodeId, u32>| {
                let mut v: Vec<(SupernodeId, u32)> = m.iter().map(|(&k, &c)| (k, c)).collect();
                v.sort_unstable();
                v
            };
            if canon(&live.adjacency) != canon(&fresh.adjacency) {
                return Err(format!(
                    "root {r}: adjacency {:?} != rebuilt {:?}",
                    canon(&live.adjacency),
                    canon(&fresh.adjacency)
                ));
            }
        }
        Ok(())
    }

    /// Read access to the evolving summary.
    pub fn summary(&self) -> &HierarchicalSummary {
        &self.summary
    }

    /// Consumes the engine and returns the summary.
    pub fn into_summary(self) -> HierarchicalSummary {
        self.summary
    }

    /// Current root supernodes, in ascending id order.
    ///
    /// Sorted so the iteration's root list is a pure function of the engine's
    /// *content*: the underlying hash map's iteration order depends on its
    /// insertion/removal history, which differs between the serial and the
    /// conflict-partitioned parallel apply path (they commit the same merges in
    /// different orders) — and the candidate stage preserves the input order of
    /// groups it never splits, so an unsorted list would leak the commit schedule
    /// into the output.
    pub fn roots(&self) -> Vec<SupernodeId> {
        let mut roots: Vec<SupernodeId> = self.roots.keys().copied().collect();
        roots.sort_unstable();
        roots
    }

    /// Number of current roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Height of the tree rooted at `root`.
    pub fn root_height(&self, root: SupernodeId) -> usize {
        self.roots[&root].height
    }

    /// Current root of the tree containing supernode `id` (with path compression).
    pub fn root_of(&mut self, id: SupernodeId) -> SupernodeId {
        let rep = self.find(id);
        self.set_root[&rep]
    }

    fn find(&mut self, mut x: SupernodeId) -> SupernodeId {
        while self.dsu_parent[x as usize] != x {
            let grand = self.dsu_parent[self.dsu_parent[x as usize] as usize];
            self.dsu_parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Roots adjacent to `root` through at least one p/n-edge (excluding itself).
    pub fn adjacent_roots(&self, root: SupernodeId) -> Vec<SupernodeId> {
        self.roots[&root]
            .adjacency
            .keys()
            .copied()
            .filter(|&r| r != root)
            .collect()
    }

    /// Encoding cost attributed to root `A`: `Cost_A(G) = Cost^H_A + Cost^P_A` (Eq. 6).
    pub fn root_cost(&self, root: SupernodeId) -> usize {
        self.roots[&root].cost()
    }

    /// Number of p/n-edges between the trees of two distinct roots (`Cost^P_{A,B}`).
    pub fn edges_between_roots(&self, a: SupernodeId, b: SupernodeId) -> usize {
        self.roots[&a].edges_to(b)
    }

    // ------------------------------------------------------------------
    // Saving evaluation and merge application
    // ------------------------------------------------------------------

    /// Evaluates `Saving(A, B, G)` (Eq. 8) exactly, without mutating the model: the
    /// bounded evaluation of [`MergeState::evaluate_merge_within`] with
    /// [`SavingCutoff::NONE`].
    pub fn evaluate_merge(
        &self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
    ) -> MergeEvaluation {
        MergeState::evaluate_merge(self, a, b, ctx)
    }

    /// Roots adjacent (through p/n-edges) to both `a`'s and `b`'s trees.
    pub fn common_adjacent_roots(&self, a: SupernodeId, b: SupernodeId) -> Vec<SupernodeId> {
        let mut out = Vec::new();
        view::common_adjacent_roots(&self.roots[&a], &self.roots[&b], a, b, &mut out);
        out.into_iter().map(|(c, _)| c).collect()
    }

    /// Merges roots `a` and `b`, applying the Case-1 and Case-2 re-encodings, and
    /// returns the id of the new root supernode.
    ///
    /// Split into `view::resolve_merge_into` (the expensive read-only half) and
    /// `MergeEngine::commit_merge` (the cheap mutation half) so the parallel apply
    /// stage can resolve merges on worker threads and commit them serially through
    /// the identical code path.
    pub fn apply_merge(
        &mut self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
    ) -> SupernodeId {
        debug_assert!(self.roots.contains_key(&a) && self.roots.contains_key(&b) && a != b);
        let MergeCtx { memo, scratch } = ctx;
        let EvalScratch { commons, case2, .. } = scratch;
        case2.clear();
        let m = self.summary.arena_len() as SupernodeId;
        let resolved = view::resolve_merge_into(self, a, b, m, memo, commons, case2);
        self.commit_merge(&resolved, case2);
        m
    }

    /// Applies a [`ResolvedMerge`] to the authoritative state: structural merge into
    /// the (possibly forced) arena slot `rm.m`, union-find and root-metadata
    /// bookkeeping, and the pre-solved Case-1/Case-2 edge re-encodings.
    ///
    /// `case2` is the buffer `rm.case2_start/len` indexes into.
    pub(crate) fn commit_merge(&mut self, rm: &ResolvedMerge, case2: &[Case2Record]) {
        let (a, b, m) = (rm.a, rm.b, rm.m);
        debug_assert!(self.roots.contains_key(&a) && self.roots.contains_key(&b) && a != b);
        self.log_retire(a);
        self.log_retire(b);
        let cross_ab = rm.cross_ab;
        let case2 = &case2[rm.case2_start..rm.case2_start + rm.case2_len];

        // Structural merge into the chosen slot.
        self.summary.merge_roots_at(a, b, m);

        // Union-find bookkeeping.  Forced slots can lie beyond the current vector
        // end; intermediate entries are initialized to themselves and overwritten
        // when their own commit arrives.
        if self.dsu_parent.len() <= m as usize {
            let mut next = self.dsu_parent.len() as SupernodeId;
            self.dsu_parent.resize_with(m as usize + 1, || {
                let id = next;
                next += 1;
                id
            });
        }
        self.dsu_parent[m as usize] = m;
        let rep_a = self.find(a);
        let rep_b = self.find(b);
        self.dsu_parent[rep_a as usize] = m;
        self.dsu_parent[rep_b as usize] = m;
        self.set_root.remove(&rep_a);
        self.set_root.remove(&rep_b);
        self.set_root.insert(m, m);

        // Root metadata: merge adjacency maps of a and b into m.
        let meta_a = self.roots.remove(&a).expect("root a");
        let meta_b = self.roots.remove(&b).expect("root b");
        let mut adjacency: FxHashMap<SupernodeId, u32> = FxHashMap::default();
        for (other, count) in meta_a.adjacency.into_iter().chain(meta_b.adjacency) {
            let key = if other == a || other == b { m } else { other };
            *adjacency.entry(key).or_insert(0) += count;
        }
        // Edges between tree(a) and tree(b) appeared in both maps while intra-tree
        // edges appeared once, so the folded self entry currently equals
        // intra(a) + intra(b) + 2·cross; the true intra(m) subtracts one cross count.
        if cross_ab > 0 {
            let self_count = adjacency
                .get_mut(&m)
                .expect("cross edges imply a self entry");
            *self_count -= cross_ab;
        }
        let pn_count = adjacency.values().map(|&c| c as usize).sum();
        let meta_m = RootMeta {
            tree_size: meta_a.tree_size + meta_b.tree_size + 1,
            height: meta_a.height.max(meta_b.height) + 1,
            adjacency,
            pn_count,
        };
        self.roots.insert(m, meta_m);
        // Every neighbor root must relabel its adjacency keys a/b -> m.
        let neighbor_roots: Vec<SupernodeId> = self.roots[&m]
            .adjacency
            .keys()
            .copied()
            .filter(|&r| r != m)
            .collect();
        for r in neighbor_roots {
            let meta = self.roots.get_mut(&r).expect("adjacent root");
            let mut moved = 0u32;
            if let Some(c) = meta.adjacency.remove(&a) {
                moved += c;
            }
            if let Some(c) = meta.adjacency.remove(&b) {
                moved += c;
            }
            if moved > 0 {
                *meta.adjacency.entry(m).or_insert(0) += moved;
            }
        }

        // Apply the Case-1/Case-2 re-encodings (shared with the overlay's replay).
        view::replay_reencodings(self, rm, case2);
    }
}

impl view::PnEdgeSink for MergeEngine {
    /// Adds a p/n-edge between two supernodes, updating root adjacency counts.
    fn add_pn_edge(&mut self, x: SupernodeId, y: SupernodeId, weight: i8) {
        let sign = EdgeSign::from_weight(weight as i32).expect("weight must be ±1");
        let prev = self.summary.set_edge(x, y, sign);
        if prev.is_none() {
            let rx = self.root_of(x);
            let ry = self.root_of(y);
            let meta_x = self.roots.get_mut(&rx).expect("root");
            *meta_x.adjacency.entry(ry).or_insert(0) += 1;
            meta_x.pn_count += 1;
            if rx != ry {
                let meta_y = self.roots.get_mut(&ry).expect("root");
                *meta_y.adjacency.entry(rx).or_insert(0) += 1;
                meta_y.pn_count += 1;
            }
        }
    }

    /// Removes a p/n-edge between two supernodes, updating root adjacency counts.
    fn remove_pn_edge(&mut self, x: SupernodeId, y: SupernodeId) {
        if self.summary.remove_edge(x, y).is_some() {
            let rx = self.root_of(x);
            let ry = self.root_of(y);
            Self::decrement(&mut self.roots, rx, ry);
            if rx != ry {
                Self::decrement(&mut self.roots, ry, rx);
            }
        }
    }
}

/// Engine-hosted pruning: the substeps of [`crate::prune`] mutate the maintained
/// summary through the engine's bookkeeping (edge edits through the p/n-edge sink,
/// structural removals through [`MergeEngine::prune_supernode`]), so the union-find,
/// root set and `Saving(A, B, G)` metadata stay exact while the summary is pruned
/// in place — no snapshot, no rebuild.
impl crate::prune::PruneHost for MergeEngine {
    fn summary(&self) -> &HierarchicalSummary {
        MergeEngine::summary(self)
    }

    fn remove_edge(&mut self, a: SupernodeId, b: SupernodeId) {
        self.remove_pn_edge(a, b);
    }

    fn set_edge(&mut self, a: SupernodeId, b: SupernodeId, sign: EdgeSign) {
        self.add_pn_edge(a, b, sign.weight() as i8);
    }

    fn prune_supernode(&mut self, id: SupernodeId) {
        MergeEngine::prune_supernode(self, id);
    }
}

impl MergeEngine {
    fn decrement(
        roots: &mut FxHashMap<SupernodeId, RootMeta>,
        root: SupernodeId,
        other: SupernodeId,
    ) {
        let meta = roots.get_mut(&root).expect("root");
        let remove = match meta.adjacency.get_mut(&other) {
            Some(c) => {
                *c -= 1;
                meta.pn_count -= 1;
                *c == 0
            }
            None => false,
        };
        if remove {
            meta.adjacency.remove(&other);
        }
    }
}

// ----------------------------------------------------------------------------------
// Frozen-view access (used by the per-shard planning overlay)
// ----------------------------------------------------------------------------------

impl MergeEngine {
    /// Current root of the tree containing `id`, without path compression — usable on
    /// a shared (frozen) engine.
    pub(crate) fn root_of_frozen(&self, mut x: SupernodeId) -> SupernodeId {
        while self.dsu_parent[x as usize] != x {
            x = self.dsu_parent[x as usize];
        }
        self.set_root[&x]
    }

    /// Root metadata, if `root` currently is one.
    pub(crate) fn root_meta(&self, root: SupernodeId) -> Option<&RootMeta> {
        self.roots.get(&root)
    }
}

impl MergeView for MergeEngine {
    fn is_root(&self, id: SupernodeId) -> bool {
        self.summary.is_root(id)
    }

    fn children_of(&self, id: SupernodeId) -> &[SupernodeId] {
        self.summary.children(id)
    }

    fn node_size(&self, id: SupernodeId) -> usize {
        self.summary.members(id).len()
    }

    fn parent_of(&self, id: SupernodeId) -> Option<SupernodeId> {
        self.summary.parent(id)
    }

    fn edge_weight(&self, x: SupernodeId, y: SupernodeId) -> i32 {
        self.summary.edge_weight(x, y)
    }

    fn meta(&self, root: SupernodeId) -> &RootMeta {
        &self.roots[&root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slugger_graph::Graph;

    fn star_plus_edge() -> Graph {
        // 0 is a hub connected to 1, 2, 3; plus edge (1, 2).
        Graph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2)])
    }

    #[test]
    fn new_engine_mirrors_graph_edges() {
        let g = star_plus_edge();
        let engine = MergeEngine::new(&g);
        let s = engine.summary();
        assert_eq!(s.num_p_edges(), 4);
        assert_eq!(s.num_n_edges(), 0);
        assert_eq!(s.num_h_edges(), 0);
        assert_eq!(engine.num_roots(), 4);
        assert_eq!(engine.root_cost(0), 3); // hub touches 3 edges
        assert_eq!(engine.root_cost(3), 1);
        assert_eq!(engine.edges_between_roots(0, 1), 1);
        assert_eq!(engine.edges_between_roots(1, 3), 0);
        s.validate().unwrap();
    }

    #[test]
    fn common_adjacent_roots_of_two_spokes() {
        let g = star_plus_edge();
        let engine = MergeEngine::new(&g);
        // Nodes 2 and 3 share only the hub 0.
        let common = engine.common_adjacent_roots(2, 3);
        assert_eq!(common, vec![0]);
    }

    #[test]
    fn evaluate_merge_of_similar_spokes_is_beneficial() {
        // Spokes 2 and 3 share hub 0, but 2 additionally connects to 1, so the merge
        // only consolidates the two hub edges while paying two h-edges:
        // cost 3 -> 4, saving negative.  In a larger double star the saving rises to 0
        // and, once a pair is already merged, becomes strictly positive.
        let g = star_plus_edge();
        let engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let eval = engine.evaluate_merge(2, 3, &mut ctx);
        assert_eq!(eval.cost_before, 3);
        assert_eq!(eval.cost_after, 4);
        assert!(eval.saving < 0.0);

        // Star with 5 spokes on two hubs: spokes adjacent to both hubs.
        let g2 = Graph::from_edges(
            7,
            vec![
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
            ],
        );
        let engine2 = MergeEngine::new(&g2);
        let eval2 = engine2.evaluate_merge(2, 3, &mut ctx);
        // Before: 4 p-edges attributed to the pair; after: 2 p-edges + 2 h-edges = 4.
        assert_eq!(eval2.cost_before, 4);
        assert_eq!(eval2.cost_after, 4);
        // In a 6-clique, merging any two nodes is strictly beneficial: the four
        // common neighbors each trade two p-edges for one (cost 9 -> 7).
        let mut clique_edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                clique_edges.push((u, v));
            }
        }
        let clique = Graph::from_edges(6, clique_edges);
        let engine_clique = MergeEngine::new(&clique);
        let eval3 = engine_clique.evaluate_merge(0, 1, &mut ctx);
        assert_eq!(eval3.cost_before, 9);
        assert_eq!(eval3.cost_after, 7);
        assert!(
            eval3.saving > 0.2,
            "expected positive saving, got {}",
            eval3.saving
        );
    }

    #[test]
    fn apply_merge_consolidates_edges_and_updates_indices() {
        let g2 = Graph::from_edges(
            7,
            vec![
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
            ],
        );
        let mut engine = MergeEngine::new(&g2);
        let mut ctx = MergeCtx::new();
        let before_cost = engine.summary().encoding_cost();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let s = engine.summary();
        s.validate().unwrap();
        assert!(s.is_root(m));
        assert_eq!(s.members(m), &[2, 3]);
        // The four spoke edges to hubs 0 and 1 collapse to two edges (m,0), (m,1):
        // 10 p-edges before, 8 after, while h-edges grew by 2 (total cost unchanged).
        assert_eq!(s.num_p_edges(), 8);
        assert_eq!(s.encoding_cost(), before_cost);
        assert_eq!(engine.root_of(2), m);
        assert_eq!(engine.root_of(3), m);
        assert_eq!(engine.num_roots(), 6);
        assert_eq!(engine.edges_between_roots(m, 0), 1);
        assert_eq!(engine.edges_between_roots(m, 1), 1);
        assert_eq!(engine.root_height(m), 1);

        // Merge two more spokes and then merge the two pairs: the grand merge should
        // produce a single pair of edges to the hubs.
        let m2 = engine.apply_merge(4, 5, &mut ctx);
        let top = engine.apply_merge(m, m2, &mut ctx);
        let s = engine.summary();
        s.validate().unwrap();
        assert_eq!(s.members(top), &[2, 3, 4, 5]);
        assert_eq!(engine.edges_between_roots(top, 0), 1);
        assert_eq!(engine.edges_between_roots(top, 1), 1);
        assert_eq!(engine.root_height(top), 2);
    }

    #[test]
    fn merging_disconnected_roots_only_adds_hierarchy() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let eval = engine.evaluate_merge(0, 2, &mut ctx);
        // Lemma 1: merging distant roots strictly increases the cost.
        assert!(eval.cost_after > eval.cost_before);
        let before = engine.summary().encoding_cost();
        engine.apply_merge(0, 2, &mut ctx);
        assert_eq!(engine.summary().encoding_cost(), before + 2);
        engine.summary().validate().unwrap();
    }

    /// One canonicalized root record: `(root, cost, tree_size, height, adjacency)`.
    type RootRecord = (SupernodeId, usize, usize, usize, Vec<(SupernodeId, u32)>);

    /// Canonicalized records of every current root — the engine state an
    /// incremental batch depends on.
    fn root_fingerprint(engine: &MergeEngine) -> Vec<RootRecord> {
        engine
            .roots()
            .into_iter()
            .map(|r| {
                let meta = engine.root_meta(r).unwrap();
                let mut adjacency: Vec<(SupernodeId, u32)> =
                    meta.adjacency.iter().map(|(&k, &v)| (k, v)).collect();
                adjacency.sort_unstable();
                (
                    r,
                    engine.root_cost(r),
                    meta.tree_size,
                    meta.height,
                    adjacency,
                )
            })
            .collect()
    }

    #[test]
    fn from_summary_rebuilds_the_live_engine_state() {
        let g = star_plus_edge();
        let mut live = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = live.apply_merge(2, 3, &mut ctx);
        live.apply_merge(m, 1, &mut ctx);
        let rebuilt = MergeEngine::from_summary(live.summary().clone());
        assert_eq!(rebuilt.roots(), live.roots());
        assert_eq!(root_fingerprint(&rebuilt), root_fingerprint(&live));
        // And the rebuilt engine keeps working: evaluations agree with the live one.
        let roots = live.roots();
        for i in 0..roots.len() {
            for j in (i + 1)..roots.len() {
                let a = live.evaluate_merge(roots[i], roots[j], &mut ctx);
                let b = rebuilt.evaluate_merge(roots[i], roots[j], &mut ctx);
                assert_eq!(a.cost_before, b.cost_before);
                assert_eq!(a.cost_after, b.cost_after);
            }
        }
    }

    #[test]
    fn from_summary_handles_pruned_multi_arity_hierarchies() {
        use crate::model::EdgeSign;
        let mut s = crate::model::HierarchicalSummary::identity(5);
        let m = s.create_supernode_with_children(&[0, 1, 2]);
        s.set_edge(m, m, EdgeSign::Positive);
        s.set_edge(m, 3, EdgeSign::Positive);
        s.set_edge(0, 1, EdgeSign::Negative);
        let engine = MergeEngine::from_summary(s);
        assert_eq!(engine.num_roots(), 3);
        // Cost_m = 3 h-edges + 3 incident p/n-edges (self-loop, (m,3), (0,1)-in-tree).
        assert_eq!(engine.root_cost(m), 6);
        assert_eq!(engine.edges_between_roots(m, 3), 1);
        assert_eq!(engine.root_height(m), 1);
    }

    #[test]
    fn merging_next_to_a_multi_arity_root_stays_lossless() {
        // Regression: pruned hierarchies (adopted via `from_summary`) carry roots
        // with three or more children.  A Case-2 re-encoding against such a common
        // root used to expand only the first two children into the panel, so a
        // solved C-level edge silently covered the dropped child's subnodes too —
        // here, merging 4 and 5 (both adjacent to children 0 and 1 of c = {0,1,2}
        // at leaf level, but NOT to child 2) must not invent edges to 2.
        use crate::model::EdgeSign;
        let graph = Graph::from_edges(6, vec![(4, 0), (4, 1), (5, 0), (5, 1)]);
        let mut s = crate::model::HierarchicalSummary::identity(6);
        let _c = s.create_supernode_with_children(&[0, 1, 2]);
        for (u, v) in graph.edges() {
            s.set_edge(u, v, EdgeSign::Positive);
        }
        crate::decode::verify_lossless(&s, &graph).unwrap();
        let mut engine = MergeEngine::from_summary(s);
        let mut ctx = MergeCtx::new();
        engine.apply_merge(4, 5, &mut ctx);
        engine.summary().validate().unwrap();
        crate::decode::verify_lossless(engine.summary(), &graph).unwrap();
    }

    #[test]
    fn dissolve_root_reexpands_and_keeps_neighbor_metadata_exact() {
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        let (leaves, killed) = engine.dissolve_root(m2);
        assert_eq!((leaves, killed), (3, 2));
        engine.summary().validate().unwrap();
        // The dissolved leaves are fresh edge-free roots …
        for leaf in [2u32, 3, 4] {
            assert!(engine.summary().is_root(leaf));
            assert_eq!(engine.root_cost(leaf), 0);
        }
        // … and the hubs' metadata no longer mentions the dissolved tree.
        for hub in [0u32, 1] {
            assert_eq!(engine.edges_between_roots(hub, m2), 0);
            let mut adj = engine.adjacent_roots(hub);
            adj.sort_unstable();
            assert!(
                !adj.contains(&m) && !adj.contains(&m2),
                "hub {hub}: {adj:?}"
            );
        }
        // Restoring the region's graph edges at leaf level re-establishes
        // losslessness, and the state matches a freshly-built engine exactly.
        for leaf in [2u32, 3, 4] {
            for hub in [0u32, 1] {
                engine.restore_leaf_edge(leaf, hub);
            }
        }
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        let fresh = MergeEngine::new(&g);
        assert_eq!(engine.roots(), fresh.roots());
        assert_eq!(root_fingerprint(&engine), root_fingerprint(&fresh));
    }

    fn double_star_7() -> Graph {
        let mut edges = vec![(0, 1)];
        for s in 2..5u32 {
            edges.push((0, s));
            edges.push((1, s));
        }
        Graph::from_edges(5, edges)
    }

    #[test]
    fn prune_supernode_splits_roots_with_exact_bookkeeping() {
        // Build a 3-level tree over {2,3,4} next to two hubs, then prune its root:
        // the children must come back as roots with exact adjacency metadata.
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        engine.validate().unwrap();
        // m2's own edges (to the hubs) must be re-encoded by the caller first —
        // simulate the substep by pushing them down to the children.
        let incident: Vec<SupernodeId> = {
            let mut v: Vec<SupernodeId> = engine.summary().incident(m2).collect();
            v.sort_unstable();
            v
        };
        for hub in incident {
            engine.remove_pn_edge(m2, hub);
            engine.add_pn_edge(m, hub, 1);
            engine.add_pn_edge(4, hub, 1);
        }
        engine.prune_supernode(m2);
        engine.validate().unwrap();
        assert!(engine.summary().is_root(m));
        assert!(engine.summary().is_root(4));
        assert!(!engine.summary().is_alive(m2));
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        // Internal-node pruning keeps the root's identity.
        let mut engine = MergeEngine::new(&g);
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        // Strip m's edges so it is substep-1 eligible (m2's edges cover the pairs).
        let incident: Vec<SupernodeId> = {
            let mut v: Vec<SupernodeId> = engine.summary().incident(m).collect();
            v.sort_unstable();
            v
        };
        for other in incident {
            engine.remove_pn_edge(m, other);
        }
        engine.prune_supernode(m);
        engine.validate().unwrap();
        assert!(engine.summary().is_root(m2));
        assert_eq!(engine.summary().children(m2).len(), 3);
        assert_eq!(engine.root_of(2), m2);
    }

    #[test]
    fn compact_rebuilds_the_engine_around_renumbered_ids() {
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        let (leaves, killed) = engine.dissolve_root(m2);
        assert_eq!((leaves, killed), (3, 2));
        for leaf in [2u32, 3, 4] {
            for hub in [0u32, 1] {
                engine.restore_leaf_edge(leaf, hub);
            }
        }
        assert_eq!(engine.summary().num_dead_slots(), 2);
        let reclaimed = engine.compact();
        assert_eq!(reclaimed, 2);
        assert_eq!(engine.summary().num_dead_slots(), 0);
        assert_eq!(engine.summary().arena_len(), 5);
        engine.validate().unwrap();
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        assert_eq!(engine.compact(), 0, "dense arena: compaction is a no-op");
        // The compacted engine keeps working.
        let m = engine.apply_merge(2, 3, &mut ctx);
        assert_eq!(m, 5, "fresh products reuse the reclaimed id space");
        engine.validate().unwrap();
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
    }

    #[test]
    fn dissolve_partial_drops_one_leaf_and_keeps_the_sibling_tree() {
        // Tree m2 → {m{2,3}, 4}; touching leaf 4 must kill only m2 and leave
        // m = {2,3} intact — the resulting state is bit-for-bit the state of an
        // engine that only ever merged 2 and 3.
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        let part = engine.dissolve_partial(m2, &[4]);
        assert!(!part.fell_back);
        assert_eq!(part.restore_leaves, vec![4]);
        assert_eq!(part.new_roots, vec![4, m]);
        assert_eq!(part.killed, 1);
        engine.validate().unwrap();
        for hub in [0u32, 1] {
            engine.restore_leaf_edge(4, hub);
        }
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        let mut reference = MergeEngine::new(&g);
        reference.apply_merge(2, 3, &mut ctx);
        assert_eq!(engine.roots(), reference.roots());
        assert_eq!(root_fingerprint(&engine), root_fingerprint(&reference));
    }

    #[test]
    fn dissolve_partial_kills_the_whole_spine_of_a_deep_leaf() {
        // Touching leaf 2 of m2 → {m{2,3}, 4} invalidates both ancestors: the
        // spine {m, m2} dies, siblings 3 and 4 come back as singleton roots, and
        // the re-attached edges reproduce the freshly-built engine exactly.
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        let part = engine.dissolve_partial(m2, &[2]);
        assert!(!part.fell_back);
        assert_eq!(part.restore_leaves, vec![2]);
        assert_eq!(part.new_roots, vec![2, 3, 4]);
        assert_eq!(part.killed, 2);
        engine.validate().unwrap();
        for hub in [0u32, 1] {
            engine.restore_leaf_edge(2, hub);
        }
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        let reference = MergeEngine::new(&g);
        assert_eq!(engine.roots(), reference.roots());
        assert_eq!(root_fingerprint(&engine), root_fingerprint(&reference));
    }

    #[test]
    fn dissolve_partial_touching_every_member_is_whole_tree() {
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let part = engine.dissolve_partial(m, &[2, 3]);
        assert!(part.fell_back);
        assert_eq!(part.restore_leaves, vec![2, 3]);
        assert_eq!(part.new_roots, vec![2, 3]);
        engine.validate().unwrap();
    }

    #[test]
    fn detach_subtree_promotes_the_subtree_and_its_siblings() {
        let g = double_star_7();
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let m = engine.apply_merge(2, 3, &mut ctx);
        let m2 = engine.apply_merge(m, 4, &mut ctx);
        let promoted = engine.detach_subtree(m).expect("representable split");
        assert_eq!(promoted, vec![4, m]);
        engine.validate().unwrap();
        assert!(engine.summary().is_root(m));
        assert!(engine.summary().is_root(4));
        assert!(!engine.summary().is_alive(m2));
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
        // Detaching a root is a no-op promotion of itself.
        assert_eq!(engine.detach_subtree(m), Some(vec![m]));
    }

    #[test]
    fn dissolve_partial_falls_back_on_unrepresentable_nested_coverage() {
        // top → {a{0,1}, 2} with a stored edge (top, a): pair (0,1) is covered
        // twice, so splitting out `a` would need a weight-2 edge (a, a) — the
        // planner must detect this and dissolve the whole tree instead.
        use crate::model::EdgeSign;
        let g = Graph::from_edges(4, vec![(0, 1), (0, 2), (1, 2)]);
        let mut s = crate::model::HierarchicalSummary::identity(4);
        let a = s.create_supernode_with_children(&[0, 1]);
        let top = s.create_supernode_with_children(&[a, 2]);
        s.set_edge(top, a, EdgeSign::Positive);
        crate::decode::verify_lossless(&s, &g).unwrap();
        let mut engine = MergeEngine::from_summary(s);
        let part = engine.dissolve_partial(top, &[2]);
        assert!(part.fell_back);
        assert_eq!(part.restore_leaves, vec![0, 1, 2]);
        engine.validate().unwrap();
        for (u, v) in g.edges() {
            engine.restore_leaf_edge(u, v);
        }
        crate::decode::verify_lossless(engine.summary(), &g).unwrap();
    }

    #[test]
    fn evaluation_matches_application() {
        // For a batch of merges on a small clique-ish graph, the cost predicted by
        // evaluate_merge must equal the real cost change produced by apply_merge.
        let g = Graph::from_edges(
            6,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (2, 5),
            ],
        );
        let mut engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        for (a, b) in [(0u32, 1u32), (2, 3)] {
            let eval = engine.evaluate_merge(a, b, &mut ctx);
            let total_before = engine.summary().encoding_cost();
            let other = total_before - eval.cost_before;
            engine.apply_merge(a, b, &mut ctx);
            let total_after = engine.summary().encoding_cost();
            assert_eq!(
                total_after,
                other + eval.cost_after,
                "prediction mismatch when merging {a} and {b}"
            );
            engine.summary().validate().unwrap();
        }
    }
}
