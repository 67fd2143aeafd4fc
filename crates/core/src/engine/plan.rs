//! The per-shard mutable planning state: a copy-on-write overlay over a frozen
//! [`MergeEngine`].
//!
//! Cloning the whole engine per shard would cost O(|V| + |E|) per shard per
//! iteration — more than the planning work itself on large graphs.  The overlay
//! instead borrows the frozen engine immutably and records only this candidate set's
//! own mutations:
//!
//! * **structure** — merged supernodes live in a local arena (ids continue past
//!   [`PlanningEngine`]'s `local_start`); merged-away frozen roots get a parent
//!   override;
//! * **edges** — a delta map shadows the frozen p/n-edges (`0` = removed);
//! * **root metadata** — maintained only for the *tracked* roots (the candidate set's
//!   members and their merge products).  Candidate sets are disjoint and the frozen
//!   view never changes mid-iteration, so untracked roots can never be merged away
//!   while planning, and their metadata is never read: `evaluate_merge` touches the
//!   metadata of its two (tracked) operands only.
//!
//! The cost of building an overlay is proportional to the candidate set's incident
//! edges, not to the graph — which is what lets the merge stage actually scale with
//! threads.
//!
//! # Pooled scratch
//!
//! All of the overlay's mutable state lives in a [`PlanScratch`] owned by the
//! per-worker planner and *reused* across candidate sets: the three delta maps are
//! cleared (keeping their capacity), and the per-root metadata values — each holding
//! its own adjacency map — are drained into a free pool and recycled.  After the
//! first few sets have warmed the pools, planning a set performs **zero heap
//! allocations** (pinned by the counting-allocator test in
//! `crates/core/tests/plan_alloc.rs`); previously every set churned three fresh
//! `FxHashMap`s plus one adjacency clone per tracked root and per merge.
//!
//! # Replay mode
//!
//! The same overlay also powers the conflict-partitioned parallel **apply** stage
//! ([`super::apply`]): `PlanningEngine::for_replay` starts the local arena at a
//! *forced* id (the slot the authoritative serial replay would allocate), so
//! replaying a plan's merges resolves them against concrete, authoritative ids —
//! committing those resolutions is then byte-identical to the serial path.

use super::view::{self, MergeView};
use super::{
    Case2Record, MergeCtx, MergeEngine, MergeEvaluation, MergeState, ResolvedMerge, RootMeta,
    SavingCutoff,
};
use crate::model::{edge_key, SupernodeId};
use slugger_graph::hash::FxHashMap;

/// A supernode created by this overlay's own merges.
#[derive(Clone, Debug)]
struct LocalNode {
    children: [SupernodeId; 2],
    size: usize,
    parent: Option<SupernodeId>,
}

/// Pooled mutable state of a [`PlanningEngine`], reused across candidate sets so
/// steady-state planning allocates nothing (see the module docs).
#[derive(Default)]
pub struct PlanScratch {
    /// Supernodes created by the current overlay's merges.
    local: Vec<LocalNode>,
    /// Parent overrides for frozen roots merged away by the current overlay.
    parent_override: FxHashMap<SupernodeId, SupernodeId>,
    /// Edge delta: `±1` = (re)written sign, `0` = removed.
    edges: FxHashMap<(SupernodeId, SupernodeId), i8>,
    /// Root metadata for tracked roots only (copied from the frozen engine on entry).
    metas: FxHashMap<SupernodeId, RootMeta>,
    /// Recycled [`RootMeta`] values; their adjacency maps keep their capacity.
    meta_pool: Vec<RootMeta>,
    /// Fold target for the merged root's adjacency map.
    fold: FxHashMap<SupernodeId, u32>,
    /// Reused neighbor-root list of the relabel pass.
    neighbors: Vec<SupernodeId>,
}

impl PlanScratch {
    /// An empty scratch (pools warm up over the first few sets).
    pub fn new() -> Self {
        PlanScratch::default()
    }

    /// Clears the overlay state for a new set, returning every tracked meta to the
    /// pool and keeping all map/vector capacity.
    fn reset(&mut self) {
        self.local.clear();
        self.parent_override.clear();
        self.edges.clear();
        let mut metas = std::mem::take(&mut self.metas);
        for (_, meta) in metas.drain() {
            self.meta_pool.push(meta);
        }
        // `drain` keeps the map's capacity; hand it back for the next set.
        self.metas = metas;
    }

    /// A recycled [`RootMeta`] whose adjacency map can hold `needed` entries without
    /// growing, best-fit matched against the pool.
    ///
    /// Pool order is a side effect of hash-map drain order, so a plain LIFO pop can
    /// hand a small map to a high-degree root pass after pass, re-growing a table
    /// each time.  Best-fit matching (the *smallest* sufficient pooled map; when
    /// none suffices, grow the largest) makes the pool's capacity multiset converge
    /// to the demand multiset: each growth permanently adds a sufficiently-large
    /// map, after which steady-state planning allocates nothing — pinned by
    /// `crates/core/tests/plan_alloc.rs`.
    fn take_meta_with(&mut self, needed: usize) -> RootMeta {
        let mut best: Option<(usize, usize)> = None; // (capacity, index), sufficient
        let mut largest: Option<(usize, usize)> = None;
        for (i, m) in self.meta_pool.iter().enumerate() {
            let cap = m.adjacency.capacity();
            if cap >= needed && best.is_none_or(|(c, _)| cap < c) {
                best = Some((cap, i));
            }
            if largest.is_none_or(|(c, _)| cap > c) {
                largest = Some((cap, i));
            }
        }
        let mut meta = match best.or(largest) {
            Some((_, i)) => self.meta_pool.swap_remove(i),
            None => RootMeta::default(),
        };
        meta.adjacency.clear();
        // No-op when the pooled capacity already suffices.
        meta.adjacency.reserve(needed);
        meta
    }
}

/// Copy-on-write planning overlay over a frozen engine (see the module docs).
pub struct PlanningEngine<'a> {
    base: &'a MergeEngine,
    /// First id of the overlay's local arena: the frozen arena length when planning,
    /// or a forced slot when replaying for the parallel apply stage.  Ids in
    /// `local_start..local_start + local.len()` are local; everything else resolves
    /// through the frozen (plus already-committed) authoritative state.
    local_start: usize,
    scratch: &'a mut PlanScratch,
}

impl<'a> PlanningEngine<'a> {
    /// Builds an overlay tracking the given candidate set (non-root entries are
    /// ignored; they cannot participate in merges anyway).
    pub fn new(
        base: &'a MergeEngine,
        tracked: &[SupernodeId],
        scratch: &'a mut PlanScratch,
    ) -> Self {
        let local_start = base.summary().arena_len();
        Self::with_start(base, tracked, local_start, scratch)
    }

    /// Builds a replay overlay whose local arena starts at the forced id
    /// `local_start` (the slot the serial replay would allocate for this plan's
    /// first merge; see [`super::apply`]).
    pub(crate) fn for_replay(
        base: &'a MergeEngine,
        tracked: &[SupernodeId],
        local_start: usize,
        scratch: &'a mut PlanScratch,
    ) -> Self {
        // Earlier-committed batches may already have grown the arena past this
        // plan's forced slots; those slots must then still be unfilled placeholders.
        debug_assert!(
            local_start >= base.summary().arena_len()
                || !base.summary().is_alive(local_start as SupernodeId),
            "forced replay slot {local_start} is already occupied"
        );
        Self::with_start(base, tracked, local_start, scratch)
    }

    fn with_start(
        base: &'a MergeEngine,
        tracked: &[SupernodeId],
        local_start: usize,
        scratch: &'a mut PlanScratch,
    ) -> Self {
        scratch.reset();
        for &r in tracked {
            if let Some(meta) = base.root_meta(r) {
                let mut copy = scratch.take_meta_with(meta.adjacency.len());
                copy.tree_size = meta.tree_size;
                copy.height = meta.height;
                copy.pn_count = meta.pn_count;
                copy.adjacency
                    .extend(meta.adjacency.iter().map(|(&k, &v)| (k, v)));
                scratch.metas.insert(r, copy);
            }
        }
        PlanningEngine {
            base,
            local_start,
            scratch,
        }
    }

    /// The id the overlay's next merge will allocate.
    fn next_id(&self) -> SupernodeId {
        (self.local_start + self.scratch.local.len()) as SupernodeId
    }

    fn local_index(&self, id: SupernodeId) -> Option<usize> {
        let i = (id as usize).checked_sub(self.local_start)?;
        (i < self.scratch.local.len()).then_some(i)
    }

    /// Current root of the tree containing `id`, resolving through both the frozen
    /// union-find and this overlay's merges.
    fn root_of(&self, id: SupernodeId) -> SupernodeId {
        let mut r = match self.local_index(id) {
            Some(_) => id,
            None => self.base.root_of_frozen(id),
        };
        loop {
            let parent = match self.local_index(r) {
                Some(i) => self.scratch.local[i].parent,
                None => self.scratch.parent_override.get(&r).copied(),
            };
            match parent {
                Some(p) => r = p,
                None => return r,
            }
        }
    }

    fn set_parent(&mut self, id: SupernodeId, parent: SupernodeId) {
        match self.local_index(id) {
            Some(i) => self.scratch.local[i].parent = Some(parent),
            None => {
                self.scratch.parent_override.insert(id, parent);
            }
        }
    }

    fn meta_increment(&mut self, root: SupernodeId, other: SupernodeId) {
        if let Some(meta) = self.scratch.metas.get_mut(&root) {
            *meta.adjacency.entry(other).or_insert(0) += 1;
            meta.pn_count += 1;
        }
    }

    fn meta_decrement(&mut self, root: SupernodeId, other: SupernodeId) {
        if let Some(meta) = self.scratch.metas.get_mut(&root) {
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

    /// Merges roots `a` and `b` inside the overlay: resolves the merge against the
    /// pre-merge overlay state ([`view::resolve_merge_into`] — the same resolution
    /// the authoritative engine performs) and replays it onto the copy-on-write
    /// state.
    fn merge(&mut self, a: SupernodeId, b: SupernodeId, ctx: &mut MergeCtx) -> SupernodeId {
        let MergeCtx { memo, scratch } = ctx;
        scratch.case2.clear();
        let rm = view::resolve_merge_into(
            self,
            a,
            b,
            self.next_id(),
            memo,
            &mut scratch.commons,
            &mut scratch.case2,
        );
        self.apply_resolved(&rm, &scratch.case2);
        rm.m
    }

    /// Replays a merge (resolved by [`Self::merge`] or by the apply stage's recorded
    /// replay) onto the overlay, mirroring [`MergeEngine::commit_merge`] on the
    /// copy-on-write state.
    pub(crate) fn apply_resolved(&mut self, rm: &ResolvedMerge, case2: &[Case2Record]) {
        let (a, b, m) = (rm.a, rm.b, rm.m);
        debug_assert!(
            self.scratch.metas.contains_key(&a) && self.scratch.metas.contains_key(&b) && a != b,
            "planned merges must involve tracked roots"
        );
        debug_assert_eq!(m, self.next_id());
        let case2 = &case2[rm.case2_start..rm.case2_start + rm.case2_len];

        // Structural merge in the local arena.
        let size = self.node_size(a) + self.node_size(b);
        self.scratch.local.push(LocalNode {
            children: [a, b],
            size,
            parent: None,
        });
        self.set_parent(a, m);
        self.set_parent(b, m);

        // Fold the two tracked metas into the merged root's meta, exactly as the
        // authoritative engine does (everything through pooled buffers).
        let meta_a = self.scratch.metas.remove(&a).expect("tracked root a");
        let meta_b = self.scratch.metas.remove(&b).expect("tracked root b");
        let mut fold = std::mem::take(&mut self.scratch.fold);
        fold.clear();
        for (&other, &count) in meta_a.adjacency.iter().chain(meta_b.adjacency.iter()) {
            let key = if other == a || other == b { m } else { other };
            *fold.entry(key).or_insert(0) += count;
        }
        // Edges between tree(a) and tree(b) appeared in both maps while intra-tree
        // edges appeared once; the true intra(m) subtracts one cross count.
        if rm.cross_ab > 0 {
            let self_count = fold.get_mut(&m).expect("cross edges imply a self entry");
            *self_count -= rm.cross_ab;
        }
        let mut neighbors = std::mem::take(&mut self.scratch.neighbors);
        neighbors.clear();
        neighbors.extend(fold.keys().copied().filter(|&r| r != m));
        let pn_count = fold.values().map(|&c| c as usize).sum();
        // Copy the fold into a capacity-matched pooled meta (rather than swapping
        // the maps): the fold buffer keeps a stable identity, so it grows to the
        // pass's peak demand once and never again.
        let mut meta_m = self.scratch.take_meta_with(fold.len());
        meta_m.tree_size = meta_a.tree_size + meta_b.tree_size + 1;
        meta_m.height = meta_a.height.max(meta_b.height) + 1;
        meta_m.pn_count = pn_count;
        meta_m.adjacency.extend(fold.iter().map(|(&k, &v)| (k, v)));
        self.scratch.fold = fold;
        self.scratch.meta_pool.push(meta_a);
        self.scratch.meta_pool.push(meta_b);
        self.scratch.metas.insert(m, meta_m);
        // Relabel a/b → m in *tracked* neighbor roots; untracked neighbors' metadata
        // is never read during this overlay's lifetime.
        for &r in &neighbors {
            if let Some(meta) = self.scratch.metas.get_mut(&r) {
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
        }
        self.scratch.neighbors = neighbors;

        // Apply the Case-1/Case-2 re-encodings (shared with the engine's commit).
        view::replay_reencodings(self, rm, case2);
    }

    /// Resolves and replays one merge for the parallel apply stage, *recording* the
    /// resolution: the Case-2 records are appended to `out` (not the per-call
    /// scratch) and the returned [`ResolvedMerge`] references them, ready to be
    /// committed verbatim on the authoritative engine.
    pub(crate) fn replay_merge_recorded(
        &mut self,
        a: SupernodeId,
        b: SupernodeId,
        ctx: &mut MergeCtx,
        out: &mut Vec<Case2Record>,
    ) -> ResolvedMerge {
        let MergeCtx { memo, scratch } = ctx;
        let rm =
            view::resolve_merge_into(self, a, b, self.next_id(), memo, &mut scratch.commons, out);
        self.apply_resolved(&rm, out);
        rm
    }
}

impl view::PnEdgeSink for PlanningEngine<'_> {
    /// Adds a p/n-edge, updating the tracked endpoint roots' metadata (mirrors the
    /// authoritative engine's sink on the copy-on-write state).
    fn add_pn_edge(&mut self, x: SupernodeId, y: SupernodeId, weight: i8) {
        debug_assert!(weight == 1 || weight == -1);
        let prev = MergeView::edge_weight(self, x, y);
        self.scratch.edges.insert(edge_key(x, y), weight);
        if prev == 0 {
            let rx = self.root_of(x);
            let ry = self.root_of(y);
            self.meta_increment(rx, ry);
            if rx != ry {
                self.meta_increment(ry, rx);
            }
        }
    }

    /// Removes a p/n-edge, updating the tracked endpoint roots' metadata.
    fn remove_pn_edge(&mut self, x: SupernodeId, y: SupernodeId) {
        if MergeView::edge_weight(self, x, y) != 0 {
            self.scratch.edges.insert(edge_key(x, y), 0);
            let rx = self.root_of(x);
            let ry = self.root_of(y);
            self.meta_decrement(rx, ry);
            if rx != ry {
                self.meta_decrement(ry, rx);
            }
        }
    }
}

impl MergeView for PlanningEngine<'_> {
    fn is_root(&self, id: SupernodeId) -> bool {
        match self.local_index(id) {
            Some(i) => self.scratch.local[i].parent.is_none(),
            None => {
                !self.scratch.parent_override.contains_key(&id) && self.base.summary().is_root(id)
            }
        }
    }

    fn children_of(&self, id: SupernodeId) -> &[SupernodeId] {
        match self.local_index(id) {
            Some(i) => &self.scratch.local[i].children,
            None => self.base.summary().children(id),
        }
    }

    fn node_size(&self, id: SupernodeId) -> usize {
        match self.local_index(id) {
            Some(i) => self.scratch.local[i].size,
            None => self.base.summary().members(id).len(),
        }
    }

    fn parent_of(&self, id: SupernodeId) -> Option<SupernodeId> {
        match self.local_index(id) {
            Some(i) => self.scratch.local[i].parent,
            // Until this overlay's first merge the override map is empty; skip
            // the probe — `parent_of` runs per panel cell on the evaluation hot
            // path, and most evaluations happen before any merge lands.
            None if self.scratch.parent_override.is_empty() => self.base.summary().parent(id),
            None => self
                .scratch
                .parent_override
                .get(&id)
                .copied()
                .or_else(|| self.base.summary().parent(id)),
        }
    }

    fn edge_weight(&self, x: SupernodeId, y: SupernodeId) -> i32 {
        // Same empty-overlay fast path as `parent_of`: the edge overlay only
        // fills once a merge re-encodes panels, but `edge_weight` is the single
        // hottest probe of the planner (every Case-1/Case-2 panel build).
        if self.scratch.edges.is_empty() {
            return self.base.summary().edge_weight(x, y);
        }
        match self.scratch.edges.get(&edge_key(x, y)) {
            Some(&w) => w as i32,
            None => self.base.summary().edge_weight(x, y),
        }
    }

    fn meta(&self, root: SupernodeId) -> &RootMeta {
        &self.scratch.metas[&root]
    }
}

impl MergeState for PlanningEngine<'_> {
    fn is_root(&self, id: SupernodeId) -> bool {
        MergeView::is_root(self, id)
    }

    fn root_height(&self, root: SupernodeId) -> usize {
        MergeView::root_height(self, root)
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
        self.merge(a, b, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slugger_graph::Graph;

    fn double_star() -> Graph {
        let mut edges = vec![(0, 1)];
        for s in 2..8u32 {
            edges.push((0, s));
            edges.push((1, s));
        }
        Graph::from_edges(8, edges)
    }

    #[test]
    fn overlay_evaluation_matches_the_engine() {
        let g = double_star();
        let engine = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut scratch = PlanScratch::new();
        let overlay = PlanningEngine::new(&engine, &[2, 3, 4, 5], &mut scratch);
        for (a, b) in [(2u32, 3u32), (4, 5), (2, 5)] {
            let direct = engine.evaluate_merge(a, b, &mut ctx);
            let planned = MergeState::evaluate_merge(&overlay, a, b, &mut ctx);
            assert_eq!(direct.cost_before, planned.cost_before, "({a},{b})");
            assert_eq!(direct.cost_after, planned.cost_after, "({a},{b})");
        }
    }

    #[test]
    fn overlay_merges_track_the_engine_exactly() {
        // Perform the same merge sequence on a real engine and on an overlay; every
        // intermediate evaluation must agree, proving the CoW metadata stays exact.
        let g = double_star();
        let mut engine = MergeEngine::new(&g);
        let frozen = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut scratch = PlanScratch::new();
        let mut overlay = PlanningEngine::new(&frozen, &[2, 3, 4, 5, 6], &mut scratch);

        let em = engine.apply_merge(2, 3, &mut ctx);
        let om = overlay.merge(2, 3, &mut ctx);
        assert!(MergeView::is_root(&overlay, om));
        assert!(!MergeView::is_root(&overlay, 2));
        assert_eq!(overlay.node_size(om), 2);
        assert_eq!(overlay.root_of(2), om);

        // Evaluate the follow-up merge (m ∪ 4) on both.
        let direct = engine.evaluate_merge(em, 4, &mut ctx);
        let planned = MergeState::evaluate_merge(&overlay, om, 4, &mut ctx);
        assert_eq!(direct.cost_before, planned.cost_before);
        assert_eq!(direct.cost_after, planned.cost_after);

        // And apply it; the overlay's root cost must match the engine's.
        let em2 = engine.apply_merge(em, 4, &mut ctx);
        let om2 = overlay.merge(om, 4, &mut ctx);
        assert_eq!(engine.root_cost(em2), overlay.meta(om2).cost());
        assert_eq!(
            engine.root_height(em2),
            MergeView::root_height(&overlay, om2)
        );
        assert_eq!(
            engine.edges_between_roots(em2, 0),
            MergeView::edges_between_roots(&overlay, om2, 0)
        );
    }

    #[test]
    fn untracked_roots_are_left_alone() {
        let g = double_star();
        let frozen = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut scratch = PlanScratch::new();
        let mut overlay = PlanningEngine::new(&frozen, &[2, 3], &mut scratch);
        overlay.merge(2, 3, &mut ctx);
        // The hubs (0, 1) are untracked: still roots, structure untouched, and the
        // frozen engine itself never changed.
        assert!(MergeView::is_root(&overlay, 0));
        assert!(MergeView::is_root(&overlay, 1));
        assert_eq!(frozen.num_roots(), 8);
        frozen.summary().validate().unwrap();
    }

    #[test]
    fn scratch_reuse_across_sets_is_invisible() {
        // Planning the same set on a cold scratch and on a scratch that already
        // planned other sets must produce identical evaluations and merge products.
        let g = double_star();
        let frozen = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut cold = PlanScratch::new();
        let mut warm = PlanScratch::new();
        {
            // Warm the pools with an unrelated set.
            let mut other = PlanningEngine::new(&frozen, &[4, 5, 6], &mut warm);
            other.merge(4, 5, &mut ctx);
        }
        let mut a = PlanningEngine::new(&frozen, &[2, 3, 4], &mut cold);
        let mut b = PlanningEngine::new(&frozen, &[2, 3, 4], &mut warm);
        let ea = MergeState::evaluate_merge(&a, 2, 3, &mut ctx);
        let eb = MergeState::evaluate_merge(&b, 2, 3, &mut ctx);
        assert_eq!(ea.cost_before, eb.cost_before);
        assert_eq!(ea.cost_after, eb.cost_after);
        let ma = a.merge(2, 3, &mut ctx);
        let mb = b.merge(2, 3, &mut ctx);
        assert_eq!(ma, mb);
        assert_eq!(a.meta(ma).cost(), b.meta(mb).cost());
    }

    #[test]
    fn replay_overlay_allocates_forced_ids() {
        let g = double_star();
        let frozen = MergeEngine::new(&g);
        let mut ctx = MergeCtx::new();
        let mut scratch = PlanScratch::new();
        let start = frozen.summary().arena_len() + 5;
        let mut overlay = PlanningEngine::for_replay(&frozen, &[2, 3, 4], start, &mut scratch);
        let mut case2 = Vec::new();
        let rm = overlay.replay_merge_recorded(2, 3, &mut ctx, &mut case2);
        assert_eq!(rm.m as usize, start);
        let rm2 = overlay.replay_merge_recorded(rm.m, 4, &mut ctx, &mut case2);
        assert_eq!(rm2.m as usize, start + 1);
        assert!(MergeView::is_root(&overlay, rm2.m));
        assert_eq!(overlay.node_size(rm2.m), 3);
    }
}
