//! The read-side of the merge engine, factored out as a trait so the same
//! `Saving(A, B, G)` machinery (panel extraction, Case-1/Case-2 problem building,
//! merge evaluation) runs against two backings:
//!
//! * the authoritative [`MergeEngine`](super::MergeEngine) itself, and
//! * the copy-on-write [`PlanningEngine`](super::plan::PlanningEngine) overlay that
//!   shard workers use to plan merges against a frozen iteration view.
//!
//! Keeping the problem builders generic (rather than duplicated) is what guarantees
//! planning and application agree on the encoding semantics.
//!
//! The machinery operates on **pruned** summaries natively: hierarchies re-entering
//! the engine via `MergeEngine::from_summary` — and, since the streaming engine
//! prunes its maintained summary in place after every batch, the live hierarchy
//! itself — carry roots of arbitrary arity and edges at any tree level.
//! [`side_panel`] models every non-binary side as a single opaque cell, which is
//! always sound (see its docs), so merge evaluation and application need no
//! special cases for pruned shapes.
//!
//! # Bounded evaluation
//!
//! The merging step considers every remaining partner of each pivot, but only a
//! sliver of the pairs it considers ever merge.  [`evaluate_merge`] therefore
//! takes a [`SavingCutoff`] and gives up on a pair as soon as an upper bound on its
//! saving proves the pair cannot pass it — before building the pair's remaining
//! panels (see [`evaluate_merge`] for the bound and why it is sound).
//!
//! # Allocation discipline
//!
//! Merge evaluation is the innermost loop of the pipeline — every candidate pair of
//! every set of every iteration may build a Case-1 problem plus one Case-2 problem
//! per common adjacent root — so the problem builders are engineered to perform
//! **no heap allocation per evaluation**:
//!
//! * panels are constant-size, so cells, panel supernodes and old panel edges live in
//!   inline arrays ([`InlineVec`]); a panel has at most 6 supernodes, hence at most
//!   21 old edges;
//! * per-supernode cell coverage is a `u16` bitmask over the (≤ 4) cell indices
//!   instead of a `Vec<usize>` per panel supernode;
//! * the only unbounded intermediate — the common adjacent roots of the two sides —
//!   is written into a reusable buffer owned by the per-worker
//!   [`MergeCtx`](super::MergeCtx) scratch, as are the Case-2 records a merge
//!   application accumulates.

use super::{Case2Record, MergeCtx, MergeEvaluation, ResolvedMerge, RootMeta, SavingCutoff};
use crate::encoder::{
    pair_index, panel, Case1Problem, Case1Shape, Case2Problem, Case2Shape, EncoderMemo,
};
use crate::model::SupernodeId;

/// Read-only cost/topology queries the merge machinery needs.
///
/// All queries refer to the *current* state of the implementor — for the planning
/// overlay that is "frozen view + this set's own merges".
pub(crate) trait MergeView {
    /// Whether `id` is currently a root.
    fn is_root(&self, id: SupernodeId) -> bool;
    /// Direct children of a supernode (empty for leaves; exactly two during the
    /// merging phase).
    fn children_of(&self, id: SupernodeId) -> &[SupernodeId];
    /// Number of subnodes contained in the supernode.
    fn node_size(&self, id: SupernodeId) -> usize;
    /// Parent of a supernode, if any.
    fn parent_of(&self, id: SupernodeId) -> Option<SupernodeId>;
    /// Signed p/n-edge weight between two supernodes (0 = no edge).
    fn edge_weight(&self, x: SupernodeId, y: SupernodeId) -> i32;
    /// The metadata (tree size, height, root adjacency) of a current root.
    fn meta(&self, root: SupernodeId) -> &RootMeta;

    /// Height of the tree rooted at `root`.
    fn root_height(&self, root: SupernodeId) -> usize {
        self.meta(root).height
    }
    /// Number of p/n-edges between two distinct roots (`Cost^P_{A,B}`).
    fn edges_between_roots(&self, a: SupernodeId, b: SupernodeId) -> usize {
        self.meta(a).edges_to(b)
    }
}

/// A fixed-capacity inline vector for the constant-size panel data of the hot path
/// (a `SmallVec` stand-in within the offline dependency whitelist — panels are
/// bounded, so there is no heap spill path).
#[derive(Clone, Copy, Debug)]
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends an element; panics if the fixed capacity is exceeded (the panel
    /// bounds make that unreachable from the merge engine).
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        assert!(self.len < N, "inline buffer overflow");
        self.items[self.len] = value;
        self.len += 1;
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The elements as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// Old p/n-edges of a panel: at most `6 * 7 / 2 = 21` unordered pairs (with
/// self-loops) among the ≤ 6 panel supernodes.
pub(crate) type PanelEdges = InlineVec<(SupernodeId, SupernodeId), 21>;

/// Panel supernodes of one side: the root plus its direct children when the root
/// is **binary**.  Returns (shape_internal, [root, child1, child2]) with unused
/// slots `None`.
///
/// Sides with any other arity enter the panel as a single opaque cell (the root
/// itself).  Leaves have no children to expand; roots with **three or more**
/// children exist when the engine adopts a pruned hierarchy
/// ([`super::MergeEngine::from_summary`], the incremental path) — expanding only
/// two of them would let a solved `C`-level edge cover the dropped children's
/// subnodes and silently change the represented graph.  Opaque is always sound:
/// edges strictly below an opaque side are never enumerated as panel edges, so
/// they stay in place with their coverage intact, and every panel edge touching
/// the side covers exactly the whole tree — the cell it models.
pub(crate) fn side_panel<V: MergeView + ?Sized>(
    view: &V,
    root: SupernodeId,
) -> (bool, [Option<SupernodeId>; 3]) {
    let children = view.children_of(root);
    if children.len() == 2 {
        (true, [Some(root), Some(children[0]), Some(children[1])])
    } else {
        (false, [Some(root), None, None])
    }
}

/// Maps an abstract panel index to the concrete supernode id for a merge of `a`
/// and `b` (with `m` the merged supernode) and an optional orange root `c`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn concrete(
    abstract_id: u8,
    m: SupernodeId,
    a: SupernodeId,
    b: SupernodeId,
    a_kids: &[Option<SupernodeId>; 3],
    b_kids: &[Option<SupernodeId>; 3],
    c: Option<SupernodeId>,
    c_kids: &[Option<SupernodeId>; 3],
) -> SupernodeId {
    match abstract_id {
        panel::M => m,
        panel::A => a,
        panel::B => b,
        panel::A1 => a_kids[1].expect("A1 requested for leaf A"),
        panel::A2 => a_kids[2].expect("A2 requested for leaf A"),
        panel::B1 => b_kids[1].expect("B1 requested for leaf B"),
        panel::B2 => b_kids[2].expect("B2 requested for leaf B"),
        panel::C => c.expect("C requested without orange panel"),
        panel::C1 => c_kids[1].expect("C1 requested for leaf C"),
        panel::C2 => c_kids[2].expect("C2 requested for leaf C"),
        other => unreachable!("unknown abstract panel id {other}"),
    }
}

/// Bitmask (over indices into `cells`) of the cells covered by a concrete panel
/// supernode: the cells it equals or is an ancestor of.  Cells number at most 4, so
/// a `u16` is ample.
#[inline]
fn cell_coverage_mask<V: MergeView + ?Sized>(
    view: &V,
    sup: SupernodeId,
    cells: &[SupernodeId],
) -> u16 {
    let mut mask = 0u16;
    for (idx, &cell) in cells.iter().enumerate() {
        if cell == sup || view.parent_of(cell) == Some(sup) {
            mask |= 1 << idx;
        }
    }
    mask
}

/// The cells of one merged side in `cells()` order: the two children when internal,
/// the root itself otherwise.
#[inline]
fn push_side_cells(
    internal: bool,
    root: SupernodeId,
    kids: &[Option<SupernodeId>; 3],
    cells: &mut InlineVec<SupernodeId, 4>,
) {
    if internal {
        cells.push(kids[1].expect("internal side has children"));
        cells.push(kids[2].expect("internal side has children"));
    } else {
        cells.push(root);
    }
}

/// The panel supernodes of both merged sides, in `a_kids`-then-`b_kids` order.
#[inline]
fn yellow_panel_supers(
    a_kids: &[Option<SupernodeId>; 3],
    b_kids: &[Option<SupernodeId>; 3],
) -> InlineVec<SupernodeId, 6> {
    let mut supers = InlineVec::new();
    for s in a_kids.iter().chain(b_kids.iter()).flatten() {
        supers.push(*s);
    }
    supers
}

/// Builds the Case-1 problem for merging roots `a` and `b`: the cell-pair
/// requirements induced by the existing panel edges, plus the list of those edges.
pub(crate) fn case1_problem<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
) -> (Case1Problem, PanelEdges) {
    let (a_internal, a_kids) = side_panel(view, a);
    let (b_internal, b_kids) = side_panel(view, b);
    let shape = Case1Shape {
        a_internal,
        b_internal,
    };
    // Concrete supernode of each cell, in the shape's canonical A-then-B order.
    let mut cell_concrete: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(a_internal, a, &a_kids, &mut cell_concrete);
    push_side_cells(b_internal, b, &b_kids, &mut cell_concrete);
    let cells = cell_concrete.as_slice();
    let k = cells.len();
    let mut constrained = 0u16;
    for (i, &cell) in cells.iter().enumerate() {
        for j in i..k {
            let vacuous = i == j && view.node_size(cell) < 2;
            if !vacuous {
                constrained |= 1 << pair_index(i, j, k);
            }
        }
    }
    // Existing panel edges: all p/n-edges among the panel supernodes of both sides.
    let panel_supers = yellow_panel_supers(&a_kids, &b_kids);
    let supers = panel_supers.as_slice();
    let mut coverage = [0u16; 6];
    for (slot, &s) in coverage.iter_mut().zip(supers.iter()) {
        *slot = cell_coverage_mask(view, s, cells);
    }
    let mut required = [0i8; 10];
    let mut old_edges = PanelEdges::new();
    for (i, &x) in supers.iter().enumerate() {
        for (j, &y) in supers.iter().enumerate().skip(i) {
            let w = view.edge_weight(x, y);
            if w == 0 {
                continue;
            }
            old_edges.push((x, y));
            // A panel edge covers the product of its endpoints' cell coverages;
            // each unordered cell pair counts once (`seen` mask over pair indices).
            let mut seen = 0u16;
            let mut mi = coverage[i];
            while mi != 0 {
                let ci = mi.trailing_zeros() as usize;
                mi &= mi - 1;
                let mut mj = coverage[j];
                while mj != 0 {
                    let cj = mj.trailing_zeros() as usize;
                    mj &= mj - 1;
                    let idx = pair_index(ci.min(cj), ci.max(cj), k);
                    if seen & (1 << idx) == 0 {
                        seen |= 1 << idx;
                        required[idx] = (required[idx] as i32 + w) as i8;
                    }
                }
            }
        }
    }
    (
        Case1Problem {
            shape,
            required,
            constrained,
        },
        old_edges,
    )
}

/// The pair-invariant (yellow) half of a Case-2 problem: everything about the
/// about-to-be-merged `A`/`B` side that does not depend on the orange root `C`.
/// A merge evaluation builds this **once** and reuses it across every common
/// adjacent root — on hub-heavy regions the commons loop dominates the merge
/// planner, and the yellow side is identical for all of them.
pub(crate) struct Case2Yellow {
    a_internal: bool,
    b_internal: bool,
    yellow_supers: InlineVec<SupernodeId, 6>,
    yellow_cov: [u16; 6],
}

/// Builds the yellow half for merging roots `a` and `b` (see [`Case2Yellow`]).
pub(crate) fn case2_yellow<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
) -> Case2Yellow {
    let (a_internal, a_kids) = side_panel(view, a);
    let (b_internal, b_kids) = side_panel(view, b);
    let mut yellow_cells: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(a_internal, a, &a_kids, &mut yellow_cells);
    push_side_cells(b_internal, b, &b_kids, &mut yellow_cells);
    let yellow_supers = yellow_panel_supers(&a_kids, &b_kids);
    let mut yellow_cov = [0u16; 6];
    for (slot, &s) in yellow_cov.iter_mut().zip(yellow_supers.as_slice().iter()) {
        *slot = cell_coverage_mask(view, s, yellow_cells.as_slice());
    }
    Case2Yellow {
        a_internal,
        b_internal,
        yellow_supers,
        yellow_cov,
    }
}

/// Builds the Case-2 problem between the (about to be merged) roots behind
/// `yellow` and the adjacent root `c`.
pub(crate) fn case2_problem<V: MergeView + ?Sized>(
    view: &V,
    yellow: &Case2Yellow,
    c: SupernodeId,
) -> (Case2Problem, PanelEdges) {
    let (c_internal, c_kids) = side_panel(view, c);
    let shape = Case2Shape {
        a_internal: yellow.a_internal,
        b_internal: yellow.b_internal,
        c_internal,
    };
    let mut orange_cells: InlineVec<SupernodeId, 4> = InlineVec::new();
    push_side_cells(c_internal, c, &c_kids, &mut orange_cells);
    let kc = orange_cells.len();
    let yellow_supers = &yellow.yellow_supers;
    let yellow_cov = &yellow.yellow_cov;
    let mut orange_supers: InlineVec<SupernodeId, 3> = InlineVec::new();
    for s in c_kids.iter().flatten() {
        orange_supers.push(*s);
    }
    let mut orange_cov = [0u16; 3];
    for (slot, &s) in orange_cov.iter_mut().zip(orange_supers.as_slice().iter()) {
        *slot = cell_coverage_mask(view, s, orange_cells.as_slice());
    }
    let mut required = [0i8; 8];
    let mut old_edges = PanelEdges::new();
    for (i, &x) in yellow_supers.as_slice().iter().enumerate() {
        for (j, &y) in orange_supers.as_slice().iter().enumerate() {
            let w = view.edge_weight(x, y);
            if w == 0 {
                continue;
            }
            old_edges.push((x, y));
            let mut mi = yellow_cov[i];
            while mi != 0 {
                let ci = mi.trailing_zeros() as usize;
                mi &= mi - 1;
                let mut mj = orange_cov[j];
                while mj != 0 {
                    let cj = mj.trailing_zeros() as usize;
                    mj &= mj - 1;
                    let idx = ci * kc + cj;
                    required[idx] = (required[idx] as i32 + w) as i8;
                }
            }
        }
    }
    (Case2Problem { shape, required }, old_edges)
}

/// Resolves one merge of roots `a` and `b` (which will become supernode `m`) against
/// the *pre-merge* state of any [`MergeView`]: solves the Case-1 panel, gathers the
/// Case-2 re-encodings of every common adjacent root (appended to `case2`; the
/// returned record carries the `(start, len)` range), and snapshots everything a
/// later application needs (panel children, old edges, cross-edge count).
///
/// This is the read-only, expensive half of a merge application.  Both the
/// authoritative [`MergeEngine`](super::MergeEngine) and the planning/replay overlay
/// ([`super::plan::PlanningEngine`]) apply merges by resolving here first and then
/// replaying the resolution onto their own state, which is what keeps the planning,
/// serial-apply and parallel-apply paths byte-identical.
pub(crate) fn resolve_merge_into<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
    m: SupernodeId,
    memo: &mut EncoderMemo,
    commons: &mut Vec<(SupernodeId, u32)>,
    case2: &mut Vec<Case2Record>,
) -> ResolvedMerge {
    let (_, a_kids) = side_panel(view, a);
    let (_, b_kids) = side_panel(view, b);
    let cross_ab = view.edges_between_roots(a, b) as u32;
    let (problem1, old1) = case1_problem(view, a, b);
    let sol1 = memo.case1(&problem1);
    common_adjacent_roots(view.meta(a), view.meta(b), a, b, commons);
    let case2_start = case2.len();
    let yellow = case2_yellow(view, a, b);
    for &(c, _) in commons.iter() {
        let (problem2, old2) = case2_problem(view, &yellow, c);
        let sol2 = memo.case2(&problem2);
        let (_, c_kids) = side_panel(view, c);
        case2.push(Case2Record {
            c,
            sol: sol2,
            old: old2,
            c_kids,
        });
    }
    ResolvedMerge {
        a,
        b,
        m,
        cross_ab,
        a_kids,
        b_kids,
        sol1,
        old1,
        case2_start,
        case2_len: case2.len() - case2_start,
    }
}

/// The p/n-edge mutation surface a resolved merge is replayed onto — implemented by
/// the authoritative [`MergeEngine`](super::MergeEngine) and by the planning overlay
/// ([`super::plan::PlanningEngine`]), each updating its own root metadata alongside.
pub(crate) trait PnEdgeSink {
    /// Removes the p/n-edge between two supernodes (no-op when absent).
    fn remove_pn_edge(&mut self, x: SupernodeId, y: SupernodeId);
    /// Adds (or rewrites) the p/n-edge between two supernodes with weight `±1`.
    fn add_pn_edge(&mut self, x: SupernodeId, y: SupernodeId, weight: i8);
}

/// Replays a resolved merge's Case-1/Case-2 edge re-encodings onto `sink`: drop the
/// old panel edges, add the solved ones (mapped from abstract panel ids to concrete
/// supernodes).
///
/// Shared by [`MergeEngine::commit_merge`](super::MergeEngine) and the overlay's
/// replay so the two can never drift apart — the parallel apply stage's
/// byte-identity contract rests on both paths applying the exact same edges.
pub(crate) fn replay_reencodings<S: PnEdgeSink + ?Sized>(
    sink: &mut S,
    rm: &ResolvedMerge,
    case2: &[Case2Record],
) {
    let (a, b, m) = (rm.a, rm.b, rm.m);
    let (a_kids, b_kids) = (&rm.a_kids, &rm.b_kids);
    // Case-1: drop old panel edges, add the solved ones.
    for &(x, y) in rm.old1.as_slice() {
        sink.remove_pn_edge(x, y);
    }
    let none_kids = [None, None, None];
    for e in rm.sol1.edges() {
        let x = concrete(e.a, m, a, b, a_kids, b_kids, None, &none_kids);
        let y = concrete(e.b, m, a, b, a_kids, b_kids, None, &none_kids);
        sink.add_pn_edge(x, y, e.weight);
    }
    // Case-2 re-encodings, one per common adjacent root.
    for rec in case2 {
        for &(x, y) in rec.old.as_slice() {
            sink.remove_pn_edge(x, y);
        }
        for e in rec.sol.edges() {
            let x = concrete(e.a, m, a, b, a_kids, b_kids, Some(rec.c), &rec.c_kids);
            let y = concrete(e.b, m, a, b, a_kids, b_kids, Some(rec.c), &rec.c_kids);
            sink.add_pn_edge(x, y, e.weight);
        }
    }
}

/// Fills `out` with the Case-2 partner set of merging roots `a` and `b` — the roots
/// adjacent to both trees, excluding the merged roots themselves — each paired with
/// the number of p/n-edges it shares with the two trees (`adj_A[C] + adj_B[C]`), and
/// returns the sum of those counts.  Probes the larger adjacency map with the
/// smaller one's keys, so the counts come for free with the intersection.
pub(crate) fn common_adjacent_roots(
    meta_a: &RootMeta,
    meta_b: &RootMeta,
    a: SupernodeId,
    b: SupernodeId,
    out: &mut Vec<(SupernodeId, u32)>,
) -> usize {
    out.clear();
    let (small, large) = if meta_a.adjacency.len() <= meta_b.adjacency.len() {
        (&meta_a.adjacency, &meta_b.adjacency)
    } else {
        (&meta_b.adjacency, &meta_a.adjacency)
    };
    let mut shared = 0usize;
    for (&c, &count) in small {
        if c == a || c == b {
            continue;
        }
        if let Some(&other) = large.get(&c) {
            out.push((c, count + other));
            shared += (count + other) as usize;
        }
    }
    shared
}

/// `Saving(A, B, G)` (Eq. 8) of a merge from the pair's cost before and after it.
/// Non-increasing in `cost_after`, which is what lets [`evaluate_merge`] feed its
/// lower bounds on `cost_after` through the very same expression.
#[inline]
fn saving(cost_before: usize, cost_after: usize) -> f64 {
    if cost_before == 0 {
        f64::NEG_INFINITY
    } else {
        1.0 - cost_after as f64 / cost_before as f64
    }
}

/// Evaluates `Saving(A, B, G)` (Eq. 8) against any [`MergeView`] without mutating
/// it, returning `None` as soon as an upper bound on the saving fails `cutoff`.
/// With [`SavingCutoff::NONE`] the evaluation always completes.
///
/// The bound is an integer lower bound `floor` on `cost_after`, mapped through the
/// same [`saving`] expression as the exact value.  That expression is monotone, so
/// the bound is float-exact: a pair it rejects would have failed the cutoff with
/// its exact saving too.  The floor is sound because a merge removes at most the
/// p/n-edges of the panels it re-encodes, every solved panel costs ≥ 0, and the
/// panels' old edges are counted by the roots' adjacency metadata:
///
/// * the Case-1 panel's old edges lie within `intra(A) + intra(B) + cross(A, B)`;
/// * a common root `C`'s Case-2 panel's old edges lie within `adj_A[C] + adj_B[C]`.
///
/// The floor starts at `Cost^H_A + Cost^H_B + 2` (every p/n-edge of both trees
/// gone; O(1) from the metadata), tightens to `cost_before + 2` minus both sums
/// once the common-root intersection has counted them, and then replaces each
/// sum by the exact Case-1 and per-`C` Case-2 deltas as they are solved — after
/// the last one it *is* `cost_after`.
pub(crate) fn evaluate_merge<V: MergeView + ?Sized>(
    view: &V,
    a: SupernodeId,
    b: SupernodeId,
    ctx: &mut MergeCtx,
    cutoff: &SavingCutoff,
) -> Option<MergeEvaluation> {
    debug_assert!(view.is_root(a) && view.is_root(b) && a != b);
    let MergeCtx { memo, scratch } = ctx;
    let (meta_a, meta_b) = (view.meta(a), view.meta(b));
    let cross = meta_a.edges_to(b);
    let cost_before = meta_a.cost() + meta_b.cost() - cross;
    let upper = |floor: i64| saving(cost_before, floor.max(0) as usize);

    // Every p/n-edge of both trees removed: only the h-edges remain, plus the two
    // attaching A and B below the new root.
    let mut floor = (meta_a.h_edges() + meta_b.h_edges() + 2) as i64;
    if cutoff.rejects(upper(floor)) {
        return None;
    }
    let case1_edges = meta_a.edges_to(a) + meta_b.edges_to(b) + cross;
    let shared = common_adjacent_roots(meta_a, meta_b, a, b, &mut scratch.commons);
    floor = cost_before as i64 + 2 - (case1_edges + shared) as i64;
    if cutoff.rejects(upper(floor)) {
        return None;
    }

    // Case 1.
    let (problem1, old1) = case1_problem(view, a, b);
    let sol1 = memo.case1(&problem1);
    floor += case1_edges as i64 + sol1.cost as i64 - old1.len() as i64;

    // Case 2, only for roots adjacent to both sides: for roots adjacent to exactly
    // one side the existing encoding remains optimal within the panel, so the
    // re-encoding is skipped both here and during application (keeping the two paths
    // consistent is what makes the evaluation exact).
    let mut yellow_half = None;
    for &(c, shared_c) in scratch.commons.iter() {
        if cutoff.rejects(upper(floor)) {
            return None;
        }
        let yellow = yellow_half.get_or_insert_with(|| case2_yellow(view, a, b));
        let (problem2, old2) = case2_problem(view, yellow, c);
        let sol2 = memo.case2(&problem2);
        floor += shared_c as i64 + sol2.cost as i64 - old2.len() as i64;
    }

    let cost_after = floor.max(0) as usize;
    Some(MergeEvaluation {
        saving: saving(cost_before, cost_after),
        cost_before,
        cost_after,
    })
}
