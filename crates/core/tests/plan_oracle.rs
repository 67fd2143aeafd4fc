//! Pins the bounded merging step to its exhaustive oracle.
//!
//! [`plan_candidate_set`] gives up on a partner as soon as a bound proves it can
//! neither clear `θ(t)` nor beat the pivot's best partner so far.
//! [`plan_candidate_set_reference`] evaluates every partner in full.  Both must
//! plan the identical merge sequence with the identical RNG draws, and report the
//! same merge and partner counts.  The sweep covers the schedule's thresholds, with
//! and without a height bound, on caveman, RMAT and nested-SBM candidate sets, both
//! on the copy-on-write planning overlay over a frozen view and in place on the
//! authoritative engine.

use rand::rngs::StdRng;
use rand::RngExt;
use slugger_core::candidates::{candidate_sets, CandidateConfig};
use slugger_core::engine::apply::{apply_plans, PlannedMerge, SetPlan};
use slugger_core::engine::plan::{PlanScratch, PlanningEngine};
use slugger_core::engine::{MergeCtx, MergeEngine};
use slugger_core::merge::{plan_candidate_set, MergeOptions, MergeStats};
use slugger_core::pipeline::set_rng;
use slugger_core::testsupport::{canonical, plan_candidate_set_reference};
use slugger_graph::gen::{caveman, nested_sbm, rmat, CavemanConfig, NestedSbmConfig, RmatConfig};
use slugger_graph::Graph;

/// θ(t) at iterations 1, 2 and 19 of the default 20-iteration schedule, then the
/// final iteration's 0 — run in this order, so later thresholds plan over the
/// hierarchy the earlier ones built.
const THRESHOLDS: [f64; 4] = [0.5, 1.0 / 3.0, 0.05, 0.0];

const HEIGHT_BOUNDS: [Option<usize>; 2] = [None, Some(2)];

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "caveman",
            caveman(&CavemanConfig {
                num_nodes: 240,
                num_cliques: 24,
                min_clique: 5,
                max_clique: 15,
                rewire_probability: 0.05,
                seed: 5,
            }),
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 8,
                num_edges: 1_200,
                seed: 9,
                ..RmatConfig::default()
            }),
        ),
        (
            "nested-sbm",
            nested_sbm(&NestedSbmConfig {
                num_nodes: 256,
                levels: 3,
                branching: 4,
                base_probability: 0.01,
                level_boost: 6.0,
                seed: 3,
            }),
        ),
    ]
}

fn candidate_config() -> CandidateConfig {
    CandidateConfig {
        max_group_size: 64,
        ..CandidateConfig::default()
    }
}

/// Asserts one set's bounded plan equals the oracle's, including the RNG state
/// both leave behind.
fn assert_same_plan(
    what: &str,
    bounded: &(Vec<PlannedMerge>, MergeStats),
    oracle: &(Vec<PlannedMerge>, MergeStats),
    rng: &mut StdRng,
    oracle_rng: &mut StdRng,
) {
    assert_eq!(bounded.0, oracle.0, "{what}: planned merges differ");
    assert_eq!(
        bounded.1.merged, oracle.1.merged,
        "{what}: merged counts differ"
    );
    assert_eq!(
        bounded.1.evaluated, oracle.1.evaluated,
        "{what}: partners considered differ"
    );
    assert_eq!(oracle.1.bounded, 0, "{what}: the oracle never bounds");
    assert!(bounded.1.bounded <= bounded.1.evaluated, "{what}");
    assert_eq!(
        rng.random::<u64>(),
        oracle_rng.random::<u64>(),
        "{what}: RNG draws differ"
    );
}

/// Plans every candidate set on overlays over the frozen engine, bounded and
/// exhaustive, then applies the bounded plans to advance the engine.
fn sweep_overlay(name: &str, graph: &Graph, height_bound: Option<usize>) -> MergeStats {
    let mut engine = MergeEngine::new(graph);
    let (mut ctx, mut oracle_ctx) = (MergeCtx::new(), MergeCtx::new());
    let mut scratch = PlanScratch::new();
    let mut total = MergeStats::default();
    for (t, &threshold) in THRESHOLDS.iter().enumerate() {
        let options = MergeOptions {
            threshold,
            height_bound,
        };
        let sets = candidate_sets(
            engine.summary(),
            graph,
            &engine.roots(),
            t as u64,
            &candidate_config(),
        );
        let mut plans = Vec::with_capacity(sets.len());
        for (set_index, set) in sets.iter().enumerate() {
            let (mut rng, mut oracle_rng) = (set_rng(1, t, set_index), set_rng(1, t, set_index));
            let bounded = {
                let mut overlay = PlanningEngine::new(&engine, set, &mut scratch);
                plan_candidate_set(&mut overlay, &mut ctx, set, &options, &mut rng)
            };
            let oracle = {
                let mut overlay = PlanningEngine::new(&engine, set, &mut scratch);
                plan_candidate_set_reference(
                    &mut overlay,
                    &mut oracle_ctx,
                    set,
                    &options,
                    &mut oracle_rng,
                )
            };
            let what = format!("overlay {name} θ={threshold} h={height_bound:?} set {set_index}");
            assert_same_plan(&what, &bounded, &oracle, &mut rng, &mut oracle_rng);
            total.absorb(bounded.1);
            plans.push(SetPlan {
                set_index,
                merges: bounded.0,
                stats: bounded.1,
            });
        }
        apply_plans(&mut engine, &mut ctx, &plans);
    }
    engine.validate().unwrap();
    total
}

/// Plans and applies every candidate set in place, bounded on one engine and
/// exhaustive on a twin; the twins must stay identical throughout.
fn sweep_in_place(name: &str, graph: &Graph, height_bound: Option<usize>) -> MergeStats {
    let mut engine = MergeEngine::new(graph);
    let mut twin = MergeEngine::new(graph);
    let (mut ctx, mut oracle_ctx) = (MergeCtx::new(), MergeCtx::new());
    let mut total = MergeStats::default();
    for (t, &threshold) in THRESHOLDS.iter().enumerate() {
        let options = MergeOptions {
            threshold,
            height_bound,
        };
        let sets = candidate_sets(
            engine.summary(),
            graph,
            &engine.roots(),
            t as u64,
            &candidate_config(),
        );
        for (set_index, set) in sets.iter().enumerate() {
            let (mut rng, mut oracle_rng) = (set_rng(2, t, set_index), set_rng(2, t, set_index));
            let bounded = plan_candidate_set(&mut engine, &mut ctx, set, &options, &mut rng);
            let oracle = plan_candidate_set_reference(
                &mut twin,
                &mut oracle_ctx,
                set,
                &options,
                &mut oracle_rng,
            );
            let what = format!("in-place {name} θ={threshold} h={height_bound:?} set {set_index}");
            assert_same_plan(&what, &bounded, &oracle, &mut rng, &mut oracle_rng);
            total.absorb(bounded.1);
        }
        assert_eq!(
            canonical(engine.summary()),
            canonical(twin.summary()),
            "in-place {name} θ={threshold} h={height_bound:?}: summaries diverged"
        );
    }
    total
}

#[test]
fn bounded_planning_matches_the_exhaustive_oracle_on_overlays() {
    let mut total = MergeStats::default();
    for (name, graph) in graphs() {
        for height_bound in HEIGHT_BOUNDS {
            total.absorb(sweep_overlay(name, &graph, height_bound));
        }
    }
    assert!(total.merged > 0, "the sweep must merge");
    assert!(total.bounded > 0, "the sweep must exercise the bound");
}

#[test]
fn bounded_planning_matches_the_exhaustive_oracle_in_place() {
    let mut total = MergeStats::default();
    for (name, graph) in graphs() {
        for height_bound in HEIGHT_BOUNDS {
            total.absorb(sweep_in_place(name, &graph, height_bound));
        }
    }
    assert!(total.merged > 0, "the sweep must merge");
    assert!(total.bounded > 0, "the sweep must exercise the bound");
}
