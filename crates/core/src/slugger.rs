//! The SLUGGER driver (Algorithm 1): `T` iterations of candidate generation followed
//! by greedy merging, then pruning.
//!
//! Each iteration runs through the sharded pipeline of [`crate::pipeline`]
//! (candidates → shard → merge → apply): candidate sets are dealt across
//! [`SluggerConfig::shards`] worker shards, each set's merges are planned on a
//! copy-on-write overlay of the iteration's frozen engine, and the plans are
//! replayed on the authoritative engine in deterministic order.
//! [`SluggerConfig::parallelism`] picks how many threads execute the shards and
//! never changes the result.

use crate::candidates::{candidate_sets_with, CandidateConfig, CandidateScratch};
use crate::engine::apply::{apply_plans_with, ApplyProfile, ApplyWorkers, SetPlan};
use crate::engine::plan::{PlanScratch, PlanningEngine};
use crate::engine::{MergeCtx, MergeEngine};
use crate::merge::{merging_threshold, plan_candidate_set, MergeOptions};
use crate::metrics::SummaryMetrics;
use crate::model::{HierarchicalSummary, SupernodeId};
use crate::pipeline::{
    plan_shards_pooled, set_rng, Parallelism, PlannerPool, ShardWorker, DEFAULT_SHARDS,
};
use crate::prune::{prune_all, PruneReport};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use slugger_graph::Graph;

/// Configuration of a SLUGGER run.  The defaults reproduce the paper's experimental
/// setting (T = 20, candidate sets of at most 500 roots, at most 10 shingle splits,
/// unbounded hierarchy height, pruning enabled).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SluggerConfig {
    /// Number of candidate-generation + merging iterations `T` (paper default: 20).
    pub iterations: usize,
    /// Maximum candidate-set size (paper: 500).
    pub max_candidate_size: usize,
    /// Maximum shingle-based splits before random splitting (paper: 10).
    pub max_shingle_splits: usize,
    /// Optional upper bound `H_b` on hierarchy-tree height (Table V variant); `None`
    /// leaves the height unbounded as in the main algorithm.
    pub height_bound: Option<usize>,
    /// Number of pruning rounds (each round runs substeps 1 → 2 → 3); 0 disables
    /// pruning entirely.
    pub pruning_rounds: usize,
    /// Whether the local re-encoding memo is enabled (disable only to measure the
    /// effect of memoization).
    pub memoization: bool,
    /// Random seed controlling candidate grouping and pivot selection.
    pub seed: u64,
    /// Number of worker shards candidate sets are dealt across per iteration.  A pure
    /// scheduling/memo-locality knob: every candidate set is planned against the same
    /// frozen iteration view with its own RNG stream, so neither this nor
    /// [`SluggerConfig::parallelism`] ever changes the summary.
    #[serde(default = "default_shards")]
    pub shards: usize,
    /// How many OS threads execute the shards (and, above one, the
    /// conflict-partitioned parallel apply stage).  Pure throughput knob: for a
    /// fixed seed every setting produces the identical summary.
    #[serde(default)]
    pub parallelism: Parallelism,
}

/// Serde fallback for configs serialized before the pipeline knobs existed.  Only
/// referenced from the `#[serde(default = ...)]` attribute, which the vendored no-op
/// derive ignores — hence the `dead_code` allowance until real serde is wired in.
#[allow(dead_code)]
fn default_shards() -> usize {
    DEFAULT_SHARDS
}

impl Default for SluggerConfig {
    fn default() -> Self {
        SluggerConfig {
            iterations: 20,
            max_candidate_size: 500,
            max_shingle_splits: 10,
            height_bound: None,
            pruning_rounds: 2,
            memoization: true,
            seed: 0,
            shards: DEFAULT_SHARDS,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// Per-iteration progress record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Merging threshold θ(t) used.
    pub threshold: f64,
    /// Candidate sets processed.
    pub candidate_sets: usize,
    /// Candidate pairs considered by the merging step (every pivot/partner pair
    /// the scan reached, including the bounded ones).
    pub pairs_evaluated: usize,
    /// Of `pairs_evaluated`, the pairs rejected before a full `Saving(A, B, G)`
    /// evaluation because a bound proved they could not win (see
    /// [`crate::merge::MergeStats::bounded`]).
    pub pairs_bounded: usize,
    /// Merges performed.
    pub merges: usize,
    /// Encoding cost at the end of the iteration.
    pub cost: usize,
    /// Number of roots at the end of the iteration.
    pub roots: usize,
}

/// Wall-clock time spent in each pipeline stage, accumulated over all iterations.
///
/// `candidates` + `plan` + `apply` + `prune` cover the pipeline; anything else
/// (root collection, record keeping) is a sliver of `elapsed`.  The
/// `candidate_stage` bench binary reports these per run.  The streaming path
/// ([`crate::incremental`]) reuses the struct per batch and additionally fills
/// `localize` and `dissolve` (always zero for a batch [`Slugger`] run, which has
/// no dirty region to localize).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageProfile {
    /// Candidate generation (min-hash shingle grouping; stage 1).
    pub candidates: std::time::Duration,
    /// Merge planning on the sharded substrate (stages 2–3).
    pub plan: std::time::Duration,
    /// Plan reconciliation on the authoritative engine (stage 4).
    pub apply: std::time::Duration,
    /// Pruning after the last iteration (stage 5).
    pub prune: std::time::Duration,
    /// Dirty-region localization (streaming step 2: affected roots, context
    /// expansion, frontier) — zero for batch runs.
    pub localize: std::time::Duration,
    /// Dirty-region dissolution and leaf-edge restoration (streaming step 3) —
    /// zero for batch runs.
    pub dissolve: std::time::Duration,
    /// Conflict batches executed by the parallel apply stage, summed over all
    /// iterations (0 when the serial replay ran; see `engine::apply`).
    pub apply_batches: usize,
    /// Plans that went through the conflict-partitioned parallel apply path,
    /// summed over all iterations.
    pub apply_batched_plans: usize,
}

/// Result of a SLUGGER run: the summary plus bookkeeping used by the experiments.
#[derive(Clone, Debug)]
pub struct SluggerOutcome {
    /// The hierarchical summary (already pruned when pruning is enabled).
    pub summary: HierarchicalSummary,
    /// Output metrics against the input graph.
    pub metrics: SummaryMetrics,
    /// Per-iteration progress.
    pub iterations: Vec<IterationRecord>,
    /// What pruning changed (all zeros when pruning is disabled).
    pub prune_report: PruneReport,
    /// Wall-clock duration of the whole run.
    pub elapsed: std::time::Duration,
    /// Per-stage wall-clock breakdown of `elapsed`.
    pub stages: StageProfile,
}

/// The SLUGGER algorithm (Algorithm 1 of the paper).
///
/// ```
/// use slugger_core::{Slugger, SluggerConfig};
/// use slugger_graph::gen::{caveman, CavemanConfig};
///
/// let graph = caveman(&CavemanConfig { num_nodes: 150, ..CavemanConfig::default() });
/// let outcome = Slugger::new(SluggerConfig {
///     iterations: 5,
///     seed: 42,
///     ..SluggerConfig::default()
/// })
/// .summarize(&graph);
/// // Lossless: decoding the summary reproduces the input graph exactly.
/// slugger_core::decode::verify_lossless(&outcome.summary, &graph).unwrap();
/// // Structured graphs compress below one output edge per input edge.
/// assert!(outcome.metrics.cost <= graph.num_edges());
/// ```
pub struct Slugger {
    config: SluggerConfig,
}

impl Slugger {
    /// Creates a runner with the given configuration.
    pub fn new(config: SluggerConfig) -> Self {
        Slugger { config }
    }

    /// Creates a runner with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Slugger::new(SluggerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SluggerConfig {
        &self.config
    }

    /// Summarizes a graph: initializes the model to the input (every subedge a p-edge
    /// between singleton supernodes), runs `T` iterations of the sharded pipeline
    /// (candidates → shard → merge → apply), prunes, and returns the outcome.
    pub fn summarize(&self, graph: &Graph) -> SluggerOutcome {
        let start = std::time::Instant::now();
        let config = &self.config;
        let mut engine = MergeEngine::new(graph);
        let mut ctx = if config.memoization {
            MergeCtx::new()
        } else {
            MergeCtx::disabled()
        };
        let candidate_config = CandidateConfig {
            max_group_size: config.max_candidate_size,
            max_shingle_splits: config.max_shingle_splits,
        };
        let candidate_threads = config.parallelism.threads();
        let mut candidate_scratch = CandidateScratch::default();
        let mut stages = StageProfile::default();
        let mut iterations = Vec::with_capacity(config.iterations);
        // Planner and parallel-apply worker state persists across iterations so
        // encoder memos and overlay pools warm up once, not once per iteration
        // (SLUGGER's planner state never affects output — see
        // `SluggerShardWorker::reset`).
        let mut planner_pool: PlannerPool<SluggerPlanner> = PlannerPool::new();
        let mut apply_workers = ApplyWorkers::new();
        let mut apply_profile = ApplyProfile::default();

        for t in 1..=config.iterations {
            let threshold = merging_threshold(t, config.iterations);
            let roots = engine.roots();
            let iteration_seed = config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(t as u64);
            let stage_start = std::time::Instant::now();
            let sets = candidate_sets_with(
                engine.summary(),
                graph,
                &roots,
                iteration_seed,
                &candidate_config,
                candidate_threads,
                &mut candidate_scratch,
            );
            stages.candidates += stage_start.elapsed();
            let options = MergeOptions {
                threshold,
                height_bound: config.height_bound,
            };
            // Merge stage: plan every candidate set against the frozen engine (on
            // copy-on-write overlays, sharded for scheduling)…
            let worker = SluggerShardWorker {
                view: &engine,
                options,
                memoization: config.memoization,
            };
            let stage_start = std::time::Instant::now();
            let plans = plan_shards_pooled(
                &worker,
                &sets,
                config.shards,
                config.parallelism,
                &|set_index| set_rng(config.seed, t, set_index),
                &mut planner_pool,
            );
            stages.plan += stage_start.elapsed();
            // …then reconcile the plans on the authoritative engine: serially in set
            // order for one thread, or through conflict-partitioned batches (with a
            // byte-identical result) when worker threads are available.
            let stage_start = std::time::Instant::now();
            let (stats, profile) = apply_plans_with(
                &mut engine,
                &mut ctx,
                &mut apply_workers,
                &plans,
                config.parallelism.threads(),
            );
            stages.apply += stage_start.elapsed();
            apply_profile.absorb(profile);
            planner_pool.recycle_plans(plans);
            iterations.push(IterationRecord {
                iteration: t,
                threshold,
                candidate_sets: sets.len(),
                pairs_evaluated: stats.evaluated,
                pairs_bounded: stats.bounded,
                merges: stats.merged,
                cost: engine.summary().encoding_cost(),
                roots: engine.num_roots(),
            });
        }

        stages.apply_batches = apply_profile.batches;
        stages.apply_batched_plans = apply_profile.batched_plans;
        let mut summary = engine.into_summary();
        let stage_start = std::time::Instant::now();
        let prune_report = if config.pruning_rounds > 0 {
            prune_all(&mut summary, graph, config.pruning_rounds)
        } else {
            PruneReport::default()
        };
        stages.prune = stage_start.elapsed();
        let metrics = SummaryMetrics::compute(&summary, graph.num_edges());
        SluggerOutcome {
            summary,
            metrics,
            iterations,
            prune_report,
            elapsed: start.elapsed(),
            stages,
        }
    }
}

/// SLUGGER's shard worker: the frozen iteration view plus the merge options.
///
/// Forking is cheap — the per-shard state is a [`SluggerPlanner`]: a [`MergeCtx`]
/// (a private encoder memo — the memo only caches deterministic solver results, so
/// sharing or not sharing it never changes output — plus reusable evaluation
/// scratch) and a pooled [`PlanScratch`].  Each candidate set is then planned on a
/// copy-on-write [`PlanningEngine`] overlay over the frozen view built from that
/// scratch, whose construction cost is proportional to the set, not to the graph —
/// and which, once the pools are warm, allocates nothing per set.
pub(crate) struct SluggerShardWorker<'a> {
    pub(crate) view: &'a MergeEngine,
    pub(crate) options: MergeOptions,
    pub(crate) memoization: bool,
}

/// Per-shard planning state: evaluation context plus the pooled overlay scratch.
/// Shared with the incremental re-summarizer ([`crate::incremental`]), whose
/// persistent [`PlannerPool`] keeps these warm across delta batches.
pub(crate) struct SluggerPlanner {
    pub(crate) ctx: MergeCtx,
    pub(crate) overlay: PlanScratch,
}

impl PlannerPool<SluggerPlanner> {
    /// Returns the spent plans' merge vectors to the pooled planners
    /// (round-robin), so the next pass's sets pop them instead of allocating.
    /// Shared by the batch driver ([`Slugger::summarize`]) and the incremental
    /// re-summarizer so the pooling policy cannot drift between the two.
    pub(crate) fn recycle_plans(&mut self, plans: Vec<SetPlan>) {
        if self.is_empty() {
            return;
        }
        let mut planners: Vec<_> = self.iter_mut().collect();
        let n = planners.len();
        for (i, plan) in plans.into_iter().enumerate() {
            planners[i % n].ctx.recycle_merges(plan.merges);
        }
    }
}

impl ShardWorker for SluggerShardWorker<'_> {
    type Planner = SluggerPlanner;
    type Plan = SetPlan;

    fn fork(&self) -> SluggerPlanner {
        SluggerPlanner {
            ctx: if self.memoization {
                MergeCtx::new()
            } else {
                MergeCtx::disabled()
            },
            overlay: PlanScratch::new(),
        }
    }

    fn reset(&self, _planner: &mut SluggerPlanner) {
        // Deliberate no-op: the memo caches deterministic solver results and the
        // overlay scratch clears per set, so warmed planner state can never change
        // the output — keeping it is what makes steady-state planning
        // allocation-free across shards *and* iterations.
    }

    fn plan_set(
        &self,
        planner: &mut SluggerPlanner,
        set_index: usize,
        set: &[SupernodeId],
        rng: &mut StdRng,
    ) -> SetPlan {
        let SluggerPlanner { ctx, overlay } = planner;
        let mut overlay = PlanningEngine::new(self.view, set, overlay);
        let (merges, stats) = plan_candidate_set(&mut overlay, ctx, set, &self.options, rng);
        SetPlan {
            set_index,
            merges,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::verify_lossless;
    use slugger_graph::gen::{caveman, erdos_renyi, nested_sbm, CavemanConfig, NestedSbmConfig};

    fn quick_config(iterations: usize, seed: u64) -> SluggerConfig {
        SluggerConfig {
            iterations,
            max_candidate_size: 64,
            max_shingle_splits: 5,
            seed,
            ..SluggerConfig::default()
        }
    }

    #[test]
    fn summarize_is_lossless_on_structured_graph() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 150,
            num_cliques: 20,
            min_clique: 4,
            max_clique: 8,
            rewire_probability: 0.02,
            seed: 1,
        });
        let outcome = Slugger::new(quick_config(5, 7)).summarize(&graph);
        verify_lossless(&outcome.summary, &graph).unwrap();
        outcome.summary.validate().unwrap();
        assert!(outcome.metrics.cost > 0);
        assert_eq!(outcome.iterations.len(), 5);
    }

    #[test]
    fn summarize_compresses_structured_graph() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 300,
            num_cliques: 40,
            min_clique: 5,
            max_clique: 9,
            rewire_probability: 0.0,
            seed: 3,
        });
        let outcome = Slugger::new(quick_config(8, 1)).summarize(&graph);
        assert!(
            outcome.metrics.relative_size < 0.8,
            "expected compression on a clique-heavy graph, got {}",
            outcome.metrics.relative_size
        );
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn summarize_is_lossless_on_random_graph() {
        // Random graphs barely compress, but losslessness must still hold.
        let graph = erdos_renyi(120, 360, 5);
        let outcome = Slugger::new(quick_config(4, 2)).summarize(&graph);
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn more_iterations_never_hurt_much() {
        let graph = nested_sbm(&NestedSbmConfig {
            num_nodes: 240,
            levels: 2,
            branching: 4,
            base_probability: 0.004,
            level_boost: 18.0,
            seed: 9,
        });
        let short = Slugger::new(quick_config(1, 4)).summarize(&graph);
        let long = Slugger::new(quick_config(8, 4)).summarize(&graph);
        assert!(
            long.metrics.cost <= short.metrics.cost,
            "T=8 ({}) should not be worse than T=1 ({})",
            long.metrics.cost,
            short.metrics.cost
        );
        verify_lossless(&long.summary, &graph).unwrap();
    }

    #[test]
    fn height_bound_is_respected() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 200,
            num_cliques: 30,
            ..CavemanConfig::default()
        });
        let config = SluggerConfig {
            height_bound: Some(2),
            pruning_rounds: 0,
            ..quick_config(6, 11)
        };
        let outcome = Slugger::new(config).summarize(&graph);
        for root in outcome.summary.roots().collect::<Vec<_>>() {
            assert!(outcome.summary.tree_height(root) <= 2);
        }
        verify_lossless(&outcome.summary, &graph).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 120,
            ..CavemanConfig::default()
        });
        let a = Slugger::new(quick_config(4, 42)).summarize(&graph);
        let b = Slugger::new(quick_config(4, 42)).summarize(&graph);
        assert_eq!(a.metrics.cost, b.metrics.cost);
        assert_eq!(a.metrics.p_edges, b.metrics.p_edges);
        assert_eq!(a.metrics.h_edges, b.metrics.h_edges);
    }

    #[test]
    fn memoization_does_not_change_results() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 100,
            ..CavemanConfig::default()
        });
        let with = Slugger::new(SluggerConfig {
            memoization: true,
            ..quick_config(3, 13)
        })
        .summarize(&graph);
        let without = Slugger::new(SluggerConfig {
            memoization: false,
            ..quick_config(3, 13)
        })
        .summarize(&graph);
        assert_eq!(with.metrics.cost, without.metrics.cost);
    }

    #[test]
    fn pruning_never_increases_cost() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 160,
            ..CavemanConfig::default()
        });
        let unpruned = Slugger::new(SluggerConfig {
            pruning_rounds: 0,
            ..quick_config(5, 21)
        })
        .summarize(&graph);
        let pruned = Slugger::new(SluggerConfig {
            pruning_rounds: 2,
            ..quick_config(5, 21)
        })
        .summarize(&graph);
        assert!(pruned.metrics.cost <= unpruned.metrics.cost);
        verify_lossless(&pruned.summary, &graph).unwrap();
    }

    #[test]
    fn empty_and_tiny_graphs_are_handled() {
        let empty = Graph::empty(5);
        let outcome = Slugger::new(quick_config(2, 0)).summarize(&empty);
        assert_eq!(outcome.metrics.cost, 0);
        verify_lossless(&outcome.summary, &empty).unwrap();

        let single_edge = Graph::from_edges(2, vec![(0, 1)]);
        let outcome = Slugger::new(quick_config(2, 0)).summarize(&single_edge);
        verify_lossless(&outcome.summary, &single_edge).unwrap();
        assert!(outcome.metrics.cost <= 3);
    }
}
