//! The stage-based, shard-aware execution substrate of the summarization loop.
//!
//! Every iteration of SLUGGER (and of the SWeG baseline, which reuses this module)
//! flows through five stages:
//!
//! 1. **candidates** — generate disjoint candidate sets from the frozen iteration
//!    view ([`crate::candidates`]); the streaming region passes
//!    ([`crate::incremental`]) run this stage through a persistent batch-to-batch
//!    shingle cache ([`crate::candidates::CandidateIndex`]) that re-hashes only
//!    the roots structural events invalidated — same output, dirty-proportional
//!    cost;
//! 2. **shard** — [`partition_sets`] deals whole candidate sets onto `shards` worker
//!    shards by longest-processing-time scheduling over the estimated per-set cost
//!    (a set is never split, so merges never cross shards);
//! 3. **merge** — each shard forks per-shard scratch state ([`ShardWorker::fork`],
//!    for SLUGGER just an encoder memo) and plans each of its sets' merges against
//!    the frozen view, drawing randomness from a per-set stream ([`set_rng`], seeded
//!    by `(seed, iteration, set_index)`);
//! 4. **apply** — the plans are reconciled onto the authoritative state
//!    ([`crate::engine::apply`]), keeping cost bookkeeping exact: serially in
//!    ascending set-index order on one thread, or through conflict-partitioned
//!    batches (resolved in parallel, committed into precomputed arena slots) on
//!    worker threads — byte-identical to the serial replay either way;
//! 5. **prune** — after the last iteration, pruning runs as before
//!    ([`crate::prune`]).
//!
//! # Determinism
//!
//! SLUGGER's output is a pure function of `(input graph, seed)`: every candidate set
//! is planned against the frozen view with its own RNG stream, so neither the shard
//! count nor the [`Parallelism`] knob (how many OS threads execute the shards)
//! changes the summary — `Parallelism::Sequential` and `Parallelism::Fixed(8)`
//! produce **identical** results, the property the pipeline tests pin down.
//! (An algorithm whose [`ShardWorker::fork`] state accumulates across a shard's sets
//! — the SWeG baseline clones its grouping per shard — additionally depends on the
//! shard count, but still never on the thread count.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use slugger_graph::hash::hash_u64_with_seed;

/// Default number of worker shards per iteration.
///
/// A scheduling-granularity knob, *not* a thread count: the same shard structure is
/// used no matter how many threads execute it.  More shards = finer load balancing
/// but less per-shard memo locality.
pub const DEFAULT_SHARDS: usize = 8;

/// How many OS threads execute the shards of an iteration.
///
/// Never affects results — only wall-clock time.  See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Everything on the calling thread.
    #[default]
    Sequential,
    /// Up to `n` worker threads (clamped to at least 1).
    Fixed(usize),
    /// One thread per available CPU.
    Auto,
}

impl Parallelism {
    /// The worker-thread count this knob stands for, before any shard cap.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => rayon::current_num_threads(),
        }
    }

    /// The number of worker threads to use for `num_shards` shards.
    pub fn worker_threads(self, num_shards: usize) -> usize {
        self.threads().min(num_shards.max(1))
    }
}

/// A deterministic assignment of candidate sets to shards.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// Per shard, the candidate-set indices it owns, in ascending order.
    shards: Vec<Vec<usize>>,
}

impl ShardAssignment {
    /// The per-shard set-index lists.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// Number of shards that own at least one set.
    pub fn non_empty(&self) -> usize {
        self.shards.iter().filter(|s| !s.is_empty()).count()
    }
}

/// Estimated planning cost of a candidate set of `len` roots.
///
/// The merging step considers every remaining partner for each pivot, i.e.
/// O(|set|²) candidate pairs (each evaluated or bounded away), so the square is the
/// right load-balance weight (candidate sets vary from pairs to the 500-root cap —
/// three orders of magnitude in cost).
#[inline]
pub fn estimated_set_cost(len: usize) -> u64 {
    (len as u64) * (len as u64)
}

/// Deals candidate sets (given their estimated costs) across `num_shards` shards by
/// **longest-processing-time** scheduling: sets are placed in descending cost order
/// onto the currently least-loaded shard.
///
/// Whole sets are assigned — never split — so all merges stay within one shard.  The
/// assignment is a pure function of `(set_costs, num_shards)` (ties broken by set
/// index and then by shard index), and each shard's internal processing order stays
/// ascending by set index — a scheduling change can therefore never alter SLUGGER's
/// output, which plans every set independently against the frozen view.
pub fn partition_sets(set_costs: &[u64], num_shards: usize) -> ShardAssignment {
    let num_shards = num_shards.max(1);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
    let mut order: Vec<usize> = (0..set_costs.len()).collect();
    order.sort_by(|&a, &b| set_costs[b].cmp(&set_costs[a]).then(a.cmp(&b)));
    let mut loads: Vec<u64> = vec![0; num_shards];
    for set_index in order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by_key(|&(shard, &load)| (load, shard))
            .map(|(shard, _)| shard)
            .expect("at least one shard");
        shards[lightest].push(set_index);
        // Even a trivial set occupies its shard's queue slot; never weigh it zero.
        loads[lightest] += set_costs[set_index].max(1);
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    ShardAssignment { shards }
}

/// The independent random stream of one candidate set: seeded from
/// `(seed, iteration, set_index)` so results do not depend on which shard or thread
/// processes the set, nor on how many sets precede it.
pub fn set_rng(seed: u64, iteration: usize, set_index: usize) -> StdRng {
    let stream = hash_u64_with_seed(
        (iteration as u64) << 32 ^ set_index as u64,
        seed ^ 0x5ba4_11e5_eed5_7ead,
    );
    StdRng::seed_from_u64(stream)
}

/// An algorithm that plans merges for candidate sets on forked per-shard state.
///
/// Implemented by SLUGGER (fork = a fresh planner over the frozen engine view plus
/// a private encoder memo) and by the SWeG baseline (fork = a `Grouping` clone).
pub trait ShardWorker: Sync {
    /// Per-shard mutable planning state.
    type Planner: Send;
    /// The plan produced for one candidate set.
    type Plan: Send;

    /// Forks the frozen iteration view into fresh per-shard state.
    fn fork(&self) -> Self::Planner;

    /// Prepares an already-used planner for the next shard.
    ///
    /// The default replaces it with freshly forked state, which is always correct
    /// (and what the SWeG baseline needs: its plans build on the per-shard grouping
    /// clone).  Workers whose planner state can never affect output — SLUGGER's
    /// planner is a deterministic solver memo plus scratch pools that clear per set
    /// — override this with a no-op, so warmed state persists across shards and,
    /// via [`PlannerPool`], across iterations.
    fn reset(&self, planner: &mut Self::Planner) {
        *planner = self.fork();
    }

    /// Plans one candidate set, mutating the shard state in place.
    fn plan_set(
        &self,
        planner: &mut Self::Planner,
        set_index: usize,
        set: &[u32],
        rng: &mut StdRng,
    ) -> Self::Plan;
}

/// A caller-owned pool of per-worker planners for [`plan_shards_pooled`].
///
/// Keeping the pool alive across calls lets workers with a no-op
/// [`ShardWorker::reset`] carry warmed planner state (encoder memos, overlay
/// scratch pools) from iteration to iteration instead of rebuilding it cold; for
/// workers using the forking default the pool is behaviorally invisible.
#[derive(Default)]
pub struct PlannerPool<P> {
    planners: Vec<P>,
    /// Whether the same-index planner has planned a shard before (and therefore
    /// needs a [`ShardWorker::reset`] before the next one).
    used: Vec<bool>,
}

impl<P> PlannerPool<P> {
    /// An empty pool; planners are forked on first use.
    pub fn new() -> Self {
        PlannerPool {
            planners: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Number of planners forked so far.
    pub fn len(&self) -> usize {
        self.planners.len()
    }

    /// Whether no planner has been forked yet.
    pub fn is_empty(&self) -> bool {
        self.planners.is_empty()
    }

    /// Mutable access to the pooled planners (e.g. to recycle buffers into them).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, P> {
        self.planners.iter_mut()
    }
}

/// Runs the **shard** and **merge** stages: partitions `sets` into `num_shards`
/// shards, plans every shard (in parallel according to `parallelism`), and returns
/// the plans in ascending set-index order, ready for the apply stage.
///
/// `rng_for_set` supplies each set's independent random stream (see [`set_rng`]).
/// Planner state lives only for this call; use [`plan_shards_pooled`] to persist it.
pub fn plan_shards<W: ShardWorker>(
    worker: &W,
    sets: &[Vec<u32>],
    num_shards: usize,
    parallelism: Parallelism,
    rng_for_set: &(dyn Fn(usize) -> StdRng + Sync),
) -> Vec<W::Plan> {
    plan_shards_pooled(
        worker,
        sets,
        num_shards,
        parallelism,
        rng_for_set,
        &mut PlannerPool::new(),
    )
}

/// [`plan_shards`] with caller-owned planner state: planners are forked into `pool`
/// on first use and prepared for each further shard via [`ShardWorker::reset`], so
/// drivers that call this once per iteration keep warmed planner state alive for
/// the whole run (when the worker's `reset` retains it).
pub fn plan_shards_pooled<W: ShardWorker>(
    worker: &W,
    sets: &[Vec<u32>],
    num_shards: usize,
    parallelism: Parallelism,
    rng_for_set: &(dyn Fn(usize) -> StdRng + Sync),
    pool: &mut PlannerPool<W::Planner>,
) -> Vec<W::Plan> {
    let set_costs: Vec<u64> = sets.iter().map(|s| estimated_set_cost(s.len())).collect();
    let assignment = partition_sets(&set_costs, num_shards);
    let threads = parallelism.worker_threads(assignment.non_empty());

    let mut plans: Vec<Option<W::Plan>> = Vec::with_capacity(sets.len());
    plans.resize_with(sets.len(), || None);

    while pool.planners.len() < threads {
        pool.planners.push(worker.fork());
        pool.used.push(false);
    }

    let run_shard = |planner: &mut W::Planner,
                     used: &mut bool,
                     set_indices: &[usize]|
     -> Vec<(usize, W::Plan)> {
        if *used {
            worker.reset(planner);
        }
        *used = true;
        set_indices
            .iter()
            .map(|&set_index| {
                let mut rng = rng_for_set(set_index);
                let plan = worker.plan_set(planner, set_index, &sets[set_index], &mut rng);
                (set_index, plan)
            })
            .collect()
    };

    if threads <= 1 {
        let planner = &mut pool.planners[0];
        let used = &mut pool.used[0];
        for shard in assignment.shards() {
            if shard.is_empty() {
                continue;
            }
            for (set_index, plan) in run_shard(planner, used, shard) {
                plans[set_index] = Some(plan);
            }
        }
    } else {
        // Deal shards round-robin onto `threads` workers.  Each worker still gets
        // per-shard planner state (via `reset`), so the grouping affects
        // scheduling only.
        let buckets: Vec<Vec<&[usize]>> = {
            let mut buckets: Vec<Vec<&[usize]>> = vec![Vec::new(); threads];
            for (i, shard) in assignment
                .shards()
                .iter()
                .filter(|s| !s.is_empty())
                .enumerate()
            {
                buckets[i % threads].push(shard);
            }
            buckets
        };
        let produced: Vec<Vec<(usize, W::Plan)>> = rayon::scope(|scope| {
            let handles: Vec<_> = pool
                .planners
                .iter_mut()
                .zip(pool.used.iter_mut())
                .zip(buckets.iter())
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|((planner, used), bucket)| {
                    scope.spawn(move || {
                        bucket
                            .iter()
                            .flat_map(|shard| run_shard(planner, used, shard))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (set_index, plan) in produced.into_iter().flatten() {
            plans[set_index] = Some(plan);
        }
    }

    plans
        .into_iter()
        .map(|p| p.expect("every set is planned by exactly one shard"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_never_splits_a_set_and_covers_all() {
        for (num_sets, num_shards) in [(0usize, 4), (1, 4), (7, 3), (16, 8), (5, 16), (100, 7)] {
            // Mix of cheap and expensive sets to exercise the LPT placement.
            let costs: Vec<u64> = (0..num_sets)
                .map(|i| estimated_set_cost(2 + (i * 37) % 50))
                .collect();
            let assignment = partition_sets(&costs, num_shards);
            assert_eq!(assignment.shards().len(), num_shards.max(1));
            let mut seen = vec![0usize; num_sets];
            for shard in assignment.shards() {
                assert!(
                    shard.windows(2).all(|w| w[0] < w[1]),
                    "shard processing order must be ascending"
                );
                for &set_index in shard {
                    seen[set_index] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "every candidate set must live in exactly one shard ({num_sets} sets, {num_shards} shards): {seen:?}"
            );
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let assignment = partition_sets(&[1, 1, 1, 1, 1], 0);
        assert_eq!(assignment.shards().len(), 1);
        assert_eq!(assignment.shards()[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lpt_balances_skewed_costs_better_than_round_robin() {
        // One huge set followed by many small ones: round-robin would stack the huge
        // set plus a share of the small ones on shard 0; LPT gives the huge set a
        // shard of its own.
        let mut costs = vec![estimated_set_cost(500)];
        costs.extend(std::iter::repeat_n(estimated_set_cost(4), 24));
        let assignment = partition_sets(&costs, 4);
        let load = |shard: &[usize]| -> u64 { shard.iter().map(|&i| costs[i]).sum() };
        let loads: Vec<u64> = assignment.shards().iter().map(|s| load(s)).collect();
        let huge_shard = assignment
            .shards()
            .iter()
            .position(|s| s.contains(&0))
            .unwrap();
        assert_eq!(
            assignment.shards()[huge_shard],
            vec![0],
            "the dominant set must monopolize its shard, got {:?}",
            assignment.shards()
        );
        // The small sets spread over the remaining shards.
        let max_other = loads
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != huge_shard)
            .map(|(_, &l)| l)
            .max()
            .unwrap();
        assert!(
            max_other <= 9 * estimated_set_cost(4),
            "small sets must spread out, loads {loads:?}"
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let costs: Vec<u64> = (0..40).map(|i| estimated_set_cost(2 + i % 13)).collect();
        let a = partition_sets(&costs, 8);
        let b = partition_sets(&costs, 8);
        assert_eq!(a.shards(), b.shards());
    }

    #[test]
    fn set_rng_streams_are_independent_and_reproducible() {
        use rand::RngExt;
        let mut a = set_rng(7, 3, 0);
        let mut a2 = set_rng(7, 3, 0);
        let mut b = set_rng(7, 3, 1);
        let mut c = set_rng(7, 4, 0);
        let mut d = set_rng(8, 3, 0);
        let draw = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..8).map(|_| rng.random::<u64>()).collect()
        };
        let base = draw(&mut a);
        assert_eq!(base, draw(&mut a2), "same (seed, iter, set) ⇒ same stream");
        assert_ne!(base, draw(&mut b), "set index must change the stream");
        assert_ne!(base, draw(&mut c), "iteration must change the stream");
        assert_ne!(base, draw(&mut d), "seed must change the stream");
    }

    #[test]
    fn worker_threads_clamp() {
        assert_eq!(Parallelism::Sequential.worker_threads(8), 1);
        assert_eq!(Parallelism::Fixed(4).worker_threads(8), 4);
        assert_eq!(Parallelism::Fixed(0).worker_threads(8), 1);
        assert_eq!(Parallelism::Fixed(64).worker_threads(8), 8);
        assert!(Parallelism::Auto.worker_threads(64) >= 1);
    }

    /// A toy worker: per-shard state is a running sum; the plan for a set is
    /// `(shard_sum_so_far, sum_of_set, one random draw)`.  Used to prove thread-count
    /// independence of the executor itself.
    struct SummingWorker;

    impl ShardWorker for SummingWorker {
        type Planner = u64;
        type Plan = (u64, u64, u64);

        fn fork(&self) -> u64 {
            0
        }

        fn plan_set(
            &self,
            planner: &mut u64,
            _set_index: usize,
            set: &[u32],
            rng: &mut StdRng,
        ) -> (u64, u64, u64) {
            use rand::RngExt;
            let sum: u64 = set.iter().map(|&x| x as u64).sum();
            *planner += sum;
            (*planner, sum, rng.random::<u64>())
        }
    }

    #[test]
    fn executor_output_is_independent_of_thread_count() {
        let sets: Vec<Vec<u32>> = (0..37).map(|i| vec![i, i + 1, 2 * i]).collect();
        let rng_for_set = |set_index: usize| set_rng(42, 1, set_index);
        let baseline = plan_shards(
            &SummingWorker,
            &sets,
            6,
            Parallelism::Sequential,
            &rng_for_set,
        );
        for parallelism in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            let plans = plan_shards(&SummingWorker, &sets, 6, parallelism, &rng_for_set);
            assert_eq!(plans, baseline, "{parallelism:?} diverged from sequential");
        }
    }
}
