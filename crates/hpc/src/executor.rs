//! Real threaded rank executor for the sampling pipeline, with fault
//! tolerance.
//!
//! Mirrors `srun -n R python subsample.py`: the selected hypercubes of a
//! snapshot are dealt round-robin to `R` ranks; each rank processes its
//! share on a dedicated single-thread rayon pool (so one rank ≡ one core,
//! as in the paper's CPU sampling runs), and the run time is the slowest
//! rank's time.
//!
//! Failures (injected via [`crate::fault::FaultInjector`], or any future
//! real transport) are handled by retry with backoff and work
//! redistribution: a dead rank's unfinished cubes are re-dealt round-robin
//! to the survivors, and corrupted cube results are detected by output
//! validation and re-queued. This module only *schedules*: phase 1 and the
//! per-cube body are [`sickle_core::pipeline::SnapshotPlan`], the same
//! object the in-process rayon pipeline runs, and every `(snapshot, cube)`
//! pair draws from its own SplitMix64 RNG stream — so the recovered output
//! is **bit-identical** to the failure-free run no matter which rank
//! finally processes each cube (the determinism contract of DESIGN.md §9).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sickle_core::pipeline::{run_dataset_with, SamplingConfig, SamplingOutput, SnapshotPlan};
use sickle_field::{Dataset, SampleSet, Snapshot};

use crate::fault::{FaultAction, FaultInjector};

/// Timing result of one ranked run.
#[derive(Clone, Debug)]
pub struct RankTiming {
    /// Number of ranks used.
    pub ranks: usize,
    /// Wall-clock seconds for the whole run (serial phase 1 + parallel
    /// phase 2 + any retry rounds, i.e. bounded below by the slowest rank).
    pub elapsed_secs: f64,
    /// Busy seconds of each rank's phase-2 work, indexed by rank (summed
    /// across retry rounds).
    pub rank_secs: Vec<f64>,
    /// Hypercubes successfully contributed per rank.
    pub cubes_per_rank: Vec<usize>,
    /// Total points retained.
    pub points_out: usize,
    /// Retry rounds needed beyond the first attempt (0 = failure-free).
    pub retry_rounds: usize,
    /// Faults that fired during the run.
    pub faults_injected: usize,
    /// Ranks that died (fail-stop) during the run.
    pub failed_ranks: Vec<usize>,
}

impl RankTiming {
    /// Phase-2 seconds of the slowest rank (0 when no ranks ran).
    pub fn slowest_rank_secs(&self) -> f64 {
        self.rank_secs
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .fold(0.0, f64::max)
    }

    /// Mean phase-2 seconds across ranks.
    pub fn mean_rank_secs(&self) -> f64 {
        if self.rank_secs.is_empty() {
            0.0
        } else {
            self.rank_secs.iter().sum::<f64>() / self.rank_secs.len() as f64
        }
    }

    /// Load-imbalance ratio: slowest rank / mean rank. 1.0 means perfectly
    /// balanced; 2.0 means the critical rank worked twice the average.
    /// Returns 1.0 when the run is too short to measure or the timings are
    /// degenerate (no ranks, zero or non-finite seconds) — never NaN.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_rank_secs();
        if !mean.is_finite() || mean <= 0.0 {
            1.0
        } else {
            self.slowest_rank_secs() / mean
        }
    }
}

/// Retry/backoff policy for failed ranks and corrupted cube results.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retry rounds allowed after the first attempt.
    pub max_rounds: usize,
    /// Backoff before the first retry round.
    pub backoff: Duration,
    /// Backoff multiplier per further round.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_rounds: 3,
            backoff: Duration::from_millis(5),
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry round `round` (1-based).
    fn backoff_for(&self, round: usize) -> Duration {
        let scale = self.multiplier.powi(round.saturating_sub(1) as i32);
        Duration::from_secs_f64((self.backoff.as_secs_f64() * scale).min(60.0))
    }
}

/// Why a resilient run could not complete.
#[derive(Clone, Debug)]
pub enum ExecutorError {
    /// The retry budget ran out with cubes still undone.
    RetriesExhausted {
        /// Cube ids still undone.
        undone: Vec<usize>,
        /// Rounds executed (first attempt + retries).
        rounds: usize,
    },
    /// Every rank died; nobody is left to take the undone work.
    AllRanksFailed {
        /// Cube ids still undone.
        undone: Vec<usize>,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::RetriesExhausted { undone, rounds } => write!(
                f,
                "retry budget exhausted after {rounds} rounds; {} cubes undone",
                undone.len()
            ),
            ExecutorError::AllRanksFailed { undone } => {
                write!(f, "all ranks failed; {} cubes undone", undone.len())
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Result of a resilient ranked run: the recovered sample sets (in phase-1
/// selection order, bit-identical to a failure-free run) plus timing.
#[derive(Clone, Debug)]
pub struct ExecutorOutput {
    /// One sample set per selected hypercube, in selection order.
    pub sets: Vec<SampleSet>,
    /// Timing and fault accounting.
    pub timing: RankTiming,
}

/// Outcome of one rank's worklist in one round.
struct RankOutcome {
    rank: usize,
    completed: Vec<(usize, SampleSet)>,
    died: bool,
    secs: f64,
}

/// A cube result is valid when every retained index addresses a real grid
/// point. Poisoned (silently corrupted) results fail this check and are
/// re-queued.
fn validate(set: &SampleSet, grid_points: usize) -> bool {
    set.indices.iter().all(|&i| i < grid_points)
}

/// Runs phase 1 + phase 2 for one snapshot with `ranks` worker threads,
/// surviving injected faults.
///
/// Phase 1 (cube selection) runs on the calling thread — it is the serial
/// fraction, as in the reference implementation where rank 0 broadcasts the
/// selection. Phase 2 is distributed; failed ranks' unfinished cubes are
/// re-dealt to survivors with backoff, and corrupted results are detected
/// and re-queued. The returned sets are bit-identical to a failure-free
/// run with any rank count (and to [`sickle_core::pipeline::run_snapshot`]).
///
/// # Errors
/// [`ExecutorError`] when every rank died or the retry budget ran out with
/// cubes still undone.
///
/// # Panics
/// Panics if `ranks == 0` or a rank thread panics.
pub fn run_resilient(
    snap: &Snapshot,
    snapshot_index: usize,
    cfg: &SamplingConfig,
    ranks: usize,
    injector: &FaultInjector,
    policy: &RetryPolicy,
) -> Result<ExecutorOutput, ExecutorError> {
    assert!(ranks > 0, "need at least one rank");
    let _run = sickle_obs::span!("hpc.run_with_ranks", ranks = ranks);
    let t0 = Instant::now();
    let fired_before = injector.fired();
    let plan = SnapshotPlan::new(snap, snapshot_index, cfg);
    let cube_ids = plan.cube_ids();
    let grid_points = snap.grid.len();

    let mut alive: Vec<usize> = (0..ranks).collect();
    let mut pending: Vec<usize> = cube_ids.to_vec();
    let mut done: HashMap<usize, SampleSet> = HashMap::with_capacity(cube_ids.len());
    let mut rank_secs = vec![0.0f64; ranks];
    let mut cubes_per_rank = vec![0usize; ranks];
    let mut failed_ranks: Vec<usize> = Vec::new();
    let mut round = 0usize;

    loop {
        let _round_span = sickle_obs::span!("hpc.round", cubes = pending.len());
        // Round-robin deal over the surviving ranks, like MPI rank striding.
        let mut assignments: Vec<(usize, Vec<usize>)> =
            alive.iter().map(|&r| (r, Vec::new())).collect();
        let lanes = assignments.len();
        for (i, &cube) in pending.iter().enumerate() {
            assignments[i % lanes].1.push(cube);
        }

        // Rank threads start with empty span stacks; parent them explicitly.
        let parent = sickle_obs::current_span_id();
        let outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .map(|(rank, my_cubes)| {
                    let rank = *rank;
                    let plan = &plan;
                    scope.spawn(move || {
                        let _rank_span = sickle_obs::child_span!(
                            parent,
                            "hpc.rank",
                            rank = rank,
                            cubes = my_cubes.len()
                        );
                        let rank_t0 = Instant::now();
                        // One rank = one core: confine rayon to one thread.
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(1)
                            .build()
                            .expect("failed to build rank pool");
                        let mut completed = Vec::with_capacity(my_cubes.len());
                        let mut died = false;
                        pool.install(|| {
                            for &cube_id in my_cubes {
                                let poison = match injector.on_cube(rank) {
                                    FaultAction::Proceed => false,
                                    FaultAction::Kill => {
                                        sickle_obs::counter!("fault.injected", 1usize);
                                        died = true;
                                        break;
                                    }
                                    FaultAction::Delay(d) => {
                                        sickle_obs::counter!("fault.injected", 1usize);
                                        std::thread::sleep(d);
                                        false
                                    }
                                    FaultAction::Poison => {
                                        sickle_obs::counter!("fault.injected", 1usize);
                                        true
                                    }
                                    // Connection faults belong to the serve
                                    // data plane; a rank has no socket to cut.
                                    FaultAction::Drop => false,
                                };
                                let mut set = plan.sample_cube(cube_id);
                                if poison {
                                    // Silent corruption: an index past the
                                    // grid, caught by output validation.
                                    if let Some(i0) = set.indices.first_mut() {
                                        *i0 = usize::MAX;
                                    }
                                }
                                completed.push((cube_id, set));
                            }
                        });
                        RankOutcome {
                            rank,
                            completed,
                            died,
                            secs: rank_t0.elapsed().as_secs_f64(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });

        for outcome in outcomes {
            rank_secs[outcome.rank] += outcome.secs;
            if outcome.died {
                alive.retain(|&r| r != outcome.rank);
                failed_ranks.push(outcome.rank);
                sickle_obs::warn!(
                    "hpc",
                    "rank {} died; redistributing its unfinished cubes",
                    outcome.rank
                );
            }
            for (cube_id, set) in outcome.completed {
                if validate(&set, grid_points) {
                    cubes_per_rank[outcome.rank] += 1;
                    done.insert(cube_id, set);
                } else {
                    sickle_obs::counter!("fault.detected", 1usize);
                    sickle_obs::warn!(
                        "hpc",
                        "rank {} produced a corrupt result for cube {cube_id}; re-queueing",
                        outcome.rank
                    );
                }
            }
        }

        pending = cube_ids
            .iter()
            .copied()
            .filter(|id| !done.contains_key(id))
            .collect();
        if pending.is_empty() {
            break;
        }
        round += 1;
        if alive.is_empty() {
            return Err(ExecutorError::AllRanksFailed { undone: pending });
        }
        if round > policy.max_rounds {
            return Err(ExecutorError::RetriesExhausted {
                undone: pending,
                rounds: round,
            });
        }
        sickle_obs::counter!("retry.count", pending.len());
        let backoff = policy.backoff_for(round);
        sickle_obs::info!(
            "hpc",
            "retry round {round}: {} cubes on {} survivors after {:?} backoff",
            pending.len(),
            alive.len(),
            backoff
        );
        let _retry_span = sickle_obs::span!("hpc.retry.round", cubes = pending.len());
        std::thread::sleep(backoff);
    }

    // Reassemble in phase-1 selection order: the canonical output order,
    // independent of which rank computed which cube in which round.
    let sets: Vec<SampleSet> = cube_ids
        .iter()
        .map(|id| done.remove(id).expect("completed cube missing"))
        .collect();
    let points_out = sets.iter().map(SampleSet::len).sum();
    let timing = RankTiming {
        ranks,
        elapsed_secs: t0.elapsed().as_secs_f64(),
        rank_secs,
        cubes_per_rank,
        points_out,
        retry_rounds: round,
        faults_injected: injector.fired() - fired_before,
        failed_ranks,
    };
    sickle_obs::gauge!("hpc.imbalance", timing.imbalance());
    sickle_obs::counter!("hpc.points_out", points_out);
    Ok(ExecutorOutput { sets, timing })
}

/// Runs phase 1 + phase 2 for one snapshot with `ranks` worker threads and
/// no fault injection (the original fault-free entry point).
///
/// # Panics
/// Panics if `ranks == 0`.
pub fn run_with_ranks(snap: &Snapshot, cfg: &SamplingConfig, ranks: usize) -> RankTiming {
    run_resilient(
        snap,
        0,
        cfg,
        ranks,
        &FaultInjector::none(),
        &RetryPolicy::default(),
    )
    .expect("fault-free run cannot fail")
    .timing
}

/// Runs every snapshot of a dataset through the ranked executor —
/// the multi-rank analogue of [`sickle_core::pipeline::run_dataset`], whose
/// output it matches bit-for-bit for any rank count and any recoverable
/// fault plan.
///
/// # Errors
/// Propagates [`ExecutorError`] from the first snapshot that cannot finish.
///
/// # Panics
/// Panics if `ranks == 0`.
pub fn run_dataset_with_ranks(
    dataset: &Dataset,
    cfg: &SamplingConfig,
    ranks: usize,
    injector: &FaultInjector,
    policy: &RetryPolicy,
) -> Result<SamplingOutput, ExecutorError> {
    let _run = sickle_obs::span!(
        "hpc.run_dataset",
        snapshots = dataset.num_snapshots(),
        ranks = ranks
    );
    run_dataset_with(dataset, cfg, |i, snap| {
        run_resilient(snap, i, cfg, ranks, injector, policy).map(|out| out.sets)
    })
}

/// Runs a strong-scaling sweep over the given rank counts, returning
/// `(ranks, seconds)` pairs; speedups are relative to the first entry.
pub fn scaling_sweep(
    snap: &Snapshot,
    cfg: &SamplingConfig,
    rank_counts: &[usize],
) -> Vec<RankTiming> {
    rank_counts
        .iter()
        .map(|&r| run_with_ranks(snap, cfg, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use sickle_core::pipeline::{CubeMethod, PointMethod};
    use sickle_field::Grid3;

    fn snapshot() -> Snapshot {
        let grid = Grid3::new(32, 32, 32, 1.0, 1.0, 1.0);
        let q: Vec<f64> = (0..grid.len())
            .map(|i| {
                ((i * 2654435761) % 1000) as f64 * 0.001 + if i % 211 == 0 { 5.0 } else { 0.0 }
            })
            .collect();
        Snapshot::new(grid, 0.0).with_var("q", q)
    }

    fn config() -> SamplingConfig {
        SamplingConfig {
            hypercubes: CubeMethod::Random,
            num_hypercubes: 16,
            cube_edge: 8,
            method: PointMethod::MaxEnt {
                num_clusters: 5,
                bins: 32,
            },
            num_samples: 51,
            cluster_var: "q".to_string(),
            feature_vars: vec!["q".to_string()],
            seed: 3,
            temporal: sickle_core::pipeline::TemporalMethod::All,
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_rounds: 4,
            backoff: Duration::from_millis(1),
            multiplier: 1.0,
        }
    }

    #[test]
    fn ranks_partition_cubes_evenly() {
        let t = run_with_ranks(&snapshot(), &config(), 4);
        assert_eq!(t.ranks, 4);
        assert_eq!(t.cubes_per_rank, vec![4, 4, 4, 4]);
        assert_eq!(t.points_out, 16 * 51);
        assert_eq!(t.retry_rounds, 0);
        assert_eq!(t.faults_injected, 0);
        assert!(t.failed_ranks.is_empty());
    }

    #[test]
    fn more_ranks_than_cubes_leaves_idle_ranks() {
        let mut cfg = config();
        cfg.num_hypercubes = 3;
        let t = run_with_ranks(&snapshot(), &cfg, 8);
        let idle = t.cubes_per_rank.iter().filter(|&&c| c == 0).count();
        assert_eq!(idle, 5, "5 ranks must be starved: {:?}", t.cubes_per_rank);
    }

    #[test]
    fn results_independent_of_rank_count() {
        // The same cubes and seeds produce bit-identical sample sets no
        // matter how the work is partitioned.
        let snap = snapshot();
        let cfg = config();
        let policy = RetryPolicy::default();
        let base = run_resilient(&snap, 0, &cfg, 1, &FaultInjector::none(), &policy).unwrap();
        for ranks in [2, 4, 8] {
            let out =
                run_resilient(&snap, 0, &cfg, ranks, &FaultInjector::none(), &policy).unwrap();
            assert_eq!(out.sets.len(), base.sets.len());
            for (a, b) in base.sets.iter().zip(&out.sets) {
                assert_eq!(a.hypercube, b.hypercube);
                assert_eq!(a.indices, b.indices);
                assert_eq!(a.features.data, b.features.data);
            }
        }
    }

    #[test]
    fn killed_ranks_work_is_redistributed_bit_identically() {
        let snap = snapshot();
        let cfg = config();
        let baseline =
            run_resilient(&snap, 0, &cfg, 8, &FaultInjector::none(), &fast_retry()).unwrap();
        // Kill 2 of 8 ranks mid-snapshot (each after one processed cube).
        let plan = FaultPlan::parse("kill@2:1,kill@5:1").unwrap();
        let out = run_resilient(&snap, 0, &cfg, 8, &FaultInjector::new(plan), &fast_retry())
            .expect("2 of 8 ranks killed must still complete");
        assert_eq!(out.timing.failed_ranks, vec![2, 5]);
        assert!(out.timing.retry_rounds >= 1);
        assert_eq!(out.timing.faults_injected, 2);
        assert_eq!(out.sets.len(), baseline.sets.len());
        for (a, b) in baseline.sets.iter().zip(&out.sets) {
            assert_eq!(a.hypercube, b.hypercube);
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.features.data, b.features.data);
        }
    }

    #[test]
    fn poisoned_cube_is_detected_and_retried() {
        let snap = snapshot();
        let cfg = config();
        let baseline =
            run_resilient(&snap, 0, &cfg, 4, &FaultInjector::none(), &fast_retry()).unwrap();
        let plan = FaultPlan::parse("poison@1:0").unwrap();
        let out = run_resilient(&snap, 0, &cfg, 4, &FaultInjector::new(plan), &fast_retry())
            .expect("poisoned cube must be retried");
        assert!(out.timing.retry_rounds >= 1);
        assert!(out.timing.failed_ranks.is_empty());
        for (a, b) in baseline.sets.iter().zip(&out.sets) {
            assert_eq!(a.indices, b.indices);
        }
    }

    #[test]
    fn delay_faults_change_timing_only() {
        let snap = snapshot();
        let cfg = config();
        let baseline =
            run_resilient(&snap, 0, &cfg, 4, &FaultInjector::none(), &fast_retry()).unwrap();
        let plan = FaultPlan::parse("delay@0:0:20").unwrap();
        let out =
            run_resilient(&snap, 0, &cfg, 4, &FaultInjector::new(plan), &fast_retry()).unwrap();
        assert_eq!(out.timing.retry_rounds, 0);
        assert_eq!(out.timing.faults_injected, 1);
        for (a, b) in baseline.sets.iter().zip(&out.sets) {
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.features.data, b.features.data);
        }
    }

    #[test]
    fn all_ranks_dead_is_an_error() {
        let plan = FaultPlan::parse("kill@0:0,kill@1:0").unwrap();
        let err = run_resilient(
            &snapshot(),
            0,
            &config(),
            2,
            &FaultInjector::new(plan),
            &fast_retry(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecutorError::AllRanksFailed { ref undone } if !undone.is_empty()));
        assert!(err.to_string().contains("all ranks failed"));
    }

    #[test]
    fn sweep_returns_all_rank_counts() {
        let snap = snapshot();
        let cfg = config();
        let sweep = scaling_sweep(&snap, &cfg, &[1, 2, 4]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep.iter().all(|t| t.elapsed_secs > 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = run_with_ranks(&snapshot(), &config(), 0);
    }

    #[test]
    fn per_rank_seconds_are_recorded() {
        let t = run_with_ranks(&snapshot(), &config(), 4);
        assert_eq!(t.rank_secs.len(), 4);
        assert!(t.rank_secs.iter().all(|&s| s >= 0.0));
        // The whole-run wall time includes serial phase 1, so it bounds the
        // slowest rank's phase-2 time from above.
        assert!(t.slowest_rank_secs() <= t.elapsed_secs);
    }

    #[test]
    fn imbalance_is_at_least_one_and_sane() {
        let t = run_with_ranks(&snapshot(), &config(), 4);
        let ratio = t.imbalance();
        assert!(ratio >= 1.0 - 1e-12, "imbalance {ratio}");
        // slowest/mean can never exceed the rank count.
        assert!(ratio <= t.ranks as f64 + 1e-12, "imbalance {ratio}");
    }

    #[test]
    fn imbalance_of_empty_timing_is_one() {
        let t = RankTiming {
            ranks: 0,
            elapsed_secs: 0.0,
            rank_secs: Vec::new(),
            cubes_per_rank: Vec::new(),
            points_out: 0,
            retry_rounds: 0,
            faults_injected: 0,
            failed_ranks: Vec::new(),
        };
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_never_nan_even_on_degenerate_timings() {
        // Zero-rank, zero-second, and non-finite rank timings must all
        // produce a finite ratio (the fig7 CSV column), never NaN.
        for rank_secs in [
            Vec::new(),
            vec![0.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![f64::INFINITY, 1.0],
        ] {
            let t = RankTiming {
                ranks: rank_secs.len(),
                elapsed_secs: 0.0,
                rank_secs,
                cubes_per_rank: Vec::new(),
                points_out: 0,
                retry_rounds: 0,
                faults_injected: 0,
                failed_ranks: Vec::new(),
            };
            assert!(t.imbalance().is_finite(), "imbalance {}", t.imbalance());
        }
    }

    #[test]
    fn starved_ranks_skew_imbalance() {
        // 3 cubes on 8 ranks: 5 ranks do nothing, so the critical path is
        // well above the mean (unless timings are below clock resolution).
        let mut cfg = config();
        cfg.num_hypercubes = 3;
        let t = run_with_ranks(&snapshot(), &cfg, 8);
        if t.mean_rank_secs() > 0.0 {
            assert!(t.imbalance() >= 1.0);
        }
    }
}
