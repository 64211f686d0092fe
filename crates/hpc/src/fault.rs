//! Deterministic fault injection for the rank executor.
//!
//! A [`FaultPlan`] is a replayable list of faults, each pinned to a
//! `(rank, k)` coordinate: the fault fires when rank `rank` is about to
//! process the `k`-th hypercube of its lifetime in one executor run (`k`
//! counts across retry rounds, 0-based). Three kinds model the failure
//! modes the paper's Frontier runs see:
//!
//! - [`FaultKind::Kill`] — fail-stop: the rank dies before the cube and
//!   never comes back; its unfinished cubes are re-dealt to survivors.
//! - [`FaultKind::Delay`] — a straggler: the rank sleeps before the cube
//!   (node flakiness, I/O stalls). Results are unaffected; only timing.
//! - [`FaultKind::Poison`] — silent corruption: the cube's result is
//!   produced but wrong (an out-of-range point index). The executor's
//!   output validation detects it and re-queues the cube.
//! - [`FaultKind::Drop`] — a severed connection: the `sickle-store` serve
//!   plane interprets the coordinate as `(connection, k-th request)` and
//!   cuts the socket mid-response, exercising the client's
//!   reconnect-and-retry path. The rank executor treats it as a no-op.
//!
//! Every fault fires **at most once**, so any plan that leaves at least one
//! rank alive eventually lets all cubes complete — the determinism contract
//! (see DESIGN.md §9) then guarantees a bit-identical [`sickle_field::SampleSet`].
//!
//! Plans are built in code, generated from a seed ([`FaultPlan::random`]),
//! or parsed from the `SICKLE_FAULT_PLAN` environment variable:
//!
//! ```text
//! SICKLE_FAULT_PLAN="kill@2:1,delay@0:3:50,poison@1:0,drop@0:2"
//! #                  kind@rank:cube[:millis]   (drop reads rank:cube as
//! #                                             conn:request)
//! ```

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happens to a rank at its fault coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop: the rank dies before processing the cube.
    Kill,
    /// Straggler: the rank sleeps this many milliseconds, then proceeds.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Silent corruption: the cube result is produced but invalid.
    Poison,
    /// Severed connection: the serve data plane cuts the socket
    /// mid-response at this `(connection, request)` coordinate.
    Drop,
}

/// One fault pinned to a `(rank, k-th lifetime cube)` coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Rank the fault targets.
    pub rank: usize,
    /// 0-based index of the cube in the rank's lifetime processing order.
    pub at_cube: usize,
    /// Fault kind.
    pub kind: FaultKind,
}

/// A replayable set of faults for one executor run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults; at most one fires per `(rank, at_cube)` coordinate.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, the executor behaves exactly as before.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Number of ranks this plan kills.
    pub fn kills(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::Kill)
            .map(|f| f.rank)
            .collect::<HashSet<_>>()
            .len()
    }

    /// True when running the plan on `ranks` ranks can still finish: at
    /// least one rank is never killed.
    pub fn recoverable(&self, ranks: usize) -> bool {
        self.kills() < ranks
    }

    /// Generates a seeded, replayable plan for `ranks` ranks that is always
    /// [`recoverable`](Self::recoverable): up to `ranks - 1` kills plus a
    /// few delays and poisons in the first `max_cube` lifetime slots.
    pub fn random(seed: u64, ranks: usize, max_cube: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        if ranks > 1 {
            let kills = rng.gen_range(0..ranks); // 0..=ranks-1
            let mut victims: Vec<usize> = (0..ranks).collect();
            for k in 0..kills {
                let pick = rng.gen_range(0..victims.len());
                faults.push(Fault {
                    rank: victims.swap_remove(pick),
                    at_cube: rng.gen_range(0..max_cube.max(1)),
                    kind: FaultKind::Kill,
                });
                let _ = k;
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let kind = if rng.gen_range(0..2) == 0 {
                FaultKind::Poison
            } else {
                FaultKind::Delay {
                    millis: rng.gen_range(1..5),
                }
            };
            faults.push(Fault {
                rank: rng.gen_range(0..ranks.max(1)),
                at_cube: rng.gen_range(0..max_cube.max(1)),
                kind,
            });
        }
        FaultPlan { faults }
    }

    /// Parses the `kind@rank:cube[:millis]` comma-separated grammar used by
    /// `SICKLE_FAULT_PLAN` (see the module docs).
    ///
    /// # Errors
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind_str, coord) = entry
                .split_once('@')
                .ok_or_else(|| format!("`{entry}`: expected kind@rank:cube"))?;
            let parts: Vec<&str> = coord.split(':').collect();
            let parse_num = |s: &str, what: &str| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("`{entry}`: bad {what} `{s}`"))
            };
            if parts.len() < 2 {
                return Err(format!("`{entry}`: expected kind@rank:cube"));
            }
            let rank = parse_num(parts[0], "rank")? as usize;
            let at_cube = parse_num(parts[1], "cube")? as usize;
            let kind = match kind_str.trim() {
                "kill" => FaultKind::Kill,
                "poison" => FaultKind::Poison,
                "drop" => FaultKind::Drop,
                "delay" => {
                    let ms = parts
                        .get(2)
                        .map(|s| parse_num(s, "millis"))
                        .transpose()?
                        .unwrap_or(10);
                    FaultKind::Delay { millis: ms }
                }
                other => return Err(format!("`{entry}`: unknown fault kind `{other}`")),
            };
            let max_fields = if matches!(kind, FaultKind::Delay { .. }) {
                3
            } else {
                2
            };
            if parts.len() > max_fields {
                return Err(format!("`{entry}`: too many fields"));
            }
            faults.push(Fault {
                rank,
                at_cube,
                kind,
            });
        }
        Ok(FaultPlan { faults })
    }

    /// Reads a plan from `SICKLE_FAULT_PLAN`; `None` when unset or empty.
    ///
    /// # Errors
    /// Propagates [`parse`](Self::parse) errors for a set-but-malformed value.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("SICKLE_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }
}

/// What the executor must do before processing a cube.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: process the cube normally.
    Proceed,
    /// Sleep, then process the cube normally.
    Delay(Duration),
    /// Process the cube but corrupt its result.
    Poison,
    /// Die without processing the cube (or any later one).
    Kill,
    /// Sever the connection mid-response (serve plane only; the rank
    /// executor proceeds normally on this action).
    Drop,
}

struct InjectorState {
    /// Lifetime cubes processed per rank (grows on demand).
    cube_counts: Vec<usize>,
    /// Plan entries that have not fired yet.
    pending: Vec<Fault>,
    fired: usize,
}

/// Shared run state that replays a [`FaultPlan`] against the executor.
///
/// Thread-safe: rank threads call [`on_cube`](Self::on_cube) concurrently.
/// Each fault fires at most once; the injector tracks per-rank lifetime
/// cube counters across retry rounds.
pub struct FaultInjector {
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Wraps a plan for one executor run.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            state: Mutex::new(InjectorState {
                cube_counts: Vec::new(),
                pending: plan.faults,
                fired: 0,
            }),
        }
    }

    /// An injector that never faults.
    pub fn none() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Called by a rank before it processes its next cube; advances the
    /// rank's lifetime counter and returns the action to take. `Kill` does
    /// not consume the counter slot (the cube was not processed).
    pub fn on_cube(&self, rank: usize) -> FaultAction {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.cube_counts.len() <= rank {
            st.cube_counts.resize(rank + 1, 0);
        }
        let k = st.cube_counts[rank];
        let hit = st
            .pending
            .iter()
            .position(|f| f.rank == rank && f.at_cube == k);
        let action = match hit {
            None => FaultAction::Proceed,
            Some(i) => {
                let fault = st.pending.swap_remove(i);
                st.fired += 1;
                match fault.kind {
                    FaultKind::Kill => FaultAction::Kill,
                    FaultKind::Poison => FaultAction::Poison,
                    FaultKind::Drop => FaultAction::Drop,
                    FaultKind::Delay { millis } => {
                        FaultAction::Delay(Duration::from_millis(millis))
                    }
                }
            }
        };
        if action != FaultAction::Kill {
            st.cube_counts[rank] += 1;
        }
        action
    }

    /// Faults fired so far.
    pub fn fired(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_the_readme_example() {
        let plan = FaultPlan::parse("kill@2:1, delay@0:3:50, poison@1:0").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault {
                    rank: 2,
                    at_cube: 1,
                    kind: FaultKind::Kill
                },
                Fault {
                    rank: 0,
                    at_cube: 3,
                    kind: FaultKind::Delay { millis: 50 }
                },
                Fault {
                    rank: 1,
                    at_cube: 0,
                    kind: FaultKind::Poison
                },
            ]
        );
    }

    #[test]
    fn parse_drop_reads_conn_request_coordinates() {
        let plan = FaultPlan::parse("drop@0:2").unwrap();
        assert_eq!(
            plan.faults,
            vec![Fault {
                rank: 0,
                at_cube: 2,
                kind: FaultKind::Drop
            }]
        );
        // Drop takes no third field, like kill/poison.
        assert!(FaultPlan::parse("drop@0:2:9").is_err());
        // Drop is not a kill: it cannot make a plan unrecoverable.
        assert_eq!(plan.kills(), 0);
        assert!(plan.recoverable(1));
    }

    #[test]
    fn injector_replays_drop_faults() {
        let inj = FaultInjector::new(FaultPlan::parse("drop@1:1").unwrap());
        assert_eq!(inj.on_cube(1), FaultAction::Proceed);
        assert_eq!(inj.on_cube(1), FaultAction::Drop);
        assert_eq!(inj.on_cube(1), FaultAction::Proceed);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn parse_defaults_delay_millis() {
        let plan = FaultPlan::parse("delay@1:2").unwrap();
        assert_eq!(plan.faults[0].kind, FaultKind::Delay { millis: 10 });
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("kill@").is_err());
        // Unknown kinds, including the retired process-exit kind `die`.
        for kind in ["explode", "die"] {
            assert!(FaultPlan::parse(&format!("{kind}@0:4")).is_err());
        }
        assert!(FaultPlan::parse("kill@x:2").is_err());
        assert!(FaultPlan::parse("kill@1:2:3").is_err());
        assert!(FaultPlan::parse("poison@1:2:3").is_err());
        assert!(FaultPlan::parse("kill@1").is_err());
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse(" , ").unwrap(), FaultPlan::none());
    }

    #[test]
    fn random_plans_are_replayable_and_recoverable() {
        for seed in 0..50 {
            let a = FaultPlan::random(seed, 4, 8);
            let b = FaultPlan::random(seed, 4, 8);
            assert_eq!(a, b, "seed {seed} not replayable");
            assert!(a.recoverable(4), "seed {seed} kills all ranks: {a:?}");
        }
    }

    #[test]
    fn injector_fires_each_fault_once() {
        let plan = FaultPlan::parse("poison@0:1").unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_cube(0), FaultAction::Proceed); // k = 0
        assert_eq!(inj.on_cube(0), FaultAction::Poison); // k = 1 fires
        assert_eq!(inj.on_cube(0), FaultAction::Proceed); // k = 2
                                                          // The retried cube (lifetime k = 3) does not re-fire.
        assert_eq!(inj.on_cube(0), FaultAction::Proceed);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn kill_does_not_consume_a_cube_slot() {
        let inj = FaultInjector::new(FaultPlan::parse("kill@1:0").unwrap());
        assert_eq!(inj.on_cube(1), FaultAction::Kill);
        // Hypothetical resurrection would resume at the same slot, fault spent.
        assert_eq!(inj.on_cube(1), FaultAction::Proceed);
    }

    #[test]
    fn kills_counts_distinct_ranks() {
        let plan = FaultPlan::parse("kill@1:0,kill@1:2,kill@3:0").unwrap();
        assert_eq!(plan.kills(), 2);
        assert!(plan.recoverable(3));
        assert!(!plan.recoverable(2));
    }
}
