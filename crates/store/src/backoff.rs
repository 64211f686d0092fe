//! Seeded decorrelated-jitter retry backoff.
//!
//! The old client slept `backoff * attempt` — linear and identical for
//! every client, so N trainers reconnecting after a server restart retried
//! in lockstep and re-formed the same thundering herd every round. This is
//! the AWS "decorrelated jitter" scheme instead: each delay is drawn
//! uniformly from `[base, prev * 3]` and capped, so schedules spread out
//! immediately and stay spread, while the expected delay still grows
//! geometrically toward the cap. The RNG is seeded per client, keeping
//! fault-injection tests replayable; distinct seeds give decollided schedules (the
//! property `decollision` below pins).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One client's retry-delay schedule.
#[derive(Debug)]
pub struct Backoff {
    rng: StdRng,
    base: Duration,
    cap: Duration,
    prev: Duration,
}

impl Backoff {
    /// A schedule starting at `base`, never exceeding `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        let base = base.max(Duration::from_micros(1));
        Backoff {
            rng: StdRng::seed_from_u64(seed),
            base,
            cap: cap.max(base),
            prev: base,
        }
    }

    /// The next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64)
            .saturating_mul(3)
            .min(self.cap.as_nanos() as u64)
            .max(base + 1);
        let picked = Duration::from_nanos(self.rng.gen_range(base..hi));
        self.prev = picked;
        picked
    }

    /// Forgets accumulated growth: the next delay draws from the base
    /// range again. Called after a success so one bad spell does not tax
    /// the next.
    pub fn reset(&mut self) {
        self.prev = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = Backoff::new(seed, Duration::from_millis(25), Duration::from_millis(500));
        (0..n).map(|_| b.next_delay()).collect()
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        for seed in 0..16 {
            for d in schedule(seed, 32) {
                assert!(d >= Duration::from_millis(25), "below base: {d:?}");
                assert!(d <= Duration::from_millis(500), "above cap: {d:?}");
            }
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        assert_eq!(schedule(42, 16), schedule(42, 16));
    }

    #[test]
    fn distinct_seeds_decollide() {
        // The thundering-herd regression test: N clients retrying after a
        // shared failure must not sleep identical schedules. Under linear
        // backoff every pairwise schedule collided at every step; with
        // seeded jitter, no two clients share even their first delay (and
        // certainly not a whole schedule).
        let n = 16;
        let schedules: Vec<Vec<Duration>> = (0..n).map(|s| schedule(s, 5)).collect();
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                assert_ne!(
                    schedules[i], schedules[j],
                    "clients {i} and {j} retry in lockstep"
                );
            }
        }
        // Stronger: first delays alone are spread across the range, not
        // clustered on one value.
        let mut firsts: Vec<u128> = schedules.iter().map(|s| s[0].as_nanos()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert!(
            firsts.len() >= n as usize - 2,
            "first delays cluster: {} distinct of {n}",
            firsts.len()
        );
    }

    #[test]
    fn reset_returns_to_the_base_range() {
        let mut b = Backoff::new(7, Duration::from_millis(10), Duration::from_secs(1));
        for _ in 0..12 {
            b.next_delay();
        }
        b.reset();
        // After reset the draw is from [base, 3*base) again.
        assert!(b.next_delay() < Duration::from_millis(30));
    }
}
