//! Global FLOP counter for the energy model.
//!
//! Every tape op records its floating-point work here; the training loop
//! reads the counter into a `sickle-energy` meter. A process-global atomic
//! keeps the tape free of plumbing and works under rayon parallelism.

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` FLOPs to the global counter.
#[inline]
pub fn record(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Current counter value.
pub fn total() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Resets the counter to zero and returns the previous value.
pub fn reset() -> u64 {
    FLOPS.swap(0, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_resets() {
        reset();
        record(100);
        record(20);
        assert!(total() >= 120);
        let prev = reset();
        assert!(prev >= 120);
    }
}
