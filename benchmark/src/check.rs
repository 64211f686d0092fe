//! Output checks: order-sensitive digests of what a workload produced,
//! compared against a reference computed another way (a local decode, the
//! ranked executor, a second repetition), and a tally of checks that failed.

use sickle_core::SamplingOutput;
use sickle_field::Dataset;

/// FNV-1a over 64-bit words instead of bytes: order-sensitive, and cheap
/// enough to run on every served batch inside a timed region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.word(u64::from(v.to_bits()));
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// One batch's tensors (`sickle_store::Batch` and `sickle_train::Batch`
    /// carry the same two).
    pub fn batch(&mut self, inputs: &[f32], targets: &[f32]) {
        self.word(inputs.len() as u64);
        self.f32s(inputs);
        self.f32s(targets);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of every variable of every snapshot, bit for bit.
pub fn dataset_digest(dataset: &Dataset) -> u64 {
    let mut d = Digest::default();
    for snap in &dataset.snapshots {
        d.word(snap.time.to_bits());
        for values in &snap.vars {
            d.f64s(values);
        }
    }
    d.value()
}

/// Digest of a sampling output: which points were kept, in which order,
/// with which feature values.
pub fn output_digest(out: &SamplingOutput) -> u64 {
    let mut d = Digest::default();
    for set in out.sets.iter().flatten() {
        d.word(set.snapshot_index as u64);
        d.word(set.hypercube.map_or(u64::MAX, |c| c as u64));
        for &i in &set.indices {
            d.word(i as u64);
        }
        d.f64s(&set.features.data);
    }
    d.value()
}

/// Counts operations and output checks, and keeps the reason of each
/// failure. `failed / attempted` is the benchmark's `failed_frac`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one check; `why` is evaluated only when it fails.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// The count is exact; the reasons are for a human, so a flood of
    /// identical failures keeps only its head.
    fn note(&mut self, why: String) {
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.failures.into_iter().for_each(|why| self.note(why));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_digest_is_order_sensitive() {
        let (a, b) = ([1.0f32, 2.0], [3.0f32, 4.0]);
        let digest = |order: &[&[f32]]| {
            let mut d = Digest::default();
            order.iter().for_each(|x| d.batch(x, &[0.5]));
            d.value()
        };
        assert_eq!(digest(&[&a, &b]), digest(&[&a, &b]));
        assert_ne!(digest(&[&a, &b]), digest(&[&b, &a]));
        // Swapping two values inside one batch shows too, so does a one-bit
        // change (0.0 vs -0.0), and so does moving a value across the
        // input/target boundary.
        assert_ne!(digest(&[&a]), digest(&[&[2.0, 1.0]]));
        assert_ne!(digest(&[&[0.0]]), digest(&[&[-0.0]]));
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.batch(&[1.0, 2.0], &[3.0]);
        y.batch(&[1.0], &[2.0, 3.0]);
        assert_ne!(x, y);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.ok(8);
        t.check(true, || unreachable!());
        t.check(false, || "digest differs".into());
        assert_eq!((t.attempted, t.failed), (10, 1));
        assert_eq!(t.failures, vec!["digest differs".to_string()]);
    }
}
