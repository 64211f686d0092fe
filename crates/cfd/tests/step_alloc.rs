//! Proves the zero-allocation contract of `SpectralSolver::step`: once the
//! solver is warmed up, stepping must not heap-allocate anything field-sized.
//!
//! A counting global allocator tallies allocations at or above a threshold
//! set well below a 32³ field (256 KiB of reals / 512 KiB of complexes) but
//! above the small per-pencil scratch and thread-pool bookkeeping the
//! parallel runtime legitimately allocates each call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sickle_cfd::{Forcing, SpectralConfig, SpectralSolver, Stratification};
use sickle_field::Axis;

/// Any single allocation of at least this many bytes counts as "field-sized".
/// A 32³ f64 field is 262144 bytes; per-pencil FFT scratch is n * 16 = 512.
const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static TRACKING: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) != 0 && layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test, two configurations in turn: the counter is process-global.
#[test]
fn steady_state_step_does_not_allocate_fields() {
    let forced = SpectralConfig {
        n: 32,
        dt: 0.005,
        forcing: Some(Forcing { k_f: 2.0 }),
        ..Default::default()
    };
    // The buoyancy product is formed in place of a gradient buffer and the
    // scalar rides through the same workspace as the velocities.
    let stratified = SpectralConfig {
        n: 32,
        dt: 0.005,
        stratification: Stratification::Boussinesq {
            n_bv: 2.0,
            gravity: Axis::Z,
        },
        ..Default::default()
    };
    for (name, cfg) in [("forced", forced), ("stratified", stratified)] {
        let mut solver = SpectralSolver::new(cfg);
        solver.init_taylor_green(1.0);
        // Warmup: first step spins up the thread pool and touches every path.
        solver.step();

        LARGE_ALLOCS.store(0, Ordering::SeqCst);
        TRACKING.store(1, Ordering::SeqCst);
        solver.run(3);
        TRACKING.store(0, Ordering::SeqCst);

        let count = LARGE_ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            count, 0,
            "{name}: steady-state step() made {count} allocation(s) of >= {LARGE} bytes"
        );
        assert!(solver.kinetic_energy().is_finite());
    }
}
