//! Proves the zero-allocation contract of the arena-reused training step:
//! once the tape has seen every shape the model produces, a full step
//! (reset → forward → backward → grad accumulation → optimizer) must not
//! heap-allocate anything tensor-sized.
//!
//! A counting global allocator tallies allocations at or above a threshold
//! set below the models' activation tensors (batch 8 × hidden 64 f32 =
//! 2 KiB) but above the small per-step bookkeeping (the `Var` lists of
//! `concat_rows`, a layer's vector of timestep handles) the runtime
//! legitimately allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sickle_nn::optim::Adam;
use sickle_nn::Tape;
use sickle_train::models::Model;
use sickle_train::{Batch, BatchShape, LstmModel, MateyMini, TokenTransformer};

/// Any single allocation of at least this many bytes counts as
/// "tensor-sized". The smallest recurrent activation here is
/// 8 × 64 × 4 = 2048 bytes; per-step bookkeeping stays well under 1 KiB.
const LARGE: usize = 1024;

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

fn toy_batch(shape: BatchShape) -> Batch {
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for b in 0..shape.batch {
        let mut sum = 0.0f32;
        for t in 0..shape.tokens {
            for f in 0..shape.features {
                let v = (((b * 7 + t * 3 + f) % 13) as f32) * 0.1 - 0.6;
                inputs.push(v);
                sum += v;
            }
        }
        let mean = sum / (shape.tokens * shape.features) as f32;
        targets.extend((0..shape.outputs).map(|o| mean + 0.01 * o as f32));
    }
    Batch {
        inputs,
        targets,
        shape,
    }
}

fn train_step(tape: &mut Tape, model: &mut impl Model, opt: &mut Adam, batch: &Batch) -> f32 {
    tape.reset();
    let loss = model.loss_on_batch(tape, batch);
    let lv = tape.value(loss)[0];
    tape.backward(loss);
    tape.accumulate_grads(model.store_mut());
    opt.step(model.store_mut());
    model.store_mut().zero_grads();
    lv
}

/// Warms the tape's arena up, then counts tensor-sized allocations over
/// four further steps.
fn assert_steady_state_is_allocation_free(mut model: impl Model, batch: &Batch) {
    let mut opt = Adam::new(1e-3);
    let mut tape = Tape::new();

    // Warmup: the first steps populate the arena free-list with every
    // shape the model produces and initialize the optimizer moments.
    for _ in 0..2 {
        train_step(&mut tape, &mut model, &mut opt, batch);
    }

    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(1, Ordering::SeqCst);
    let mut last = f32::NAN;
    for _ in 0..4 {
        last = train_step(&mut tape, &mut model, &mut opt, batch);
    }
    TRACKING.store(0, Ordering::SeqCst);

    let count = LARGE_ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count,
        0,
        "steady-state {} train step made {count} allocation(s) of >= {LARGE} bytes",
        model.name()
    );
    assert!(last.is_finite());
}

/// One test, both models in turn: the counter is process-global, so the
/// cases must not run on parallel test threads.
#[test]
fn steady_state_train_step_does_not_allocate_tensors() {
    let lstm_shape = BatchShape {
        batch: 8,
        tokens: 4,
        features: 16,
        outputs: 1,
    };
    assert_steady_state_is_allocation_free(LstmModel::new(16, 64, 1, 0), &toy_batch(lstm_shape));

    // The benchmark pipeline's model at its shape: per-sample transformer
    // graphs sharing one leaf per parameter, saved layer-norm statistics and
    // softmax rows — all of it arena-backed.
    let shape = BatchShape {
        batch: 4,
        tokens: 64,
        features: 5,
        outputs: 5,
    };
    let model = TokenTransformer::mlp_transformer(shape.tokens, shape.features, 32, 1, 5, 0);
    assert_steady_state_is_allocation_free(model, &toy_batch(shape));

    // MATEY-mini at the same shape, decoding every token's features and
    // running attention over half the tokens: its one-hot row gathers and
    // row stacks go through the child tapes' arenas too.
    let shape = BatchShape {
        outputs: shape.tokens * shape.features,
        ..shape
    };
    let model = MateyMini::new(shape.tokens, shape.features, 32, 1, shape.outputs, 0.5, 0);
    assert_steady_state_is_allocation_free(model, &toy_batch(shape));
}
