//! The per-sample training step against the thread count and against a
//! committed digest.
//!
//! `TokenTransformer` (pooled and per-token decode) and `MateyMini` build
//! each sample of a batch on a child tape of its own, and the children run
//! on the thread pool (`sickle_nn::Tape::per_sample`). Each case here trains
//! 20 Adam steps on one reused tape, once inside a one-thread pool and once
//! on the default pool: the losses and the final parameters must agree bit
//! for bit, because every child's arithmetic and the order the children's
//! gradients are merged in are fixed. Run it under `RAYON_NUM_THREADS=3`
//! too; on a one-thread host both runs are serial.
//!
//! The second test pins the same runs: each line of `golden/training.txt`
//! is `case item len digest`, where `digest` is XXH64
//! (`sickle_field::io::content_hash`) of the item's `f32` bits (the 20
//! losses, then every parameter in `ParamId` order), little-endian. The
//! test selects [`Kernel::Optimized`] itself; the digests are those of the
//! AVX2+FMA kernels, so they are asserted only where
//! `sickle_simd::fma_available()` holds.
//!
//! To intentionally re-baseline after a deliberate numerics change:
//!
//! ```text
//! SICKLE_UPDATE_GOLDEN=1 cargo test --release -p sickle-train --test golden_training
//! ```

use std::path::PathBuf;

use sickle_field::io::content_hash;
use sickle_nn::optim::Adam;
use sickle_nn::Tape;
use sickle_simd::Kernel;
use sickle_train::models::Model;
use sickle_train::{Batch, BatchShape, MateyMini, TokenTransformer};

const STEPS: usize = 20;

fn toy_batch(shape: BatchShape) -> Batch {
    let inputs = (0..shape.batch * shape.tokens * shape.features)
        .map(|i| ((i * 37) % 19) as f32 * 0.05 - 0.4)
        .collect();
    let targets = (0..shape.batch * shape.outputs)
        .map(|i| ((i * 13) % 7) as f32 * 0.1)
        .collect();
    Batch {
        inputs,
        targets,
        shape,
    }
}

/// The three per-sample models, each with a batch of its shape: the
/// benchmark's pooled MLP-Transformer, a per-token CNN-Transformer, and
/// MATEY-mini pruning half its tokens.
fn cases() -> Vec<(&'static str, Box<dyn Model>, Batch)> {
    let pooled = BatchShape {
        batch: 4,
        tokens: 64,
        features: 5,
        outputs: 5,
    };
    let patches = BatchShape {
        batch: 4,
        tokens: 16,
        features: 8,
        outputs: 64,
    };
    vec![
        (
            "mlp_transformer",
            Box::new(TokenTransformer::mlp_transformer(64, 5, 32, 1, 5, 3)),
            toy_batch(pooled),
        ),
        (
            "cnn_transformer",
            Box::new(TokenTransformer::cnn_transformer(16, 8, 16, 1, 64, 4)),
            toy_batch(patches),
        ),
        (
            "matey",
            Box::new(MateyMini::new(16, 8, 16, 1, 64, 0.5, 5)),
            toy_batch(patches),
        ),
    ]
}

/// `STEPS` Adam steps on one reused tape: the losses, then every parameter
/// value in `ParamId` order.
fn train(model: &mut dyn Model, batch: &Batch) -> (Vec<f32>, Vec<f32>) {
    let mut opt = Adam::new(1e-2);
    let mut tape = Tape::new();
    let losses = (0..STEPS)
        .map(|_| {
            tape.reset();
            let loss = model.loss_on_batch(&mut tape, batch);
            let lv = tape.value(loss)[0];
            tape.backward(loss);
            tape.accumulate_grads(model.store_mut());
            opt.step(model.store_mut());
            model.store_mut().zero_grads();
            lv
        })
        .collect();
    let params = model
        .store()
        .iter()
        .flat_map(|p| p.data.iter().copied())
        .collect();
    (losses, params)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn training_does_not_depend_on_the_thread_count() {
    sickle_simd::set_kernel(Kernel::Optimized);
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds");
    for ((name, mut one, batch), (_, mut pooled, _)) in cases().into_iter().zip(cases()) {
        let (one_losses, one_params) = serial.install(|| train(one.as_mut(), &batch));
        let (losses, params) = train(pooled.as_mut(), &batch);
        assert!(
            losses[STEPS - 1] < losses[0],
            "{name}: {losses:?} does not fall"
        );
        assert_eq!(bits(&one_losses), bits(&losses), "{name}: losses");
        assert_eq!(bits(&one_params), bits(&params), "{name}: parameters");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("training.txt")
}

fn line(case: &str, item: &str, values: &[f32]) -> String {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    format!(
        "{case} {item} {} {:016x}",
        values.len(),
        content_hash(&bytes)
    )
}

#[test]
fn training_matches_committed_golden() {
    sickle_simd::set_kernel(Kernel::Optimized);
    let update = std::env::var("SICKLE_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if !sickle_simd::fma_available() && !update {
        println!("no avx2+fma on this host: the pinned digests are the FMA kernel's; skipped");
        return;
    }
    let actual: Vec<String> = cases()
        .into_iter()
        .flat_map(|(name, mut model, batch)| {
            let (losses, params) = train(model.as_mut(), &batch);
            [line(name, "losses", &losses), line(name, "params", &params)]
        })
        .collect();
    let path = golden_path();
    if update {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text = format!(
            "# case item len xxh64(f32 bits, LE)\n{}\n",
            actual.join("\n")
        );
        std::fs::write(&path, text).unwrap();
        println!("golden regenerated at {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {} ({e}); regenerate with SICKLE_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Vec<&str> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        expected, actual,
        "training drifted from the committed golden; if this change is intentional, \
         re-baseline with:\n  \
         SICKLE_UPDATE_GOLDEN=1 cargo test --release -p sickle-train --test golden_training"
    );
}
