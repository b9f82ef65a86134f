//! The tiled-kernel bit-identity pin and the f16 fast-path error pin.
//!
//! The tiled kernels in `sibyl_nn::linalg` exist purely for speed — their
//! inner loops are bounds-check-free so rustc autovectorizes them — so
//! they must change nothing about the numbers: every output element's
//! accumulation chain runs in exactly the order of the retained
//! [`linalg::scalar`] references, making results bit-for-bit identical.
//! These property tests pin that across random shapes, with the dimension
//! palette deliberately straddling every tile boundary
//! (`BATCH_TILE` and `COL_TILE` − 1 / exact / + 1, `ROW_TILE` likewise,
//! 1, and odd primes) so remainder paths are exercised as hard as full
//! tiles, plus the paper network's own layer shapes at replay batch 127
//! and 128.
//!
//! The f16 half of the suite pins the quantized inference fast path: its
//! outputs stay within a fixed error envelope of the f32 path, and on
//! random C51 heads the greedy placement decision (argmax of expected
//! value) survives quantization whenever the f32 decision margin exceeds
//! the quantization noise.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sibyl_nn::linalg::{self, scalar, BATCH_TILE, COL_TILE, ROW_TILE};
use sibyl_nn::{softmax, Activation, Mlp};

/// Dimension palette straddling the tile boundaries: 1, ROW_TILE−1,
/// ROW_TILE, ROW_TILE+1, BATCH_TILE−1, BATCH_TILE, BATCH_TILE+1 (which
/// are also COL_TILE−1 / COL_TILE / COL_TILE+1, see below), odd primes,
/// and a two-tile size.
const DIMS: [usize; 11] = [
    1,
    ROW_TILE - 1,
    ROW_TILE,
    ROW_TILE + 1,
    BATCH_TILE - 1,
    BATCH_TILE,
    BATCH_TILE + 1,
    11,
    13,
    17,
    2 * BATCH_TILE,
];

// The 7 / 8 / 9 entries of `DIMS` straddle both the batch tile and
// `matmul_at_b_acc`'s column tile; if the two ever diverge, the column
// tile's boundaries need entries of their own.
const _: () = assert!(COL_TILE == BATCH_TILE);

/// The paper network's layers as `(rows, cols)` = `(out_dim, in_dim)`:
/// 6-20-30-102, the default 2-action × 51-atom C51 head.
const PAPER_LAYERS: [(usize, usize); 3] = [(102, 30), (30, 20), (20, 6)];

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn random_vec(r: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| r.gen_range(-2.0f32..2.0)).collect()
}

/// Like [`random_vec`], but a quarter of the entries are `+0.0` or
/// `-0.0`.
fn sparse_vec(r: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match r.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => r.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// A prior gradient where a quarter of the entries are `-0.0` and a
/// quarter are subnormal (either sign).
fn edge_prior(r: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match r.gen_range(0u32..4) {
            0 => -0.0,
            1 => {
                let v = f32::from_bits(r.gen_range(1u32..0x0080_0000));
                if r.gen_range(0u32..2) == 0 {
                    v
                } else {
                    -v
                }
            }
            _ => r.gen_range(-2.0f32..2.0),
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The backward kernels (and the forward one they mirror) are
/// bit-identical to the scalar references on the paper network's layer
/// shapes at the default replay batch (128) and one short of it (127,
/// a full-tile run plus a 7-sample remainder).
#[test]
fn paper_shapes_match_scalar_at_replay_batch() {
    for (seed, &(rows, cols)) in PAPER_LAYERS.iter().enumerate() {
        for batch in [127usize, 128] {
            let mut r = rng(seed as u64 * 1_000 + batch as u64);
            let w = random_vec(&mut r, rows * cols);
            let b = random_vec(&mut r, rows);
            let d = sparse_vec(&mut r, batch * rows);
            let xs = random_vec(&mut r, batch * cols);
            let shape = format!("{rows}x{cols} at batch {batch}");

            let (mut tiled, mut reference) = (Vec::new(), Vec::new());
            linalg::matmul_bias(&w, &b, &xs, rows, cols, batch, &mut tiled);
            scalar::matmul_bias(&w, &b, &xs, rows, cols, batch, &mut reference);
            assert_eq!(bits(&tiled), bits(&reference), "matmul_bias {shape}");

            linalg::matmul_transpose(&w, &d, rows, cols, batch, &mut tiled);
            scalar::matmul_transpose(&w, &d, rows, cols, batch, &mut reference);
            assert_eq!(bits(&tiled), bits(&reference), "matmul_transpose {shape}");

            let prior = edge_prior(&mut r, rows * cols);
            let (mut tiled, mut reference) = (prior.clone(), prior);
            linalg::matmul_at_b_acc(&mut tiled, &d, &xs, rows, cols, batch);
            scalar::matmul_at_b_acc(&mut reference, &d, &xs, rows, cols, batch);
            assert_eq!(bits(&tiled), bits(&reference), "matmul_at_b_acc {shape}");
        }
    }
}

proptest! {
    /// Tiled `matmul_bias` is bit-identical to the scalar reference for
    /// every shape in the palette — full tiles, remainders, and the
    /// degenerate single-row/column cases alike.
    #[test]
    fn matmul_bias_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let mut r = rng(seed);
        let w = random_vec(&mut r, rows * cols);
        let b = random_vec(&mut r, rows);
        let xs = random_vec(&mut r, batch * cols);
        let (mut tiled, mut reference) = (Vec::new(), Vec::new());
        linalg::matmul_bias(&w, &b, &xs, rows, cols, batch, &mut tiled);
        scalar::matmul_bias(&w, &b, &xs, rows, cols, batch, &mut reference);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// Tiled `matmul_transpose` is bit-identical to the scalar reference.
    #[test]
    fn matmul_transpose_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let mut r = rng(seed);
        let w = random_vec(&mut r, rows * cols);
        let d = random_vec(&mut r, batch * rows);
        let (mut tiled, mut reference) = (Vec::new(), Vec::new());
        linalg::matmul_transpose(&w, &d, rows, cols, batch, &mut tiled);
        scalar::matmul_transpose(&w, &d, rows, cols, batch, &mut reference);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// Tiled `matmul_at_b_acc` accumulates bit-identically to the scalar
    /// reference — on top of a non-zero prior gradient, so the
    /// accumulation (not just a fresh sum) is pinned. The prior carries
    /// `-0.0` and subnormal entries and a quarter of the deltas are
    /// signed zeros, so some gradient elements only ever add `±0.0` to
    /// those priors: the register block must load and store `dw`
    /// exactly for them to survive.
    #[test]
    fn matmul_at_b_acc_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let mut r = rng(seed);
        let prior = edge_prior(&mut r, rows * cols);
        let d = sparse_vec(&mut r, batch * rows);
        let xs = random_vec(&mut r, batch * cols);
        let mut tiled = prior.clone();
        let mut reference = prior;
        linalg::matmul_at_b_acc(&mut tiled, &d, &xs, rows, cols, batch);
        scalar::matmul_at_b_acc(&mut reference, &d, &xs, rows, cols, batch);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// Tiled `col_sum_acc` accumulates bit-identically to the scalar
    /// reference, again on top of a non-zero prior.
    #[test]
    fn col_sum_acc_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, batch) = (DIMS[ri], DIMS[bi]);
        let mut r = rng(seed);
        let prior = random_vec(&mut r, rows);
        let d = random_vec(&mut r, batch * rows);
        let mut tiled = prior.clone();
        let mut reference = prior;
        linalg::col_sum_acc(&mut tiled, &d, batch);
        scalar::col_sum_acc(&mut reference, &d, batch);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// The f16 fast path stays inside a pinned error envelope of the f32
    /// path on the paper's network shape: per output,
    /// `|y16 − y32| ≤ 1e-2 · (1 + |y32|)`. The envelope is deliberately
    /// loose against binary16's 2⁻¹¹ per-weight rounding — it pins the
    /// path against gross regressions (wrong shadow, stale refresh,
    /// double quantization), not against float-level drift.
    #[test]
    fn f16_inference_error_is_bounded(
        seed in 0u64..300,
        batch in 1usize..12,
    ) {
        let mut r = rng(seed);
        let mut net = Mlp::new(
            &[6, 20, 30, 8],
            Activation::Swish,
            Activation::Linear,
            &mut r,
        );
        net.enable_f16();
        let xs = random_vec(&mut r, batch * 6);
        let y32 = net.infer_batch(&xs, batch);
        let y16 = net.infer_batch_f16(&xs, batch);
        prop_assert_eq!(y16.len(), y32.len());
        for (a, b) in y16.iter().zip(&y32) {
            prop_assert!(
                (a - b).abs() <= 1e-2 * (1.0 + b.abs()),
                "f16 {} vs f32 {}",
                a,
                b
            );
        }
    }

    /// Greedy C51 placement decisions survive quantization: on random C51
    /// heads (per-action softmax over atoms, expected value over the
    /// support), the f16 argmax equals the f32 argmax whenever the f32
    /// decision margin (top-2 Q-value gap) exceeds the quantization
    /// noise floor. Near-ties are allowed to flip — the serving golden
    /// test separately pins that zero flips occur on the reference trace.
    #[test]
    fn f16_argmax_matches_on_random_c51_heads(
        seed in 0u64..300,
        n_actions in 2usize..4,
        n_atoms in 2usize..12,
    ) {
        let mut r = rng(seed);
        let mut net = Mlp::new(
            &[6, 20, 30, n_actions * n_atoms],
            Activation::Swish,
            Activation::Linear,
            &mut r,
        );
        net.enable_f16();
        let x = random_vec(&mut r, 6);
        let logits32 = net.infer_batch(&x, 1);
        let logits16 = net.infer_batch_f16(&x, 1);

        // Expected value per action over the C51 support, mirroring the
        // agent's ValueHead::best_action.
        let (v_min, v_max) = (-1.0f32, 4.0f32);
        let dz = (v_max - v_min) / (n_atoms - 1) as f32;
        let q_values = |logits: &[f32]| -> Vec<f32> {
            let mut probs = Vec::new();
            (0..n_actions)
                .map(|a| {
                    softmax(&logits[a * n_atoms..(a + 1) * n_atoms], &mut probs);
                    probs
                        .iter()
                        .enumerate()
                        .map(|(i, p)| p * (v_min + i as f32 * dz))
                        .sum()
                })
                .collect()
        };
        let q32 = q_values(&logits32);
        let q16 = q_values(&logits16);
        let best32 = sibyl_nn::argmax(&q32).expect("non-empty head");
        let best16 = sibyl_nn::argmax(&q16).expect("non-empty head");

        if best16 != best32 {
            // A flip is only acceptable when the f32 decision was a
            // near-tie: the runner-up sat within the quantization noise.
            let mut sorted = q32.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite Q-values"));
            let margin = sorted[0] - sorted[1];
            prop_assert!(
                margin < 5e-2,
                "argmax flipped on a clear margin: q32={:?} q16={:?} margin={}",
                q32,
                q16,
                margin
            );
        }
    }
}
