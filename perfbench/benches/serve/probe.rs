//! A probe of the `nn` kernels at the agent's network shape: batched
//! inference at the serving batch size and one batched C51 training
//! pass at the replay batch size, through the public `sibyl_nn` and
//! `Categorical::batch_grad` functions the learner calls.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sibyl_core::{Categorical, StateEncoder};
use sibyl_nn::{Activation, Adam, Mlp};
use sibyl_serve::ServeConfig;

use crate::stats::median;

/// Measured kernel costs.
#[derive(Debug, Clone, Copy)]
pub struct NnProbe {
    /// `Mlp::infer_batch` ns per row at `max_batch` rows.
    pub infer_ns_per_row: f64,
    /// One replay batch through target inference, `forward_batch`,
    /// `batch_grad`, `backward_batch` and an Adam update, ns per sample.
    pub train_ns_per_sample: f64,
}

/// Timed runs per kernel; the median is reported.
const RUNS: usize = 9;

/// Median over [`RUNS`] of the ns per item of `reps` calls of `step`,
/// each covering `items` items, after one untimed warm-up pass.
fn ns_per_item(reps: usize, items: usize, mut step: impl FnMut()) -> f64 {
    for _ in 0..reps {
        step();
    }
    let runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                step();
            }
            start.elapsed().as_nanos() as f64 / (reps * items) as f64
        })
        .collect();
    median(&runs)
}

pub fn run(config: &ServeConfig, seed: u64) -> NnProbe {
    let sibyl = &config.sibyl;
    let devices = config.hss.devices.len();
    let obs_len = StateEncoder::new(sibyl.feature_mask, devices).observation_len();
    let head = Categorical::new(devices, sibyl.n_atoms, sibyl.v_min, sibyl.v_max);
    let dims = [
        obs_len,
        sibyl.hidden_dims[0],
        sibyl.hidden_dims[1],
        head.n_outputs(),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
    let target = net.clone();
    let mut features = |rows: usize| -> Vec<f32> {
        (0..rows * obs_len)
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect()
    };

    let rows = config.max_batch;
    let xs = features(rows);
    let infer_ns_per_row = ns_per_item(256, rows, || {
        black_box(net.infer_batch(black_box(&xs), rows));
    });

    let batch = sibyl.batch_size;
    let obs = features(batch);
    let next_obs = features(batch);
    let actions: Vec<usize> = (0..batch).map(|i| i % devices).collect();
    let rewards: Vec<f32> = (0..batch).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut opt = Adam::new(sibyl.learning_rate);
    let mut grads = Vec::new();
    let mut losses = Vec::new();
    let train_ns_per_sample = ns_per_item(16, batch, || {
        let next_logits = target.infer_batch(black_box(&next_obs), batch);
        net.zero_grad();
        let logits = net.forward_batch(black_box(&obs), batch);
        head.batch_grad(
            &logits,
            &actions,
            &rewards,
            &next_logits,
            sibyl.discount,
            &mut grads,
            &mut losses,
        );
        black_box(net.backward_batch(&grads, batch));
        net.apply_grads(&mut opt, 1.0 / batch as f32);
    });

    NnProbe {
        infer_ns_per_row,
        train_ns_per_sample,
    }
}
