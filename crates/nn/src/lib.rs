//! # sibyl-nn
//!
//! Minimal neural-network substrate for the Sibyl reproduction.
//!
//! The Sibyl paper (ISCA 2022) uses a tiny feed-forward network — two hidden
//! layers of 20 and 30 neurons with swish activations, roughly 780 weights —
//! trained online with stochastic gradient descent. The paper builds on
//! TF-Agents; this crate implements the same building blocks from scratch so
//! the whole system is self-contained:
//!
//! - [`Dense`] fully-connected layers with configurable [`Activation`]
//!   (including the paper's swish),
//! - [`Mlp`] multi-layer perceptrons with exact backpropagation,
//! - [`Rnn`] a small Elman recurrent network with truncated
//!   backpropagation-through-time (used by the RNN-HSS baseline adapted
//!   from Kleio),
//! - [`Sgd`]/[`Adam`] optimizers behind the [`Optimizer`] trait,
//! - [`loss`] functions (MSE, softmax cross-entropy) and [`softmax`]
//!   utilities used by the C51 categorical head,
//! - [`half`] IEEE 754 half-precision conversion used to account for the
//!   paper's 16-bit weight storage (§10.2).
//!
//! Backpropagation is verified against finite differences by property tests.
//!
//! ## Example
//!
//! ```rust
//! use sibyl_nn::{Activation, Mlp, Sgd};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // The paper's network shape: 6 inputs, hidden 20 and 30, 2 outputs.
//! let mut net = Mlp::new(&[6, 20, 30, 2], Activation::Swish, Activation::Linear, &mut rng);
//! let mut sgd = Sgd::new(1e-2);
//! // One supervised step towards a fixed target.
//! let x = [0.1, 0.5, -0.3, 0.8, 0.0, 1.0];
//! let target = [1.0, 0.0];
//! for _ in 0..500 {
//!     let y = net.forward(&x);
//!     let dl: Vec<f32> = y.iter().zip(&target).map(|(y, t)| 2.0 * (y - t)).collect();
//!     net.zero_grad();
//!     net.backward(&dl);
//!     net.apply_grads(&mut sgd, 1.0);
//! }
//! let y = net.forward(&x);
//! assert!((y[0] - 1.0).abs() < 0.05 && y[1].abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
mod dense;
pub mod half;
pub mod init;
pub mod linalg;
pub mod loss;
mod mlp;
mod optim;
mod rnn;

pub use activation::Activation;
pub use dense::Dense;
pub use mlp::{mean_params, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
pub use rnn::Rnn;

/// Computes a numerically stable softmax of `logits` into `out`.
///
/// `out` is cleared and refilled with `logits.len()` probabilities. An empty
/// input produces an empty output. The result sums to 1 (up to
/// floating-point error).
///
/// # Examples
///
/// ```
/// let mut p = Vec::new();
/// sibyl_nn::softmax(&[1.0, 1.0], &mut p);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(logits.len(), 0.0);
    softmax_into(logits, out);
}

/// The slice form of [`softmax`]: overwrites `out` with the softmax of
/// `logits`, allocating nothing, so hot loops such as the C51 head's
/// batched gradient can run it on reused scratch rows. [`softmax`]
/// delegates here, so the two agree bit for bit.
///
/// # Panics
///
/// Panics if `out.len() != logits.len()`.
///
/// # Examples
///
/// ```
/// let mut p = [0.0f32; 2];
/// sibyl_nn::softmax_into(&[1.0, 1.0], &mut p);
/// assert_eq!(p, [0.5, 0.5]);
/// ```
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), logits.len(), "softmax_into: length mismatch");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = (l - max).exp();
        sum += e;
        *o = e;
    }
    for p in out.iter_mut() {
        *p /= sum;
    }
}

/// Returns the index of the maximum element, breaking ties towards the
/// lowest index. Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(sibyl_nn::argmax(&[0.1, 0.7, 0.2]), Some(1));
/// assert_eq!(sibyl_nn::argmax(&[]), None);
/// ```
pub fn argmax(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut out = Vec::new();
        softmax(&[0.5, -1.0, 3.0, 0.0], &mut out);
        let s: f32 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut out = Vec::new();
        softmax(&[1000.0, 1000.0], &mut out);
        assert!((out[0] - 0.5).abs() < 1e-6);
        assert!(out.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn softmax_empty_input() {
        let mut out = vec![1.0];
        softmax(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 0.0]), Some(0));
    }

    #[test]
    fn argmax_single() {
        assert_eq!(argmax(&[42.0]), Some(0));
    }
}
