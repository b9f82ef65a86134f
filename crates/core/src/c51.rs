//! Categorical distributional Q-learning (C51, Bellemare et al. 2017).
//!
//! Sibyl uses a Categorical Deep Q-Network "to learn the *distribution*
//! of Q-values, whereas other variants of Deep Q-Networks aim to
//! approximate a single value" (§6.2.1). The network emits `|A| × N`
//! logits; soft-maxing each action's block yields a categorical
//! distribution over a fixed value support `z_0..z_{N−1}`, and
//! `Q(s, a) = Σ z_i · p_i(s, a)`. Training projects the Bellman-updated
//! distribution `r + γ·z` back onto the support and minimizes
//! cross-entropy.

use serde::{Deserialize, Serialize};

use sibyl_nn::{softmax, softmax_into};

/// The categorical value head shared by the training and inference
/// networks.
///
/// # Examples
///
/// ```
/// use sibyl_core::Categorical;
/// let c = Categorical::new(2, 11, 0.0, 10.0);
/// assert_eq!(c.n_outputs(), 22);
/// // Uniform logits -> Q equals the support's mean for both actions.
/// let logits = vec![0.0; 22];
/// let q = c.q_values(&logits);
/// assert!((q[0] - 5.0).abs() < 1e-4);
/// assert!((q[1] - 5.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Categorical {
    n_actions: usize,
    n_atoms: usize,
    v_min: f32,
    v_max: f32,
    dz: f32,
    support: Vec<f32>,
}

impl Categorical {
    /// Creates a head for `n_actions` actions over `n_atoms` atoms
    /// spanning `[v_min, v_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions == 0`, `n_atoms < 2`, or `v_max <= v_min`.
    pub fn new(n_actions: usize, n_atoms: usize, v_min: f32, v_max: f32) -> Self {
        assert!(n_actions > 0, "Categorical: need at least one action");
        assert!(n_atoms >= 2, "Categorical: need at least two atoms");
        assert!(v_max > v_min, "Categorical: v_max must exceed v_min");
        let dz = (v_max - v_min) / (n_atoms - 1) as f32;
        let support = (0..n_atoms).map(|i| v_min + i as f32 * dz).collect();
        Categorical {
            n_actions,
            n_atoms,
            v_min,
            v_max,
            dz,
            support,
        }
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Number of support atoms.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Total network outputs required (`n_actions × n_atoms`).
    pub fn n_outputs(&self) -> usize {
        self.n_actions * self.n_atoms
    }

    /// The fixed value support.
    pub fn support(&self) -> &[f32] {
        &self.support
    }

    /// Softmax distribution of one action's logit block.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()` or `action` is out of
    /// range.
    pub fn action_distribution(&self, logits: &[f32], action: usize) -> Vec<f32> {
        assert_eq!(logits.len(), self.n_outputs(), "logit length mismatch");
        assert!(action < self.n_actions, "action out of range");
        let block = &logits[action * self.n_atoms..(action + 1) * self.n_atoms];
        let mut p = Vec::new();
        softmax(block, &mut p);
        p
    }

    /// Expected value per action: `Q(s, a) = Σ zᵢ pᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()`.
    pub fn q_values(&self, logits: &[f32]) -> Vec<f32> {
        assert_eq!(logits.len(), self.n_outputs(), "logit length mismatch");
        let mut scratch = Vec::new();
        (0..self.n_actions)
            .map(|a| {
                let block = &logits[a * self.n_atoms..(a + 1) * self.n_atoms];
                softmax(block, &mut scratch);
                self.expected_value(&scratch)
            })
            .collect()
    }

    /// `Σ zᵢ pᵢ` over the support — the one Q expression both
    /// [`Categorical::q_values`] and [`Categorical::batch_grad`] use, so
    /// their greedy choices agree bit for bit.
    fn expected_value(&self, probs: &[f32]) -> f32 {
        probs.iter().zip(&self.support).map(|(p, z)| p * z).sum()
    }

    /// The greedy action under the current logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()`.
    pub fn best_action(&self, logits: &[f32]) -> usize {
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: the support always has n_actions > 0 entries
        sibyl_nn::argmax(&self.q_values(logits)).expect("n_actions > 0")
    }

    /// Projects the Bellman-updated distribution `r + γ·z` (with
    /// next-state distribution `next_probs`) onto the fixed support —
    /// the C51 categorical projection.
    ///
    /// # Panics
    ///
    /// Panics if `next_probs.len() != n_atoms`.
    pub fn project(&self, reward: f32, gamma: f32, next_probs: &[f32]) -> Vec<f32> {
        assert_eq!(
            next_probs.len(),
            self.n_atoms,
            "next distribution length mismatch"
        );
        let mut m = vec![0.0f32; self.n_atoms];
        self.project_into(reward, gamma, next_probs, &mut m);
        m
    }

    /// [`Categorical::project`] into a caller-owned, `n_atoms`-long
    /// buffer (overwritten), so the batched path projects without
    /// allocating.
    fn project_into(&self, reward: f32, gamma: f32, next_probs: &[f32], m: &mut [f32]) {
        m.fill(0.0);
        for (j, &p) in next_probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let tz = (reward + gamma * self.support[j]).clamp(self.v_min, self.v_max);
            let b = (tz - self.v_min) / self.dz;
            let l = b.floor();
            let u = b.ceil();
            let li = l as usize;
            let ui = (u as usize).min(self.n_atoms - 1);
            if li == ui {
                m[li] += p;
            } else {
                m[li] += p * (u - b);
                m[ui] += p * (b - l);
            }
        }
    }

    /// Cross-entropy loss and logit gradient for one sample: the target
    /// distribution applies to `action`'s block; all other blocks get zero
    /// gradient. Writes the full-width gradient into `grad` and returns
    /// the loss.
    ///
    /// # Panics
    ///
    /// Panics on any length/action mismatch.
    pub fn loss_grad(
        &self,
        logits: &[f32],
        action: usize,
        target: &[f32],
        grad: &mut Vec<f32>,
    ) -> f32 {
        assert_eq!(logits.len(), self.n_outputs(), "logit length mismatch");
        assert!(action < self.n_actions, "action out of range");
        assert_eq!(target.len(), self.n_atoms, "target length mismatch");
        grad.clear();
        grad.resize(self.n_outputs(), 0.0);
        let block = &logits[action * self.n_atoms..(action + 1) * self.n_atoms];
        let mut block_grad = Vec::new();
        sibyl_nn::loss::cross_entropy_logits_grad(block, target, &mut block_grad);
        grad[action * self.n_atoms..(action + 1) * self.n_atoms].copy_from_slice(&block_grad);
        sibyl_nn::loss::cross_entropy_logits(block, target)
    }

    /// Batched training gradient: one pass over a replay batch producing
    /// the full row-major `(batch × n_outputs)` `dL/dlogits` matrix in
    /// `grads` and one cross-entropy loss per sample in `losses`.
    ///
    /// Row `i` computes the whole per-sample pipeline — greedy next
    /// action from `next_logits` row `i` ([`Categorical::best_action`]),
    /// its distribution ([`Categorical::action_distribution`]), the C51
    /// projection of `rewards[i] + γ·z` ([`Categorical::project`]), and
    /// [`Categorical::loss_grad`] against `logits` row `i` — with
    /// arithmetic identical to those sequential calls, so a batched
    /// backward pass fed from this matrix is bit-exact against the
    /// per-sample training loop. It does so with one softmax per action
    /// block of `next_logits` (the winning block doubles as the next
    /// distribution) and one softmax of the taken action's block of
    /// `logits` (both the gradient `p − t` and the loss
    /// `−Σ t·ln max(p, 1e-12)` derive from it), into scratch reused
    /// across rows: no per-sample allocation.
    ///
    /// `logits` are the *training* network's outputs for the sampled
    /// observations; `next_logits` the *target* network's outputs for the
    /// next observations (both row-major, `batch` rows).
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `logits`, `next_logits`, `actions`,
    /// and `rewards` disagree, or any action is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_grad(
        &self,
        logits: &[f32],
        actions: &[usize],
        rewards: &[f32],
        next_logits: &[f32],
        gamma: f32,
        grads: &mut Vec<f32>,
        losses: &mut Vec<f32>,
    ) {
        let batch = actions.len();
        let width = self.n_outputs();
        let n = self.n_atoms;
        assert_eq!(logits.len(), batch * width, "logit matrix shape mismatch");
        assert_eq!(
            next_logits.len(),
            batch * width,
            "next-logit matrix shape mismatch"
        );
        assert_eq!(rewards.len(), batch, "reward count mismatch");
        grads.clear();
        grads.resize(batch * width, 0.0);
        losses.clear();
        // Scratch reused across rows: every action's next distribution,
        // their Q-values, and the projected target.
        let mut next_probs = vec![0.0f32; width];
        let mut q = Vec::with_capacity(self.n_actions);
        let mut target = vec![0.0f32; n];
        for (i, (&action, &reward)) in actions.iter().zip(rewards).enumerate() {
            assert!(action < self.n_actions, "action out of range");
            let next_row = &next_logits[i * width..(i + 1) * width];
            q.clear();
            for (block, probs) in next_row.chunks_exact(n).zip(next_probs.chunks_exact_mut(n)) {
                softmax_into(block, probs);
                q.push(self.expected_value(probs));
            }
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: q holds n_actions > 0 entries
            let next_best = sibyl_nn::argmax(&q).expect("n_actions > 0");
            let next_dist = &next_probs[next_best * n..(next_best + 1) * n];
            self.project_into(reward, gamma, next_dist, &mut target);
            let taken = i * width + action * n..i * width + (action + 1) * n;
            let grad = &mut grads[taken.clone()];
            softmax_into(&logits[taken], grad);
            let mut loss = 0.0f32;
            for (g, &t) in grad.iter_mut().zip(&target) {
                if t > 0.0 {
                    loss -= t * g.max(1e-12).ln();
                }
                *g -= t;
            }
            losses.push(loss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn head() -> Categorical {
        Categorical::new(2, 11, 0.0, 10.0)
    }

    /// Whether softmaxing `block` leaves some atom at exactly 0.0.
    fn softmax_zero_atom(block: &[f32]) -> bool {
        let mut p = Vec::new();
        softmax(block, &mut p);
        p.contains(&0.0)
    }

    #[test]
    fn support_spans_range_evenly() {
        let c = head();
        assert_eq!(c.support().len(), 11);
        assert_eq!(c.support()[0], 0.0);
        assert_eq!(c.support()[10], 10.0);
        assert!((c.support()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn q_value_of_point_mass() {
        let c = head();
        // Action 0: all mass at atom 7 (value 7.0); action 1 uniform.
        let mut logits = vec![0.0f32; 22];
        logits[7] = 50.0;
        let q = c.q_values(&logits);
        assert!((q[0] - 7.0).abs() < 1e-3);
        assert!((q[1] - 5.0).abs() < 1e-3);
        assert_eq!(c.best_action(&logits), 0);
    }

    #[test]
    fn projection_of_zero_reward_identity() {
        // γ = 1, r = 0 maps the support onto itself exactly.
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 4 { 1.0 } else { 0.0 }).collect();
        let m = c.project(0.0, 1.0, &probs);
        assert!((m[4] - 1.0).abs() < 1e-6, "{m:?}");
    }

    #[test]
    fn projection_shifts_by_reward() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        // r = 3: atom 0 (value 0) maps to value 3 → atom 3.
        let m = c.project(3.0, 1.0, &probs);
        assert!((m[3] - 1.0).abs() < 1e-6, "{m:?}");
    }

    #[test]
    fn projection_splits_between_atoms() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        // r = 2.5 lands halfway between atoms 2 and 3.
        let m = c.project(2.5, 1.0, &probs);
        assert!((m[2] - 0.5).abs() < 1e-6);
        assert!((m[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn projection_clamps_at_bounds() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 10 { 1.0 } else { 0.0 }).collect();
        // r = 100 would exceed v_max; clamps onto the top atom.
        let m = c.project(100.0, 1.0, &probs);
        assert!((m[10] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn loss_grad_touches_only_chosen_action() {
        let c = head();
        let logits = vec![0.1f32; 22];
        let target: Vec<f32> = (0..11).map(|i| if i == 2 { 1.0 } else { 0.0 }).collect();
        let mut grad = Vec::new();
        let loss = c.loss_grad(&logits, 1, &target, &mut grad);
        assert!(loss > 0.0);
        assert!(
            grad[..11].iter().all(|&g| g == 0.0),
            "action 0 block untouched"
        );
        assert!(
            grad[11..].iter().any(|&g| g != 0.0),
            "action 1 block has gradient"
        );
    }

    /// The per-sample pipeline `batch_grad` must reproduce bit for bit:
    /// `best_action` → `action_distribution` → `project` → `loss_grad`.
    /// Returns the row's loss and gradient as raw bits.
    fn pipeline_bits(
        c: &Categorical,
        row: &[f32],
        action: usize,
        reward: f32,
        next_row: &[f32],
        gamma: f32,
    ) -> (u32, Vec<u32>) {
        let next_best = c.best_action(next_row);
        let next_probs = c.action_distribution(next_row, next_best);
        let target = c.project(reward, gamma, &next_probs);
        let mut grad = Vec::new();
        let loss = c.loss_grad(row, action, &target, &mut grad);
        (loss.to_bits(), grad.iter().map(|v| v.to_bits()).collect())
    }

    /// Asserts every row of `batch_grad`'s output equals
    /// [`pipeline_bits`] on that row.
    fn assert_batch_matches_pipeline(
        c: &Categorical,
        logits: &[f32],
        actions: &[usize],
        rewards: &[f32],
        next_logits: &[f32],
        gamma: f32,
    ) -> Result<(), TestCaseError> {
        let width = c.n_outputs();
        let batch = actions.len();
        let mut grads = vec![f32::NAN; 3];
        let mut losses = vec![f32::NAN; 5];
        c.batch_grad(
            logits,
            actions,
            rewards,
            next_logits,
            gamma,
            &mut grads,
            &mut losses,
        );
        prop_assert_eq!(grads.len(), batch * width);
        prop_assert_eq!(losses.len(), batch);
        for i in 0..batch {
            let rows = i * width..(i + 1) * width;
            let (loss, grad) = pipeline_bits(
                c,
                &logits[rows.clone()],
                actions[i],
                rewards[i],
                &next_logits[rows.clone()],
                gamma,
            );
            prop_assert_eq!(losses[i].to_bits(), loss);
            prop_assert_eq!(
                grads[rows].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                grad
            );
        }
        Ok(())
    }

    #[test]
    fn batch_grad_matches_sequential_pipeline() {
        let c = head();
        let batch = 3;
        let width = c.n_outputs();
        let logits: Vec<f32> = (0..batch * width)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let next_logits: Vec<f32> = (0..batch * width)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let actions = [0usize, 1, 1];
        let rewards = [0.5f32, 3.0, -1.0];
        assert_batch_matches_pipeline(&c, &logits, &actions, &rewards, &next_logits, 0.9)
            .unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    #[should_panic(expected = "logit matrix shape mismatch")]
    fn batch_grad_rejects_ragged_logits() {
        let c = head();
        let mut grads = Vec::new();
        let mut losses = Vec::new();
        c.batch_grad(
            &[0.0; 10],
            &[0, 1],
            &[0.0, 0.0],
            &[0.0; 44],
            0.9,
            &mut grads,
            &mut losses,
        );
    }

    proptest! {
        /// `batch_grad` is bit-identical to the per-sample pipeline on
        /// every head shape (1–4 actions × 2/11/51 atoms) at the drawn
        /// batch size (0, 1, 7 or 128) and discount (0, 0.9 or 1).
        /// Rewards reach 5 beyond each end of the support, so the
        /// projection's clamp fires, and a quarter of the logits sit at
        /// −200, so softmax atoms underflow to exactly 0.0 and take the
        /// projection's `p == 0.0` skip.
        #[test]
        fn batch_grad_matches_pipeline_on_every_shape(
            seed in 0u64..1_000_000,
            bi in 0usize..4,
            gi in 0usize..3,
        ) {
            let batch = [0usize, 1, 7, 128][bi];
            let gamma = [0.0f32, 0.9, 1.0][gi];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut saw_zero_atom = false;
            for n_actions in 1..=4 {
                for n_atoms in [2usize, 11, 51] {
                    let c = Categorical::new(n_actions, n_atoms, -1.0, 4.0);
                    let mut logit = || {
                        if rng.gen_range(0u32..4) == 0 {
                            -200.0
                        } else {
                            rng.gen_range(-6.0f32..6.0)
                        }
                    };
                    let n = batch * c.n_outputs();
                    let logits: Vec<f32> = (0..n).map(|_| logit()).collect();
                    let next_logits: Vec<f32> = (0..n).map(|_| logit()).collect();
                    let actions: Vec<usize> =
                        (0..batch).map(|_| rng.gen_range(0..n_actions)).collect();
                    let rewards: Vec<f32> =
                        (0..batch).map(|_| rng.gen_range(-6.0f32..9.0)).collect();
                    saw_zero_atom |= next_logits
                        .chunks_exact(n_atoms)
                        .any(softmax_zero_atom);
                    assert_batch_matches_pipeline(
                        &c,
                        &logits,
                        &actions,
                        &rewards,
                        &next_logits,
                        gamma,
                    )?;
                }
            }
            prop_assert!(batch == 0 || saw_zero_atom, "no atom underflowed to 0.0");
        }

        /// Projection preserves probability mass.
        #[test]
        fn projection_preserves_mass(
            reward in -5.0f32..15.0,
            gamma in 0.0f32..1.0,
            raw in proptest::collection::vec(0.01f32..1.0, 11),
        ) {
            let c = head();
            let s: f32 = raw.iter().sum();
            let probs: Vec<f32> = raw.iter().map(|x| x / s).collect();
            let m = c.project(reward, gamma, &probs);
            let total: f32 = m.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4, "mass {total}");
            prop_assert!(m.iter().all(|&p| p >= -1e-6));
        }

        /// Q-values always lie within the support range.
        #[test]
        fn q_values_bounded(logits in proptest::collection::vec(-5.0f32..5.0, 22)) {
            let c = head();
            for q in c.q_values(&logits) {
                prop_assert!((0.0..=10.0).contains(&q));
            }
        }
    }
}
