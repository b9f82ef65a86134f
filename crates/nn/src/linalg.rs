//! Small dense linear-algebra helpers shared by the layer implementations.
//!
//! The batched kernels (`matmul_bias`, `matmul_transpose`,
//! `matmul_at_b_acc`, `col_sum_acc`) are tiled so their inner loops are
//! bounds-check-free and rustc autovectorizes them, under one hard
//! constraint: every output element's floating-point accumulation chain
//! runs in *exactly* the order of the retained [`scalar`] references.
//! f32 addition is not associative, so a kernel may never vectorize
//! *within* one dot product's chain — instead the tiled kernels
//! vectorize *across* independent outputs, which reorders nothing:
//! [`matmul_bias`] and [`matmul_transpose`] (the latter on a once-per-call
//! transpose of `W`) give each SIMD lane one batch sample, and
//! [`matmul_at_b_acc`] holds a [`ROW_TILE`] × [`COL_TILE`] block of the
//! gradient in registers with one lane per gradient column while the
//! batch streams through it. The `kernel_parity` property suite pins
//! bit-for-bit equality against [`scalar`] across random shapes,
//! including every tile-remainder size.

/// Batch samples processed per register tile by [`matmul_bias`] and
/// [`matmul_transpose`]: one output accumulator lane per sample, sized
/// to a 256-bit f32 vector.
pub const BATCH_TILE: usize = 8;

/// Gradient rows per register block of [`matmul_at_b_acc`], so each
/// streamed input slice is reused across several gradient rows.
pub const ROW_TILE: usize = 4;

/// Gradient columns per register block of [`matmul_at_b_acc`]: one 8-lane
/// f32 vector per gradient row.
pub const COL_TILE: usize = 8;

/// The pre-tiling scalar reference kernels, retained verbatim.
///
/// These are the semantics the tiled kernels must reproduce bit for bit
/// — kept as always-compiled public API (not `cfg(test)`) because the
/// `kernel_parity` integration suite compares against them from outside
/// the crate, and `sec10_overhead` measures them at runtime for its
/// before/after ns/MAC columns.
pub mod scalar {
    /// Reference `out = X·Wᵀ + b`: one [`super::dot`] per output element,
    /// r-outer / s-inner (the pre-tiling [`super::matmul_bias`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_bias(
        w: &[f32],
        b: &[f32],
        xs: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(w.len(), rows * cols, "matmul_bias: weight shape mismatch");
        assert_eq!(xs.len(), batch * cols, "matmul_bias: input shape mismatch");
        assert_eq!(b.len(), rows, "matmul_bias: bias length mismatch");
        out.clear();
        out.resize(batch * rows, 0.0);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let br = b[r];
            for s in 0..batch {
                let x = &xs[s * cols..(s + 1) * cols];
                out[s * rows + r] = super::dot(row, x) + br;
            }
        }
    }

    /// Reference `out = D·W`: r-outer / s-middle elementwise accumulation
    /// (the pre-tiling [`super::matmul_transpose`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_transpose(
        w: &[f32],
        d: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            w.len(),
            rows * cols,
            "matmul_transpose: weight shape mismatch"
        );
        assert_eq!(
            d.len(),
            batch * rows,
            "matmul_transpose: delta shape mismatch"
        );
        out.clear();
        out.resize(batch * cols, 0.0);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            for s in 0..batch {
                let dr = d[s * rows + r];
                let orow = &mut out[s * cols..(s + 1) * cols];
                for (o, &wv) in orow.iter_mut().zip(row) {
                    *o += wv * dr;
                }
            }
        }
    }

    /// Reference `dw += Dᵀ·X`: r-outer / s-middle with the gradient row
    /// hoisted (the pre-tiling [`super::matmul_at_b_acc`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_at_b_acc(
        dw: &mut [f32],
        d: &[f32],
        xs: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
    ) {
        assert_eq!(
            dw.len(),
            rows * cols,
            "matmul_at_b_acc: gradient shape mismatch"
        );
        assert_eq!(
            d.len(),
            batch * rows,
            "matmul_at_b_acc: delta shape mismatch"
        );
        assert_eq!(
            xs.len(),
            batch * cols,
            "matmul_at_b_acc: input shape mismatch"
        );
        for r in 0..rows {
            let grow = &mut dw[r * cols..(r + 1) * cols];
            for s in 0..batch {
                let dr = d[s * rows + r];
                let x = &xs[s * cols..(s + 1) * cols];
                for (g, &xv) in grow.iter_mut().zip(x) {
                    *g += dr * xv;
                }
            }
        }
    }

    /// Reference batched bias gradient: one [`super::add_assign`] per
    /// sample (the pre-tiling [`super::col_sum_acc`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn col_sum_acc(db: &mut [f32], d: &[f32], batch: usize) {
        let rows = db.len();
        assert_eq!(d.len(), batch * rows, "col_sum_acc: delta shape mismatch");
        for s in 0..batch {
            super::add_assign(db, &d[s * rows..(s + 1) * rows]);
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Computes `out = W·x + b` where `w` is a row-major `(rows × cols)` matrix.
///
/// `out` is cleared and refilled with `rows` values.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols` or `x.len() != cols` or
/// `b.len() != rows`.
pub fn matvec_bias(w: &[f32], b: &[f32], x: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    assert_eq!(w.len(), rows * cols, "matvec_bias: weight shape mismatch");
    assert_eq!(x.len(), cols, "matvec_bias: input length mismatch");
    assert_eq!(b.len(), rows, "matvec_bias: bias length mismatch");
    out.clear();
    out.reserve(rows);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        out.push(dot(row, x) + b[r]);
    }
}

/// Computes `out = X·Wᵀ + b` for a batch of inputs: `xs` is row-major
/// `(batch × cols)` — one input per row — and `out` is refilled row-major
/// `(batch × rows)`, so each output row is laid out exactly like a
/// [`matvec_bias`] result for the corresponding input.
///
/// Tiled for autovectorization: the batch is processed [`BATCH_TILE`]
/// samples at a time, their inputs packed lane-interleaved
/// (`xt[k·TILE + j]` = feature `k` of sample `j`) so the hot loop is a
/// broadcast weight times one contiguous 8-lane load — one SIMD lane per
/// *sample*. Each output element still accumulates its `cols` products in
/// ascending-`k` order from a `0.0` start, exactly the
/// [`scalar::matmul_bias`] chain, so results are bit-identical to the
/// reference (and to the per-request [`matvec_bias`] path the serving
/// engine's decisions are pinned against); vectorization happens across
/// independent outputs, never within one dot product. The `batch %
/// BATCH_TILE` remainder takes the scalar path.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols`, `xs.len() != batch * cols`, or
/// `b.len() != rows`.
pub fn matmul_bias(
    w: &[f32],
    b: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(w.len(), rows * cols, "matmul_bias: weight shape mismatch");
    assert_eq!(xs.len(), batch * cols, "matmul_bias: input shape mismatch");
    assert_eq!(b.len(), rows, "matmul_bias: bias length mismatch");
    out.clear();
    out.resize(batch * rows, 0.0);
    let full = lane_tiled(w, xs, rows, cols, batch, out, |r, a| a + b[r]);
    for s in full..batch {
        let x = &xs[s * cols..(s + 1) * cols];
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            out[s * rows + r] = dot(row, x) + b[r];
        }
    }
}

/// The lane-per-sample core shared by [`matmul_bias`] and
/// [`matmul_transpose`]: for every full [`BATCH_TILE`] of samples, sets
/// `out[s·rows + r] = finish(r, Σₖ w[r·cols + k]·xs[s·cols + k])`, the
/// sum accumulated in ascending `k` from `0.0`. Returns the number of
/// samples covered (`batch` rounded down to a whole tile); the caller
/// finishes the remainder.
fn lane_tiled(
    w: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    out: &mut [f32],
    finish: impl Fn(usize, f32) -> f32,
) -> usize {
    let full = batch / BATCH_TILE * BATCH_TILE;
    if full == 0 {
        return 0;
    }
    // Lane-interleaved pack buffer, reused across the tiles of one call:
    // packing costs O(cols · TILE) once per tile and is repaid across all
    // `rows` weight rows.
    let mut xt = vec![0.0f32; cols * BATCH_TILE];
    for s0 in (0..full).step_by(BATCH_TILE) {
        let tile = &xs[s0 * cols..(s0 + BATCH_TILE) * cols];
        for (j, x) in tile.chunks_exact(cols).enumerate() {
            for (k, &xv) in x.iter().enumerate() {
                xt[k * BATCH_TILE + j] = xv;
            }
        }
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            // One accumulator lane per sample; `chunks_exact` keeps the
            // inner loop free of bounds checks so it compiles to a
            // broadcast-multiply + vector add per feature.
            let mut acc = [0.0f32; BATCH_TILE];
            for (lanes, &wv) in xt.chunks_exact(BATCH_TILE).zip(row) {
                for (a, &xv) in acc.iter_mut().zip(lanes) {
                    *a += wv * xv;
                }
            }
            for (j, &a) in acc.iter().enumerate() {
                out[(s0 + j) * rows + r] = finish(r, a);
            }
        }
    }
    full
}

/// Computes `out = D·W` for a batch of backpropagated deltas: `d` is
/// row-major `(batch × rows)` — one delta per row — and `out` is refilled
/// row-major `(batch × cols)`, so each output row is laid out exactly like
/// a [`matvec_transpose`] result for the corresponding delta.
///
/// This is the batched input-gradient pass of training, tiled like
/// [`matmul_bias`]: `W` is transposed once per call so each output
/// column's weights are contiguous, and the product runs through the same
/// lane-per-sample tile, minus the bias add — [`BATCH_TILE`] deltas packed
/// lane-interleaved, one SIMD lane per *sample*. Each output element still accumulates its `rows` terms in
/// ascending-`r` order from a `0.0` start — exactly the
/// [`scalar::matmul_transpose`] and [`matvec_transpose`] chain — so the
/// batched backward pass is bit-identical to the per-sample one, which
/// the training parity property tests pin down. The `batch % BATCH_TILE`
/// remainder runs sample-outer, broadcasting each delta over the
/// contiguous output row.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols` or `d.len() != batch * rows`.
pub fn matmul_transpose(
    w: &[f32],
    d: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(
        w.len(),
        rows * cols,
        "matmul_transpose: weight shape mismatch"
    );
    assert_eq!(
        d.len(),
        batch * rows,
        "matmul_transpose: delta shape mismatch"
    );
    out.clear();
    out.resize(batch * cols, 0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    let full = if batch >= BATCH_TILE {
        let mut wt = vec![0.0f32; cols * rows];
        for (r, wrow) in w.chunks_exact(cols).enumerate() {
            for (c, &wv) in wrow.iter().enumerate() {
                wt[c * rows + r] = wv;
            }
        }
        lane_tiled(&wt, d, cols, rows, batch, out, |_, a| a)
    } else {
        0
    };
    let rest = d[full * rows..].chunks_exact(rows);
    for (drow, orow) in rest.zip(out[full * cols..].chunks_exact_mut(cols)) {
        for (wrow, &dr) in w.chunks_exact(cols).zip(drow) {
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += wv * dr;
            }
        }
    }
}

/// Accumulates the weight gradient of a whole batch,
/// `dw += Dᵀ·X`, into a row-major `(rows × cols)` gradient buffer:
/// `d` is row-major `(batch × rows)` deltas, `xs` row-major
/// `(batch × cols)` inputs.
///
/// Equivalent to `batch` successive [`outer_acc`] calls in sample order —
/// and bit-identical to them: for every gradient element the per-sample
/// contributions are added in ascending sample order onto the existing
/// value, exactly the floating-point accumulation sequence the sequential
/// per-sample training loop (and the retained [`scalar::matmul_at_b_acc`]
/// reference) produces. The kernel is register-blocked: a [`ROW_TILE`] ×
/// 8 block of `dw` is loaded into local accumulators, the whole batch
/// streams through it (one broadcast delta times one 8-wide input slice
/// per row and sample), and the block is stored back once. `xs` is
/// copied once per call with its columns zero-padded to a multiple of 8,
/// so every block is full width (the padded lanes are computed and
/// dropped); the `rows % ROW_TILE` remainder uses 1-row blocks.
///
/// # Panics
///
/// Panics if `dw.len() != rows * cols`, `d.len() != batch * rows`, or
/// `xs.len() != batch * cols`.
pub fn matmul_at_b_acc(
    dw: &mut [f32],
    d: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    assert_eq!(
        dw.len(),
        rows * cols,
        "matmul_at_b_acc: gradient shape mismatch"
    );
    assert_eq!(
        d.len(),
        batch * rows,
        "matmul_at_b_acc: delta shape mismatch"
    );
    assert_eq!(
        xs.len(),
        batch * cols,
        "matmul_at_b_acc: input shape mismatch"
    );
    if rows == 0 || cols == 0 || batch == 0 {
        return;
    }
    let padded = cols.div_ceil(COL_TILE) * COL_TILE;
    let mut xp = vec![0.0f32; batch * padded];
    for (prow, x) in xp.chunks_exact_mut(padded).zip(xs.chunks_exact(cols)) {
        prow[..cols].copy_from_slice(x);
    }
    let tiled_rows = rows / ROW_TILE * ROW_TILE;
    for r0 in (0..tiled_rows).step_by(ROW_TILE) {
        at_b_block::<ROW_TILE>(dw, d, &xp, rows, cols, padded, r0);
    }
    for r0 in tiled_rows..rows {
        at_b_block::<1>(dw, d, &xp, rows, cols, padded, r0);
    }
}

/// One `R`-row band of [`matmul_at_b_acc`]: for each 8-column block,
/// load `dw` rows `r0..r0 + R` into registers, add every sample's
/// `d[s][r]·x[s][c]` in ascending `s`, and store the block back.
fn at_b_block<const R: usize>(
    dw: &mut [f32],
    d: &[f32],
    xp: &[f32],
    rows: usize,
    cols: usize,
    padded: usize,
    r0: usize,
) {
    for c0 in (0..padded).step_by(COL_TILE) {
        let width = (cols - c0).min(COL_TILE);
        let mut acc = [[0.0f32; COL_TILE]; R];
        for (i, a) in acc.iter_mut().enumerate() {
            let o = (r0 + i) * cols + c0;
            a[..width].copy_from_slice(&dw[o..o + width]);
        }
        for (x, ds) in xp.chunks_exact(padded).zip(d.chunks_exact(rows)) {
            let x = &x[c0..c0 + COL_TILE];
            let ds = &ds[r0..r0 + R];
            for (a, &dr) in acc.iter_mut().zip(ds) {
                for k in 0..COL_TILE {
                    a[k] += dr * x[k];
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let o = (r0 + i) * cols + c0;
            dw[o..o + width].copy_from_slice(&a[..width]);
        }
    }
}

/// Accumulates per-column sums of a row-major `(batch × rows)` delta
/// matrix into `db` — the batched bias gradient, `db[r] += Σ_s d[s][r]`,
/// with the per-element additions in ascending sample order so the result
/// is bit-identical to `batch` successive [`add_assign`] calls (the
/// retained [`scalar::col_sum_acc`] reference). `chunks_exact` keeps the
/// elementwise inner loop free of bounds checks so it autovectorizes.
///
/// # Panics
///
/// Panics if `d.len() != batch * db.len()`.
pub fn col_sum_acc(db: &mut [f32], d: &[f32], batch: usize) {
    let rows = db.len();
    assert_eq!(d.len(), batch * rows, "col_sum_acc: delta shape mismatch");
    if rows == 0 {
        return;
    }
    for drow in d.chunks_exact(rows) {
        for (b, &dv) in db.iter_mut().zip(drow) {
            *b += dv;
        }
    }
}

/// Computes `out = Wᵀ·d` where `w` is row-major `(rows × cols)`:
/// the gradient w.r.t. the layer input during backpropagation.
///
/// `out` is cleared and refilled with `cols` values.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matvec_transpose(w: &[f32], d: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    assert_eq!(
        w.len(),
        rows * cols,
        "matvec_transpose: weight shape mismatch"
    );
    assert_eq!(d.len(), rows, "matvec_transpose: delta length mismatch");
    out.clear();
    out.resize(cols, 0.0);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let dr = d[r];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += wv * dr;
        }
    }
}

/// Accumulates the outer product `dw += d ⊗ x` into a row-major
/// `(rows × cols)` gradient buffer.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn outer_acc(dw: &mut [f32], d: &[f32], x: &[f32]) {
    let rows = d.len();
    let cols = x.len();
    assert_eq!(dw.len(), rows * cols, "outer_acc: gradient shape mismatch");
    for r in 0..rows {
        let dr = d[r];
        let row = &mut dw[r * cols..(r + 1) * cols];
        for (w, &xv) in row.iter_mut().zip(x) {
            *w += dr * xv;
        }
    }
}

/// Adds `src` element-wise into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Scales every element of `xs` by `k`.
#[inline]
pub fn scale(xs: &mut [f32], k: f32) {
    for x in xs {
        *x *= k;
    }
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn l2_norm(xs: &[f32]) -> f32 {
    xs.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Clips the global L2 norm of a gradient slice to `max_norm`, returning the
/// scaling factor applied (1.0 when no clipping occurred).
///
/// Gradient clipping keeps the online C51 updates stable when the reward
/// scale shifts abruptly (e.g. at workload phase changes).
pub fn clip_l2_norm(xs: &mut [f32], max_norm: f32) -> f32 {
    let norm = l2_norm(xs);
    if norm > max_norm && norm > 0.0 {
        let k = max_norm / norm;
        scale(xs, k);
        k
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matvec_bias_identity() {
        // 2x2 identity times [3, 4] plus bias [1, 1]
        let w = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 1.0];
        let mut out = Vec::new();
        matvec_bias(&w, &b, &[3.0, 4.0], 2, 2, &mut out);
        assert_eq!(out, vec![4.0, 5.0]);
    }

    #[test]
    fn matvec_transpose_matches_manual() {
        // W = [[1, 2], [3, 4]] (rows=2, cols=2); Wᵀ·[1, 1] = [4, 6]
        let w = [1.0, 2.0, 3.0, 4.0];
        let mut out = Vec::new();
        matvec_transpose(&w, &[1.0, 1.0], 2, 2, &mut out);
        assert_eq!(out, vec![4.0, 6.0]);
    }

    #[test]
    fn outer_acc_accumulates() {
        let mut dw = vec![0.0; 4];
        outer_acc(&mut dw, &[1.0, 2.0], &[3.0, 4.0]);
        outer_acc(&mut dw, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(dw, vec![6.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn matmul_bias_rows_match_matvec() {
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]; two stacked inputs.
        let w = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, -0.5];
        let xs = [1.0, 0.0, 0.0, 1.0];
        let mut batched = Vec::new();
        matmul_bias(&w, &b, &xs, 2, 2, 2, &mut batched);
        for s in 0..2 {
            let mut single = Vec::new();
            matvec_bias(&w, &b, &xs[s * 2..(s + 1) * 2], 2, 2, &mut single);
            assert_eq!(&batched[s * 2..(s + 1) * 2], &single[..]);
        }
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn matmul_bias_rejects_ragged_batch() {
        let mut out = Vec::new();
        matmul_bias(&[1.0, 2.0], &[0.0], &[1.0, 2.0, 3.0], 1, 2, 2, &mut out);
    }

    #[test]
    fn matmul_transpose_rows_match_matvec_transpose() {
        // W = [[1, 2, 3], [4, 5, 6]] (rows=2, cols=3); two stacked deltas.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let d = [1.0, 0.5, -1.0, 2.0];
        let mut batched = Vec::new();
        matmul_transpose(&w, &d, 2, 3, 2, &mut batched);
        for s in 0..2 {
            let mut single = Vec::new();
            matvec_transpose(&w, &d[s * 2..(s + 1) * 2], 2, 3, &mut single);
            assert_eq!(&batched[s * 3..(s + 1) * 3], &single[..]);
        }
    }

    #[test]
    fn matmul_at_b_acc_matches_sequential_outer_acc() {
        let d = [1.0, 2.0, -0.5, 3.0]; // batch=2, rows=2
        let xs = [3.0, 4.0, 1.0, -2.0]; // batch=2, cols=2
        let mut batched = vec![0.25; 4]; // pre-existing gradient
        let mut sequential = vec![0.25; 4];
        matmul_at_b_acc(&mut batched, &d, &xs, 2, 2, 2);
        for s in 0..2 {
            outer_acc(
                &mut sequential,
                &d[s * 2..(s + 1) * 2],
                &xs[s * 2..(s + 1) * 2],
            );
        }
        assert_eq!(batched, sequential);
    }

    #[test]
    fn col_sum_acc_matches_sequential_add_assign() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // batch=3, rows=2
        let mut batched = vec![0.5, -0.5];
        let mut sequential = vec![0.5, -0.5];
        col_sum_acc(&mut batched, &d, 3);
        for s in 0..3 {
            add_assign(&mut sequential, &d[s * 2..(s + 1) * 2]);
        }
        assert_eq!(batched, sequential);
    }

    #[test]
    #[should_panic(expected = "delta shape mismatch")]
    fn matmul_at_b_acc_rejects_ragged_delta() {
        let mut dw = vec![0.0; 4];
        matmul_at_b_acc(&mut dw, &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0], 2, 2, 2);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut g = vec![0.1, 0.1];
        let k = clip_l2_norm(&mut g, 10.0);
        assert_eq!(k, 1.0);
        assert_eq!(g, vec![0.1, 0.1]);
    }

    #[test]
    fn clip_shrinks_large_gradients() {
        let mut g = vec![30.0, 40.0]; // norm 50
        clip_l2_norm(&mut g, 5.0);
        assert!((l2_norm(&g) - 5.0).abs() < 1e-4);
    }

    proptest! {
        /// matvec followed by transpose-matvec is consistent with the
        /// scalar quadratic form dᵀ·W·x computed two ways.
        #[test]
        fn quadratic_form_consistency(
            w in proptest::collection::vec(-2.0f32..2.0, 6),
            x in proptest::collection::vec(-2.0f32..2.0, 3),
            d in proptest::collection::vec(-2.0f32..2.0, 2),
        ) {
            let b = vec![0.0; 2];
            let mut wx = Vec::new();
            matvec_bias(&w, &b, &x, 2, 3, &mut wx);
            let lhs = dot(&d, &wx);
            let mut wtd = Vec::new();
            matvec_transpose(&w, &d, 2, 3, &mut wtd);
            let rhs = dot(&wtd, &x);
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }

        /// Clipping never increases the norm and respects the bound.
        #[test]
        fn clip_invariants(mut g in proptest::collection::vec(-10.0f32..10.0, 1..32),
                           max in 0.1f32..20.0) {
            let before = l2_norm(&g);
            clip_l2_norm(&mut g, max);
            let after = l2_norm(&g);
            prop_assert!(after <= before + 1e-4);
            prop_assert!(after <= max + 1e-3);
        }
    }
}
