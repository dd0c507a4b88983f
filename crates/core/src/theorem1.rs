//! **Theorem 1** — quantized message passing.
//!
//! Given quantized forms `Q_a(A)` and `Q_x(X)`, the quantized product
//! `Q_y(AX)` can be computed *entirely from integer codes*:
//!
//! `Q_y(AX) = C1 ⊙ Q_a(A)Q_x(X) ⊙ C2 + C3`
//!
//! with `C1 = S_a` (per-row scales of `A`), `C2 = S_x ⊘ S_y` (per-column
//! scales) and `C3` a zero-point correction built from row/column sums of
//! the integer codes. The expensive part — the sparse-dense product — runs
//! on integers; the correction factors are `O(n + f)` vector work.
//!
//! Two implementations are provided:
//!
//! * [`quantized_matmul_dense`] — the fully general form (arbitrary
//!   zero-points on both operands) over dense integer codes, used as the
//!   reference in the equality tests;
//! * [`quantized_spmm`] — the sparse fast path used by the inference
//!   engine. It requires `Z_a = 0` (symmetric quantization of the
//!   adjacency): with an affine zero-point, the integer code of a structural
//!   zero would be `Z_a ≠ 0` and the "sparse" matrix would densify — which
//!   is why the engine quantizes adjacencies symmetrically
//!   (see [`crate::quantize_adjacency`]). It is a single pass: the integer
//!   row kernel of `mixq-sparse` accumulates each row in `i32` when its
//!   static bound allows it (else `i64`), together with the row's code sum,
//!   and the correction below runs on that row while it is still in L1.
//!
//! All correction arithmetic is done in `f64` so the only rounding is the
//! final `⌊·⌉`, making the integer path numerically identical to quantizing
//! the fake-quantized FP product (verified by property tests). The final
//! `clip(⌊v⌉ + Z_y)` clamps `v` to `[qmin − Z_y, qmax − Z_y]` *before*
//! rounding; rounding is monotone and fixes integers, so this is the same
//! code, and the in-range value converts to an integer in SIMD lanes (see
//! `round_clip`).

use mixq_sparse::{spmm_int_with, IntAcc, QuantCsr, RowEpilogue};

/// Quantization vectors for `Y = A·X` (Theorem 1's `{S_a,Z_a}`, `{S_x,Z_x}`,
/// `{S_y,Z_y}`). `A` is quantized per-row, `X` and `Y` per-column. Scalars
/// (per-tensor quantization) are the special case of constant vectors.
#[derive(Debug, Clone)]
pub struct QmpParams {
    pub sa: Vec<f32>,
    pub za: Vec<i32>,
    pub sx: Vec<f32>,
    pub zx: Vec<i32>,
    pub sy: Vec<f32>,
    pub zy: Vec<i32>,
    /// Output clipping range.
    pub y_qmin: i32,
    pub y_qmax: i32,
}

impl QmpParams {
    /// Per-tensor (scalar) parameters broadcast to vectors.
    #[allow(clippy::too_many_arguments)]
    pub fn per_tensor(
        n_rows: usize,
        n_cols: usize,
        sa: f32,
        za: i32,
        sx: f32,
        zx: i32,
        sy: f32,
        zy: i32,
        y_qmin: i32,
        y_qmax: i32,
    ) -> Self {
        Self {
            sa: vec![sa; n_rows],
            za: vec![za; n_rows],
            sx: vec![sx; n_cols],
            zx: vec![zx; n_cols],
            sy: vec![sy; n_cols],
            zy: vec![zy; n_cols],
            y_qmin,
            y_qmax,
        }
    }
}

/// `clip(⌊v⌉ + zy, qmin, qmax)` with ties to even, clamped in the real
/// domain *before* rounding.
///
/// Clamping `v` to the integer bounds `[qmin − zy, qmax − zy]` first gives
/// the same code as rounding first for every `v` whose rounding fits
/// `i64`: rounding is monotone and leaves integers fixed, so
/// `⌊clamp(v, L, H)⌉ = clamp(⌊v⌉, L, H)` for integral `L ≤ H`, and adding
/// `zy` maps `[L, H]` onto `[qmin, qmax]`. NaN takes `clip(zy)` (a
/// saturating cast sends it to 0); ±∞ saturate to `qmin`/`qmax`. The
/// clamped value lies within ±2^33, so [`exact_i64`] can replace the
/// saturating `f64 → i64` cast, which LLVM does not vectorize: the whole
/// epilogue then runs in SIMD lanes.
#[inline(always)]
fn round_clip(v: f64, zy: i32, qmin: i32, qmax: i32) -> i32 {
    let zy = zy as i64;
    let lo = (qmin as i64 - zy) as f64;
    let hi = (qmax as i64 - zy) as f64;
    let v = if v.is_nan() { 0.0 } else { v };
    (exact_i64(v.max(lo).min(hi).round_ties_even()) + zy) as i32
}

/// Converts an integral `r` with `|r| ≤ 2^51` to `i64` exactly. Adding
/// `1.5·2^52` moves `r` into the binade `[2^52, 2^53)`, whose spacing is 1,
/// so the sum is exact and its low mantissa bits hold `r` offset by the
/// shifter's own bit pattern.
#[inline(always)]
fn exact_i64(r: f64) -> i64 {
    const SHIFTER: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    (r + SHIFTER).to_bits() as i64 - SHIFTER.to_bits() as i64
}

/// General (dense) Theorem 1: computes `Q_y(AX)` from dense integer codes
/// `qa` (`n×m`, row-quantized) and `qx` (`m×f`, column-quantized).
///
/// Expanding `Q⁻¹(q) = (q − Z)·S` on both operands:
///
/// `Y[i,j] = Sa_i·Sx_j·( P[i,j] − Zx_j·rowsum(Qa)_i − Za_i·colsum(Qx)_j
///            + m·Za_i·Zx_j )` with `P = Qa·Qx`,
///
/// then `Q_y = clip(⌊Y[i,j]/Sy_j⌉ + Zy_j)`. The row/column sums are the
/// `O(n+f)` precomputed factors of the theorem.
pub fn quantized_matmul_dense(
    qa: &[i32],
    n: usize,
    m: usize,
    qx: &[i32],
    f: usize,
    p: &QmpParams,
) -> Vec<i32> {
    assert_eq!(qa.len(), n * m);
    assert_eq!(qx.len(), m * f);
    assert_eq!(p.sa.len(), n);
    assert_eq!(p.sx.len(), f);

    // Integer product P = Qa·Qx in i64, partitioned by output row.
    let mut prod = vec![0i64; n * f];
    mixq_parallel::par_row_chunks_mut(&mut prod, n, f, |start, chunk| {
        for (di, out) in chunk.chunks_mut(f).enumerate() {
            let i = start + di;
            for k in 0..m {
                let a = qa[i * m + k] as i64;
                if a == 0 {
                    continue;
                }
                let row = &qx[k * f..(k + 1) * f];
                for (o, &x) in out.iter_mut().zip(row.iter()) {
                    *o += a * x as i64;
                }
            }
        }
    });
    // Precomputed factors.
    let row_sum_a: Vec<i64> = (0..n)
        .map(|i| qa[i * m..(i + 1) * m].iter().map(|&v| v as i64).sum())
        .collect();
    let col_sum_x: Vec<i64> = {
        let mut s = vec![0i64; f];
        for k in 0..m {
            for (j, sj) in s.iter_mut().enumerate() {
                *sj += qx[k * f + j] as i64;
            }
        }
        s
    };

    let mut out = vec![0i32; n * f];
    mixq_parallel::par_row_chunks_mut(&mut out, n, f, |start, chunk| {
        for (di, orow) in chunk.chunks_mut(f).enumerate() {
            let i = start + di;
            for (j, o) in orow.iter_mut().enumerate() {
                let corrected =
                    prod[i * f + j] - p.zx[j] as i64 * row_sum_a[i] - p.za[i] as i64 * col_sum_x[j]
                        + (m as i64) * p.za[i] as i64 * p.zx[j] as i64;
                let real = p.sa[i] as f64 * p.sx[j] as f64 * corrected as f64 / p.sy[j] as f64;
                *o = round_clip(real, p.zy[j], p.y_qmin, p.y_qmax);
            }
        }
    });
    out
}

/// Sparse Theorem 1 fast path: `Q_y(AX)` where `A` is a [`QuantCsr`] with
/// **zero zero-point** (`Z_a = 0`, enforced by assertion through `p.za`).
///
/// One pass of the integer SpMM row kernel ([`spmm_int_with`]) with the
/// correction fused into its row loop: each finished accumulator row, still
/// in L1, goes straight through
/// `clip(⌊Sa_i·Sx_j·(P[i,j] − Zx_j·rowsum_i) / Sy_j⌉ + Zy_j)`, with the row
/// sum accumulated alongside the products. No `n×f` intermediate exists.
pub fn quantized_spmm(qa: &QuantCsr, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
    assert!(
        p.za.iter().all(|&z| z == 0),
        "sparse path requires Z_a = 0 (symmetric adjacency)"
    );
    assert_eq!(p.sa.len(), qa.rows());
    assert_eq!(p.sx.len(), f);
    spmm_int_with(qa, qx, f, &Theorem1Rows::new(p, f))
}

/// The fused epilogue of [`quantized_spmm`]: per-column factors widened
/// once per call, so the row loop is pure SIMD arithmetic.
struct Theorem1Rows<'a> {
    sa: &'a [f32],
    sx: Vec<f64>,
    zx: Vec<i64>,
    sy: Vec<f64>,
    zy: &'a [i32],
    qmin: i32,
    qmax: i32,
}

impl<'a> Theorem1Rows<'a> {
    fn new(p: &'a QmpParams, f: usize) -> Self {
        Self {
            sa: &p.sa,
            sx: p.sx[..f].iter().map(|&v| v as f64).collect(),
            zx: p.zx[..f].iter().map(|&v| v as i64).collect(),
            sy: p.sy[..f].iter().map(|&v| v as f64).collect(),
            zy: &p.zy[..f],
            qmin: p.y_qmin,
            qmax: p.y_qmax,
        }
    }
}

impl RowEpilogue<i32> for Theorem1Rows<'_> {
    #[inline(always)]
    fn finish<A: IntAcc>(&self, i: usize, acc: &[A], row_sum: i64, out: &mut [i32]) {
        let f = out.len();
        let (acc, sx, zx, sy, zy) = (
            &acc[..f],
            &self.sx[..f],
            &self.zx[..f],
            &self.sy[..f],
            &self.zy[..f],
        );
        let sa = self.sa[i] as f64;
        for j in 0..f {
            let corrected = acc[j].into() - zx[j] * row_sum;
            let real = sa * sx[j] * corrected as f64 / sy[j];
            out[j] = round_clip(real, zy[j], self.qmin, self.qmax);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_sparse::{CooEntry, CsrMatrix};
    use mixq_tensor::{QuantParams, Rng};

    /// Reference: dequantize the codes (i.e. the fake-quantized values),
    /// multiply in floating point, then quantize the product.
    fn reference(qa: &[i32], n: usize, m: usize, qx: &[i32], f: usize, p: &QmpParams) -> Vec<i32> {
        let af: Vec<f64> = (0..n * m)
            .map(|i| (qa[i] - p.za[i / m]) as f64 * p.sa[i / m] as f64)
            .collect();
        let xf: Vec<f64> = (0..m * f)
            .map(|i| (qx[i] - p.zx[i % f]) as f64 * p.sx[i % f] as f64)
            .collect();
        let mut out = vec![0i32; n * f];
        for i in 0..n {
            for j in 0..f {
                let mut acc = 0f64;
                for k in 0..m {
                    acc += af[i * m + k] * xf[k * f + j];
                }
                out[i * f + j] = round_clip(acc / p.sy[j] as f64, p.zy[j], p.y_qmin, p.y_qmax);
            }
        }
        out
    }

    fn random_case(
        seed: u64,
        za_zero: bool,
    ) -> (Vec<i32>, Vec<i32>, usize, usize, usize, QmpParams) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 2 + rng.gen_range(5);
        let m = 2 + rng.gen_range(5);
        let f = 1 + rng.gen_range(6);
        let (aqmin, aqmax) = QuantParams::int_range(4);
        let (xqmin, xqmax) = QuantParams::int_range(8);
        let qa: Vec<i32> = (0..n * m)
            .map(|_| aqmin + rng.gen_range((aqmax - aqmin + 1) as usize) as i32)
            .collect();
        let qx: Vec<i32> = (0..m * f)
            .map(|_| xqmin + rng.gen_range((xqmax - xqmin + 1) as usize) as i32)
            .collect();
        let p = QmpParams {
            sa: (0..n).map(|_| rng.uniform_in(0.01, 0.5)).collect(),
            za: (0..n)
                .map(|_| {
                    if za_zero {
                        0
                    } else {
                        rng.gen_range(7) as i32 - 3
                    }
                })
                .collect(),
            sx: (0..f).map(|_| rng.uniform_in(0.01, 0.5)).collect(),
            zx: (0..f).map(|_| rng.gen_range(21) as i32 - 10).collect(),
            sy: (0..f).map(|_| rng.uniform_in(0.05, 1.0)).collect(),
            zy: (0..f).map(|_| rng.gen_range(11) as i32 - 5).collect(),
            y_qmin: -128,
            y_qmax: 127,
        };
        (qa, qx, n, m, f, p)
    }

    #[test]
    fn dense_theorem_matches_fp_reference() {
        for seed in 0..50 {
            let (qa, qx, n, m, f, p) = random_case(seed, false);
            let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
            let want = reference(&qa, n, m, &qx, f, &p);
            assert_eq!(got, want, "mismatch at seed {seed}");
        }
    }

    #[test]
    fn sparse_theorem_matches_dense_theorem() {
        for seed in 100..130 {
            let mut rng = Rng::seed_from_u64(seed);
            let (_, qx, n, m, f, p) = random_case(seed, true);
            // Random sparse integer adjacency (≈30 % density).
            let mut entries = Vec::new();
            let mut dense_qa = vec![0i32; n * m];
            for i in 0..n {
                for k in 0..m {
                    if rng.bernoulli(0.3) {
                        let v = rng.gen_range(15) as i32 - 7;
                        if v != 0 {
                            entries.push(CooEntry {
                                row: i,
                                col: k,
                                val: v as f32,
                            });
                            dense_qa[i * m + k] = v;
                        }
                    }
                }
            }
            let csr = CsrMatrix::from_coo(n, m, entries);
            let qcsr = QuantCsr::from_csr(&csr, 4, |_, _, v| v as i32);
            let sparse = quantized_spmm(&qcsr, &qx, f, &p);
            let dense = quantized_matmul_dense(&dense_qa, n, m, &qx, f, &p);
            assert_eq!(sparse, dense, "mismatch at seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "Z_a = 0")]
    fn sparse_path_rejects_nonzero_adjacency_zero_point() {
        let csr = CsrMatrix::from_coo(
            1,
            1,
            vec![CooEntry {
                row: 0,
                col: 0,
                val: 1.0,
            }],
        );
        let qcsr = QuantCsr::from_csr(&csr, 4, |_, _, v| v as i32);
        let mut p = QmpParams::per_tensor(1, 1, 0.1, 0, 0.1, 0, 0.1, 0, -8, 7);
        p.za[0] = 1;
        quantized_spmm(&qcsr, &[1], 1, &p);
    }

    #[test]
    fn identity_quantization_recovers_integer_product() {
        // With all scales 1 and zero-points 0, Theorem 1 is just the
        // integer product (no clipping within range).
        let qa = vec![1, 2, 3, 4]; // 2×2
        let qx = vec![5, 6, 7, 8]; // 2×2
        let p = QmpParams::per_tensor(2, 2, 1.0, 0, 1.0, 0, 1.0, 0, -1000, 1000);
        let got = quantized_matmul_dense(&qa, 2, 2, &qx, 2, &p);
        assert_eq!(got, vec![19, 22, 43, 50]);
    }

    #[test]
    fn output_respects_clipping_range() {
        let (qa, qx, n, m, f, mut p) = random_case(7, false);
        p.y_qmin = -8;
        p.y_qmax = 7;
        let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
        assert!(got.iter().all(|&v| (-8..=7).contains(&v)));
    }

    /// Property: for any random codes and quantization vectors, the
    /// factored integer computation equals quantizing the FP product of
    /// the fake-quantized operands (the theorem's claim). Seeded
    /// exhaustively instead of via proptest (no external dev-deps).
    #[test]
    fn prop_theorem1_exact() {
        for seed in 0..64u64 {
            let (qa, qx, n, m, f, p) = random_case(seed * 157 + 1, false);
            let got = quantized_matmul_dense(&qa, n, m, &qx, f, &p);
            let want = reference(&qa, n, m, &qx, f, &p);
            assert_eq!(got, want, "mismatch at seed {seed}");
        }
    }

    /// A random `n×m` adjacency with `nnz_per_row` entries per row (distinct
    /// columns), codes in `±amax`, as CSR and as dense codes.
    fn random_adjacency(
        rng: &mut Rng,
        n: usize,
        m: usize,
        nnz_per_row: usize,
        amax: i32,
    ) -> (QuantCsr, Vec<i32>) {
        let mut entries = Vec::new();
        let mut dense = vec![0i32; n * m];
        for i in 0..n {
            let start = rng.gen_range(m);
            for d in 0..nnz_per_row.min(m) {
                let k = (start + d) % m;
                let v = rng.gen_range(2 * amax as usize + 1) as i32 - amax;
                entries.push(CooEntry {
                    row: i,
                    col: k,
                    val: v as f32,
                });
                dense[i * m + k] = v;
            }
        }
        let csr = CsrMatrix::from_coo(n, m, entries);
        (QuantCsr::from_csr(&csr, 16, |_, _, v| v as i32), dense)
    }

    #[test]
    fn fused_sparse_theorem_matches_dense_on_both_accumulator_paths() {
        let mut rng = Rng::seed_from_u64(61);
        // (codes' magnitude, entries per row): 8-bit codes over short rows
        // stay within the i32 bound (4 · 127 · 128 ≪ 2^31); 16-bit codes over
        // rows of 40 cross it (40 · 32767 · 32768 > 2^31) and accumulate in
        // i64.
        for (amax, xbits, nnz_per_row) in [(127, 8u8, 4), (32767, 16, 40)] {
            for case in 0..6 {
                let (n, m, f) = (3 + case, 48, 1 + case);
                let (qa, dense_qa) = random_adjacency(&mut rng, n, m, nnz_per_row, amax);
                let (xqmin, xqmax) = QuantParams::int_range(xbits);
                let qx: Vec<i32> = (0..m * f)
                    .map(|_| {
                        if rng.bernoulli(0.3) {
                            xqmin
                        } else {
                            xqmin + rng.gen_range((xqmax - xqmin + 1) as usize) as i32
                        }
                    })
                    .collect();
                let (yqmin, yqmax) = QuantParams::int_range(xbits);
                let p = QmpParams {
                    sa: (0..n).map(|_| rng.uniform_in(1e-4, 0.01)).collect(),
                    za: vec![0; n],
                    sx: (0..f).map(|_| rng.uniform_in(1e-4, 0.01)).collect(),
                    zx: (0..f).map(|_| xqmin + rng.gen_range(64) as i32).collect(),
                    sy: (0..f).map(|_| rng.uniform_in(1e-3, 0.05)).collect(),
                    zy: (0..f).map(|_| rng.gen_range(11) as i32 - 5).collect(),
                    y_qmin: yqmin,
                    y_qmax: yqmax,
                };
                let sparse = quantized_spmm(&qa, &qx, f, &p);
                let dense = quantized_matmul_dense(&dense_qa, n, m, &qx, f, &p);
                assert_eq!(sparse, dense, "amax {amax}, case {case}");
            }
        }
    }

    /// The round-then-clip form of `round_clip`, before the clamp moved
    /// ahead of the rounding.
    fn round_clip_round_first(v: f64, zy: i32, qmin: i32, qmax: i32) -> i32 {
        let q = v.round_ties_even() as i64 + zy as i64;
        q.clamp(qmin as i64, qmax as i64) as i32
    }

    #[test]
    fn clamp_first_round_clip_matches_round_first_form() {
        let mut rng = Rng::seed_from_u64(67);
        let ranges = [
            (-8, 7),
            (-128, 127),
            (0, 255),
            (-32768, 32767),
            (i32::MIN, i32::MAX),
            (0, i32::MAX),
        ];
        for (qmin, qmax) in ranges {
            let mut zys = vec![qmin, qmax, 0, -5, 5, qmin / 2, qmax / 2];
            zys.retain(|z| (qmin..=qmax).contains(z));
            for zy in zys {
                let (lo, hi) = (qmin as i64 - zy as i64, qmax as i64 - zy as i64);
                let mut vs = vec![0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, f64::NAN];
                for edge in [lo, hi] {
                    for d in [-1.5, -1.0, -0.5, -0.49, 0.0, 0.49, 0.5, 1.0, 1.5] {
                        vs.push(edge as f64 + d);
                    }
                }
                // Magnitudes up to 2^62, where the round-first form's
                // `i64` addition still cannot overflow.
                for e in 0..=62 {
                    let mag = (1u64 << e) as f64;
                    vs.push(mag * rng.uniform_in(0.5, 1.0) as f64);
                    vs.push(-mag * rng.uniform_in(0.5, 1.0) as f64);
                }
                vs.extend((0..64).map(|_| rng.normal() as f64 * 300.0));
                for v in vs {
                    assert_eq!(
                        round_clip(v, zy, qmin, qmax),
                        round_clip_round_first(v, zy, qmin, qmax),
                        "v={v} zy={zy} range=[{qmin}, {qmax}]"
                    );
                }
            }
        }
    }
}
