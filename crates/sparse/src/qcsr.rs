//! Integer (quantized) CSR values and the integer sparse × dense product.
//!
//! Quantized message passing (Theorem 1 of the paper) evaluates
//! `Q_a(A) · Q_x(X)` where both operands hold small integers. Values are
//! stored as `i32` regardless of the logical bit-width (2/4/8/16 bits) —
//! hardware would pack them, but the *numerical* behaviour only depends on
//! the clipping range, which the quantizer enforces.
//!
//! There is one row kernel, [`spmm_int_with`]. It accumulates each output
//! row in `i32` when a static bound proves every partial sum fits (for
//! 8-bit codes, rows up to ~130k non-zeros), else in `i64`, and hands the
//! finished row to a per-row [`RowEpilogue`] while it is still in L1.
//! [`spmm_int`] is that kernel with a widening epilogue; Theorem 1's
//! `quantized_spmm` (in `mixq-core`) fuses its zero-point correction and
//! requantization there, so no `rows × cols` accumulator matrix is ever
//! materialized.

use crate::csr::CsrMatrix;

/// A CSR matrix whose stored values are quantized integers.
///
/// The structure (row pointers / column indices) is shared semantics with
/// [`CsrMatrix`]; only the value type differs. `bits` records the logical
/// bit-width so cost models can account for it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantCsr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<i32>,
    bits: u8,
}

impl QuantCsr {
    /// Quantizes the values of `a` with `f`, keeping its sparsity structure.
    pub fn from_csr(a: &CsrMatrix, bits: u8, mut f: impl FnMut(usize, usize, f32) -> i32) -> Self {
        let mut values = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                values.push(f(r, c, v));
            }
        }
        Self {
            rows: a.rows(),
            cols: a.cols(),
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            values,
            bits,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn bits(&self) -> u8 {
        self.bits
    }

    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, i32)> + '_ {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Largest number of non-zeros in any row — the worst-case term count
    /// of one accumulator in [`spmm_int`], used by the inference engine's
    /// a-priori saturation analysis.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows)
            .map(|r| self.row_ptr[r + 1] - self.row_ptr[r])
            .max()
            .unwrap_or(0)
    }
}

/// Accumulator of the integer kernels: `i32` when a static bound proves
/// every partial sum fits (twice the SIMD lanes, half the traffic), else
/// `i64`. Both are exact, so the choice is invisible numerically.
pub trait IntAcc:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + std::ops::AddAssign
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + Into<i64>
{
    /// Converts one `i32` code; exact for every code the dispatch routes here.
    fn from_code(v: i32) -> Self;
}

impl IntAcc for i32 {
    #[inline(always)]
    fn from_code(v: i32) -> Self {
        v
    }
}

impl IntAcc for i64 {
    #[inline(always)]
    fn from_code(v: i32) -> Self {
        v as i64
    }
}

/// Per-row epilogue of [`spmm_int_with`]: turns one finished accumulator row
/// into one output row, while that row is still hot in L1.
///
/// A trait rather than a closure because the method is generic over the
/// accumulator the dispatch picked.
pub trait RowEpilogue<T>: Sync {
    /// Writes output row `r` from `acc[j] = Σ_c Q_a(A)_{r,c}·x[c,j]` and the
    /// row's code sum `row_sum = Σ_c Q_a(A)_{r,c}` (always `i64`: it is not
    /// covered by the accumulator bound when `x` is all zero).
    fn finish<A: IntAcc>(&self, r: usize, acc: &[A], row_sum: i64, out: &mut [T]);
}

/// The plain widening epilogue of [`spmm_int`].
struct Widen;

impl RowEpilogue<i64> for Widen {
    #[inline(always)]
    fn finish<A: IntAcc>(&self, _r: usize, acc: &[A], _row_sum: i64, out: &mut [i64]) {
        for (o, &v) in out.iter_mut().zip(acc) {
            *o = v.into();
        }
    }
}

/// Integer sparse × dense product `Y = Q_a(A) · Q_x(X)`, returned in `i64`.
/// `x` is row-major with `x_cols` columns. See [`spmm_int_with`] for the
/// schedule and the accumulator dispatch.
pub fn spmm_int(a: &QuantCsr, x: &[i32], x_cols: usize) -> Vec<i64> {
    spmm_int_with(a, x, x_cols, &Widen)
}

/// The integer SpMM row kernel with a fused per-row epilogue: accumulates
/// row `r` of `Q_a(A) · Q_x(X)` (and its code sum) into one scratch row, then
/// hands both to `ep`, which writes output row `r`. No `rows × x_cols`
/// intermediate exists and no second pass runs.
///
/// Output rows are partitioned across the `mixq-parallel` runtime at
/// nnz-balanced boundaries; integer accumulation is associative, so the
/// result is exact at any thread count and under any row partition.
///
/// When the static per-row bound `max_row_nnz × max|a| × max|x|` fits in
/// `i32` — which every prefix of every row's accumulation then also
/// satisfies — the rows accumulate in `i32`, otherwise in `i64`. The
/// telemetry counters `qcsr.spmm.i32_path` / `qcsr.spmm.i64_path` record
/// which one ran.
pub fn spmm_int_with<T: Send + Copy + Default>(
    a: &QuantCsr,
    x: &[i32],
    x_cols: usize,
    ep: &impl RowEpilogue<T>,
) -> Vec<T> {
    assert_eq!(
        x.len(),
        a.cols * x_cols,
        "spmm_int: dense operand has wrong size"
    );
    let t0 = mixq_telemetry::kernel_start();
    let mut y = vec![T::default(); a.rows * x_cols];
    if spmm_fits_i32(a, x) {
        mixq_telemetry::counter_add("qcsr.spmm.i32_path", 1);
        spmm_rows::<i32, T>(a, x, x_cols, ep, &mut y);
    } else {
        mixq_telemetry::counter_add("qcsr.spmm.i64_path", 1);
        spmm_rows::<i64, T>(a, x, x_cols, ep, &mut y);
    }
    mixq_telemetry::kernel_finish("sparse.spmm_int", t0, (a.nnz() * x_cols) as u64);
    y
}

/// The one row loop behind [`spmm_int_with`], monomorphized per accumulator.
fn spmm_rows<A: IntAcc, T: Send + Copy + Default>(
    a: &QuantCsr,
    x: &[i32],
    x_cols: usize,
    ep: &impl RowEpilogue<T>,
    y: &mut [T],
) {
    mixq_parallel::par_row_chunks_mut_balanced(y, a.rows, x_cols, &a.row_ptr, |start, chunk| {
        let mut acc = vec![A::default(); x_cols];
        for (dr, out) in chunk.chunks_mut(x_cols).enumerate() {
            let r = start + dr;
            acc.fill(A::default());
            let mut row_sum = 0i64;
            for i in a.row_ptr[r]..a.row_ptr[r + 1] {
                let c = a.col_idx[i];
                row_sum += a.values[i] as i64;
                let v = A::from_code(a.values[i]);
                let xr = &x[c * x_cols..(c + 1) * x_cols];
                for (o, &xv) in acc.iter_mut().zip(xr) {
                    *o += v * A::from_code(xv);
                }
            }
            ep.finish(r, &acc, row_sum, out);
        }
    });
}

/// `true` iff every intermediate of every row accumulation provably fits in
/// `i32`: each of the ≤ `max_row_nnz` terms is bounded by `max|a|·max|x|`,
/// so every prefix sum is bounded by their product (computed in `i128`, so
/// the check itself cannot overflow). This is the same a-priori analysis the
/// inference engine runs against the 2^62 `i64` limit in `qinfer.rs`, here
/// applied at the `i32` boundary.
fn spmm_fits_i32(a: &QuantCsr, x: &[i32]) -> bool {
    let amax = a
        .values
        .iter()
        .map(|&v| (v as i64).abs())
        .max()
        .unwrap_or(0);
    let xmax = x.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
    let bound = a.max_row_nnz() as i128 * amax as i128 * xmax as i128;
    bound <= i32::MAX as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooEntry;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            2,
            3,
            vec![
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 1.0,
                },
                CooEntry {
                    row: 0,
                    col: 2,
                    val: -2.0,
                },
                CooEntry {
                    row: 1,
                    col: 1,
                    val: 3.0,
                },
            ],
        )
    }

    #[test]
    fn quantizes_with_structure_preserved() {
        let q = QuantCsr::from_csr(&sample(), 8, |_, _, v| v as i32);
        assert_eq!(q.nnz(), 3);
        assert_eq!(q.bits(), 8);
        let row0: Vec<_> = q.row(0).collect();
        assert_eq!(row0, vec![(0, 1), (2, -2)]);
    }

    #[test]
    fn integer_spmm_matches_manual() {
        let q = QuantCsr::from_csr(&sample(), 8, |_, _, v| v as i32);
        // X (3×2) integer
        let x = vec![1, 2, 3, 4, 5, 6];
        let y = spmm_int(&q, &x, 2);
        // row0 = 1*[1,2] + (-2)*[5,6] = [-9, -10]; row1 = 3*[3,4] = [9,12]
        assert_eq!(y, vec![-9, -10, 9, 12]);
    }

    #[test]
    fn max_row_nnz_matches() {
        let q = QuantCsr::from_csr(&sample(), 4, |_, _, v| v as i32);
        assert_eq!(q.max_row_nnz(), 2);
    }

    #[test]
    fn i32_fast_path_boundary_is_exact() {
        // One row of `nnz` entries, all equal to `v`, against an all-`xv`
        // dense operand: the static bound is exactly nnz·|v|·|xv|. Probe the
        // i32 ceiling from both sides; results must be exact either way.
        let build = |nnz: usize, v: f32| {
            let entries: Vec<CooEntry> = (0..nnz)
                .map(|c| CooEntry {
                    row: 0,
                    col: c,
                    val: v,
                })
                .collect();
            let a = CsrMatrix::from_coo(1, nnz, entries);
            QuantCsr::from_csr(&a, 16, |_, _, v| v as i32)
        };
        // 2 · 32767 · 32767 = 2147352578 ≤ i32::MAX → narrow path.
        let q = build(2, 32767.0);
        assert!(spmm_fits_i32(&q, &[32767, 32767]));
        assert_eq!(spmm_int(&q, &[32767, 32767], 1), vec![2 * 32767 * 32767]);
        // 3 terms overflow i32 (3221028867 > i32::MAX) → wide path, exact.
        let q = build(3, 32767.0);
        assert!(!spmm_fits_i32(&q, &[32767, 32767, 32767]));
        assert_eq!(
            spmm_int(&q, &[32767, 32767, 32767], 1),
            vec![3 * 32767 * 32767]
        );
        // Negative extremes count by magnitude: i32::MIN valued entries must
        // not trick the |·| analysis into the narrow path.
        let entries = vec![CooEntry {
            row: 0,
            col: 0,
            val: 0.0,
        }];
        let a = CsrMatrix::from_coo(1, 1, entries);
        let q = QuantCsr::from_csr(&a, 32, |_, _, _| i32::MIN);
        assert!(!spmm_fits_i32(&q, &[2]));
        assert_eq!(spmm_int(&q, &[2], 1), vec![2 * i32::MIN as i64]);
    }

    #[test]
    fn accumulates_without_overflow_in_i64() {
        // 1000 entries of 127 * 127 stays exact in i64.
        let entries: Vec<CooEntry> = (0..1000)
            .map(|c| CooEntry {
                row: 0,
                col: c,
                val: 127.0,
            })
            .collect();
        let a = CsrMatrix::from_coo(1, 1000, entries);
        let q = QuantCsr::from_csr(&a, 8, |_, _, v| v as i32);
        let x = vec![127i32; 1000];
        let y = spmm_int(&q, &x, 1);
        assert_eq!(y[0], 1000 * 127 * 127);
    }
}
