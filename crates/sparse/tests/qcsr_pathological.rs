//! `QuantCsr` on pathological graphs: empty rows, all-isolated-node
//! (zero-nnz) matrices, and single fully-dense rows where
//! `max_row_nnz == cols`. Each structure is driven through the integer
//! SpMM and differentially checked against a dense i64 reference, both at
//! fixed corner cases and over generated graphs with extreme isolation.

use mixq_proptest::{graph, i32_in, usize_in, Config, Gen, GraphConfig, RandomGraph};
use mixq_sparse::{spmm_int, CooEntry, CsrMatrix, QuantCsr};

/// Dense i64 reference for `A · X` over integer codes.
fn dense_spmm_ref(a: &QuantCsr, x: &[i32], f: usize) -> Vec<i64> {
    let mut y = vec![0i64; a.rows() * f];
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            for j in 0..f {
                y[r * f + j] += v as i64 * x[c * f + j] as i64;
            }
        }
    }
    y
}

fn quantize_round(csr: &CsrMatrix) -> QuantCsr {
    QuantCsr::from_csr(csr, 4, |_, _, v| v.round_ties_even() as i32)
}

#[test]
fn all_isolated_graph_produces_zeros() {
    for n in [1usize, 3, 17] {
        let csr = CsrMatrix::from_coo(n, n, vec![]);
        let q = quantize_round(&csr);
        assert_eq!(q.nnz(), 0);
        assert_eq!(q.max_row_nnz(), 0);
        let x = vec![7i32; n * 3];
        assert_eq!(spmm_int(&q, &x, 3), vec![0i64; n * 3]);
    }
}

#[test]
fn zero_rows_between_populated_rows() {
    // Rows 0 and 4 empty, row 2 has two entries, rows 1/3 one each.
    let entries = vec![
        CooEntry {
            row: 1,
            col: 0,
            val: 3.0,
        },
        CooEntry {
            row: 2,
            col: 1,
            val: -2.0,
        },
        CooEntry {
            row: 2,
            col: 4,
            val: 5.0,
        },
        CooEntry {
            row: 3,
            col: 3,
            val: 1.0,
        },
    ];
    let csr = CsrMatrix::from_coo(5, 5, entries);
    let q = quantize_round(&csr);
    let x: Vec<i32> = (0..5 * 2).map(|i| i - 4).collect();
    let y = spmm_int(&q, &x, 2);
    assert_eq!(y, dense_spmm_ref(&q, &x, 2));
    // Empty rows are exactly zero, not merely small.
    assert_eq!(&y[0..2], &[0, 0]);
    assert_eq!(&y[8..10], &[0, 0]);
}

#[test]
fn single_dense_row_max_row_nnz_equals_cols() {
    for n in [1usize, 4, 9] {
        let entries: Vec<CooEntry> = (0..n)
            .map(|c| CooEntry {
                row: 0,
                col: c,
                val: (c as f32) - (n as f32) / 2.0,
            })
            .collect();
        let csr = CsrMatrix::from_coo(n, n, entries);
        let q = quantize_round(&csr);
        assert_eq!(q.max_row_nnz(), q.cols(), "row 0 must be fully dense");
        let x: Vec<i32> = (0..n * 2).map(|i| (i as i32 % 7) - 3).collect();
        assert_eq!(spmm_int(&q, &x, 2), dense_spmm_ref(&q, &x, 2));
    }
}

#[derive(Clone, Debug)]
struct QcsrCase {
    g: RandomGraph,
    f: usize,
    x: Vec<i32>,
}

/// Generated graphs biased hard toward pathology: most nodes isolated, the
/// rest forming hub rows via strong degree skew.
fn qcsr_case() -> Gen<QcsrCase> {
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 24,
        max_degree: 8,
        degree_alpha: 3.0,
        isolated_frac: 0.6,
        self_loops: true,
        val_lo: -7.0,
        val_hi: 7.0,
    };
    graph(cfg).zip(&usize_in(1, 4)).bind(|&(ref g, f)| {
        let n = g.nodes;
        let g = g.clone();
        i32_in(-128, 127)
            .vec_of(n * f, n * f)
            .map(move |x| QcsrCase {
                g: g.clone(),
                f,
                x: x.clone(),
            })
    })
}

#[test]
fn fuzz_qcsr_integer_spmm_matches_dense_reference() {
    Config::new("qcsr_pathological")
        .cases(96)
        .run(&qcsr_case(), |c| {
            let csr = c.g.to_csr();
            let q = quantize_round(&csr);
            assert_eq!(q.rows(), csr.rows());
            assert_eq!(q.nnz(), csr.nnz());
            // Structural accessors agree with a per-row recount.
            let max_nnz = (0..q.rows()).map(|r| q.row(r).count()).max().unwrap_or(0);
            assert_eq!(q.max_row_nnz(), max_nnz);
            // Integer SpMM is exactly the dense contraction.
            assert_eq!(
                spmm_int(&q, &c.x, c.f),
                dense_spmm_ref(&q, &c.x, c.f),
                "nodes={} nnz={} f={}",
                c.g.nodes,
                q.nnz(),
                c.f
            );
        });
}

#[test]
fn duplicate_coo_entries_sum_before_quantization() {
    let entries = vec![
        CooEntry {
            row: 0,
            col: 1,
            val: 1.4,
        },
        CooEntry {
            row: 0,
            col: 1,
            val: 1.4,
        },
        CooEntry {
            row: 0,
            col: 1,
            val: 1.4,
        },
    ];
    let csr = CsrMatrix::from_coo(2, 2, entries);
    assert_eq!(csr.nnz(), 1);
    let q = quantize_round(&csr);
    // 3 × 1.4 sums to 4.2 in f32 and rounds to 4 — not 3 × round(1.4).
    assert_eq!(q.values(), &[4]);
}
