//! Figure 8: BitOPs vs measured inference time of one quantized message-
//! passing layer (integer SpMM via Theorem 1 at INT8/INT16/INT32, plus the
//! FP32 kernel), across graphs of different sizes.
//!
//! The paper times three hardware platforms; this substrate has one CPU and
//! no sub-word SIMD packing, so per-op time is width-independent and the
//! correlation is driven by operation count — analogous to the weakest
//! (AMD, r = 0.59) platform in the paper.
//!
//! Activation codes are drawn uniformly over the full range of the row's
//! precision (INT32 rows use 32-bit activation codes). Adjacency codes are
//! capped at 16 bits by `quantize_csr_symmetric`, so an INT32 row pairs
//! 32-bit activations with a 16-bit adjacency; its BitOPs are still counted
//! at 32 bits, as the paper's model does.

use mixq_bench::{median_ns_per_iter, Table};
use mixq_core::{quantize_csr_symmetric, quantized_spmm, QmpParams};
use mixq_graph::{arxiv_like, citeseer_like, cora_like, products_like, pubmed_like, reddit_like};
use mixq_nn::pearson;
use mixq_sparse::gcn_normalize;
use mixq_tensor::Rng;

fn main() {
    let feat = 64usize;
    let mut t = Table::new(
        "Figure 8 — BitOPs vs inference time, one message-passing layer",
        &["Dataset", "Precision", "GBitOPs", "Time (ms)"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (name, ds) in [
        ("cora", cora_like(1)),
        ("citeseer", citeseer_like(1)),
        ("pubmed", pubmed_like(1)),
        ("arxiv", arxiv_like(1)),
        ("reddit", reddit_like(1)),
        ("products", products_like(1)),
    ] {
        let adj = gcn_normalize(&ds.adj);
        let n = ds.num_nodes();
        let nnz = adj.nnz() as f64;
        let mut rng = Rng::seed_from_u64(7);

        for bits in [8u8, 16, 32] {
            let (qa, sa) = quantize_csr_symmetric(&adj, bits);
            let (qmin, qmax) = mixq_tensor::QuantParams::int_range(bits);
            let span = (qmax as i64 - qmin as i64 + 1) as usize;
            let qx: Vec<i32> = (0..n * feat)
                .map(|_| (qmin as i64 + rng.gen_range(span) as i64) as i32)
                .collect();
            let p = QmpParams::per_tensor(n, feat, sa, 0, 0.01, 3, 0.02, 0, qmin, qmax);
            let ms = median_ns_per_iter(|| {
                std::hint::black_box(quantized_spmm(&qa, &qx, feat, &p));
            }) / 1e6;
            let gbitops = 2.0 * nnz * feat as f64 * bits as f64 / 1e9;
            t.row(&[
                name.into(),
                format!("INT{bits}"),
                format!("{gbitops:.3}"),
                format!("{ms:.2}"),
            ]);
            xs.push(gbitops);
            ys.push(ms);
        }
        // FP32 kernel.
        let x: Vec<f32> = (0..n * feat).map(|_| rng.normal()).collect();
        let ms = median_ns_per_iter(|| {
            std::hint::black_box(adj.spmm(&x, feat));
        }) / 1e6;
        let gbitops = 2.0 * nnz * feat as f64 * 32.0 / 1e9;
        t.row(&[
            name.into(),
            "FP32".into(),
            format!("{gbitops:.3}"),
            format!("{ms:.2}"),
        ]);
        xs.push(gbitops);
        ys.push(ms);
    }
    t.print();
    println!("(adjacency codes are capped at 16 bits: INT32 rows pair 32-bit activation codes with a 16-bit adjacency)");
    println!(
        "Pearson correlation (BitOPs vs time): {:.2}",
        pearson(&xs, &ys)
    );
    println!("(paper: AMD 0.59, Apple M1 0.95, Intel 0.70)");

    if mixq_telemetry::enabled() {
        match mixq_telemetry::write_report("fig8") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
}
