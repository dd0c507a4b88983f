//! The paper's pipeline as a user runs it — relaxed search → QAT →
//! snapshot + `prepare` → integer inference — next to its FP32 counterpart,
//! on one generated graph per workload.

use std::time::Instant;

use mixq_core::{
    gcn_cost_model, gcn_schema, quantize_csr_symmetric, quantized_spmm, search_gcn_bits,
    BitAssignment, GcnSnapshot, QGcnNet, QTensor, QmpParams, QuantKind, QuantizedGcn, SearchConfig,
};
use mixq_graph::{arxiv_like, products_like, NodeDataset};
use mixq_nn::{
    train_node, Binding, Fwd, GcnNet, NodeBundle, NodeNet, ParamSet, TrainConfig, TrainReport,
};
use mixq_sparse::{gcn_normalize, spmm_int, CsrMatrix, QuantCsr};
use mixq_tensor::{Matrix, MixqResult, QuantParams, Rng, Tape, Var};

use crate::trace::Tracer;

/// Hidden width of the 2-layer GCN on every workload.
pub const HIDDEN: usize = 64;
/// Epochs of the `train_node` calls that train the serving nets. Long
/// enough that test accuracy has settled, so it repeats closely across
/// graph seeds.
pub const TRAIN_EPOCHS: usize = 40;
/// Epochs of each later timed `train_node` call: short calls spread the
/// epoch samples over the whole run instead of a few windows.
pub const TIMED_EPOCHS: usize = 10;
pub const TRAIN_LR: f32 = 0.02;
/// Epochs of each timed relaxed search, and the warm-up epochs among them
/// that skip the α step.
pub const SEARCH_EPOCHS: usize = 4;
pub const SEARCH_WARMUP: usize = 1;
pub const BIT_CHOICES: [u8; 3] = [2, 4, 8];
/// Node dropout of every net (the repository's experiment default).
pub const DROPOUT: f32 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeProducts,
    TrainArxiv,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeProducts, Workload::TrainArxiv];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeProducts => "serve-products",
            Workload::TrainArxiv => "train-arxiv",
        }
    }

    pub fn dataset(self, seed: u64) -> NodeDataset {
        match self {
            Workload::ServeProducts => products_like(seed),
            Workload::TrainArxiv => arxiv_like(seed),
        }
    }
}

/// The fixed mixed assignment the QAT net trains with and the integer
/// engine serves: all 8-bit except `l1.weight` and `l1.lin_out` at 4 bits,
/// so the two layers take differently sized integer paths.
pub fn serving_assignment() -> BitAssignment {
    let mut a = BitAssignment::uniform(gcn_schema(2), 8);
    a.set("l1.weight", 4);
    a.set("l1.lin_out", 4);
    a
}

/// Everything a workload prepares before its first timed call.
pub struct Inputs {
    pub ds: NodeDataset,
    pub bundle: NodeBundle,
    /// `D^{-1/2}(I+A)D^{-1/2}`, the adjacency `prepare` quantizes.
    pub adj_norm: CsrMatrix,
    pub dims: Vec<usize>,
    pub seed: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::with_tracer(workload, seed, &mut None)
    }

    /// Same as [`Inputs::new`], with each step in its own span when a
    /// tracer is given.
    pub fn with_tracer(workload: Workload, seed: u64, tr: &mut Option<&mut Tracer>) -> Self {
        let ds = timed(tr, "graph.generate", || workload.dataset(seed));
        let bundle = timed(tr, "nn.bundle", || NodeBundle::new(&ds));
        let adj_norm = timed(tr, "sparse.gcn_normalize", || gcn_normalize(&ds.adj));
        let dims = vec![ds.feat_dim(), HIDDEN, ds.num_classes()];
        Self {
            ds,
            bundle,
            adj_norm,
            dims,
            seed,
        }
    }

    pub fn train_config(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            lr: TRAIN_LR,
            seed: self.seed,
            // Fixed work per call: no early stop.
            patience: 0,
            ..TrainConfig::default()
        }
    }

    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            epochs: SEARCH_EPOCHS,
            warmup: SEARCH_WARMUP,
            seed: self.seed,
            ..SearchConfig::default()
        }
    }

    /// GBitOPs of one forward pass under `a` (nnz counts the self-loops
    /// `gcn_normalize` adds).
    pub fn gbit_ops(&self, a: &BitAssignment) -> f64 {
        let n = self.ds.num_nodes() as u64;
        gcn_cost_model(a, &self.dims, n, self.adj_norm.nnz() as u64).gbit_ops()
    }

    pub fn search(&self) -> BitAssignment {
        search_gcn_bits(
            &self.ds,
            &self.bundle,
            &self.dims,
            &BIT_CHOICES,
            DROPOUT,
            &self.search_config(),
        )
    }

    pub fn new_qat(&self, a: BitAssignment) -> (QGcnNet, ParamSet) {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x0A7);
        let mut ps = ParamSet::new();
        let net = QGcnNet::new(
            &mut ps,
            &self.dims,
            a,
            QuantKind::Native,
            &self.bundle.degrees,
            DROPOUT,
            &mut rng,
        )
        .expect("serving assignment follows gcn_schema(2)");
        (net, ps)
    }

    pub fn new_fp32(&self) -> (GcnNet, ParamSet) {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xF32);
        let mut ps = ParamSet::new();
        let net = GcnNet::new(&mut ps, &self.dims, DROPOUT, &mut rng);
        (net, ps)
    }

    /// Eval-mode forward on a fresh tape, returning the logits.
    pub fn logits<M: NodeNet>(&self, net: &mut M, ps: &ParamSet) -> Matrix {
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut rng = Rng::seed_from_u64(0);
        let mut f = Fwd {
            tape: &mut tape,
            ps,
            binding: &mut binding,
            rng: &mut rng,
            training: false,
        };
        let x = f.tape.constant(self.bundle.features.clone_pooled());
        let y = net.forward(&mut f, &self.bundle, x);
        let out = tape.value(y).clone();
        tape.recycle();
        out
    }

    /// `snapshot` + `QuantizedGcn::prepare`.
    pub fn prepare(&self, net: &QGcnNet, ps: &ParamSet) -> MixqResult<QuantizedGcn> {
        let snap = net.snapshot(ps)?;
        Ok(QuantizedGcn::prepare(&snap, &self.adj_norm))
    }

    /// Trains one net through `train_node`; returns its report and the
    /// wall time (ms) of each epoch but the last, read off the starts of
    /// consecutive training forward passes.
    pub fn train<M: NodeNet>(
        &self,
        net: &mut M,
        ps: &mut ParamSet,
        epochs: usize,
    ) -> (TrainReport, Vec<f64>) {
        let mut stamped = Stamped {
            inner: net,
            starts: Vec::with_capacity(epochs),
        };
        let cfg = self.train_config(epochs);
        let rep = train_node(&mut stamped, ps, &self.ds, &self.bundle, &cfg);
        let epochs = stamped
            .starts
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        (rep, epochs)
    }
}

/// Passes every call through to `inner`, noting when each training-mode
/// forward pass starts. `train_node` runs one per epoch (evaluation passes
/// are in eval mode), so consecutive starts bound one epoch.
struct Stamped<'a, M> {
    inner: &'a mut M,
    starts: Vec<Instant>,
}

impl<M: NodeNet> NodeNet for Stamped<'_, M> {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        if f.training {
            self.starts.push(Instant::now());
        }
        self.inner.forward(f, b, x)
    }
}

/// Runs `f`, inside a span named `name` when a tracer is given.
pub fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => {
            let id = t.open(name);
            let r = f();
            t.close(id);
            r
        }
        None => f(),
    }
}

// ---- integer-engine stage replay ---------------------------------------------

/// One GCN layer frozen the way `QuantizedGcn::prepare` freezes it.
pub struct ReplayLayer {
    pub wq: QTensor,
    pub bias: Option<Vec<f32>>,
    pub lin_qp: QuantParams,
    pub agg_qp: QuantParams,
    pub qadj: QuantCsr,
    pub adj_scale: f32,
}

/// The integer engine rebuilt from its public stages, so each stage can be
/// timed on its own and the result compared with `QuantizedGcn::infer`.
pub struct Replay {
    pub input_qp: QuantParams,
    pub layers: Vec<ReplayLayer>,
}

/// What one layer of a replayed inference saw, for the counts and the
/// Theorem-1 reference check.
pub struct LayerIo {
    /// Shape (`rows × in`) of the dense product's input codes.
    pub x_shape: (usize, usize),
    /// Output codes of the dense product, the Theorem-1 operand.
    pub h: QTensor,
    /// Theorem-1 output codes.
    pub agg: Vec<i32>,
}

fn theorem1_params(l: &ReplayLayer, h: &QTensor) -> QmpParams {
    QmpParams::per_tensor(
        l.qadj.rows(),
        h.cols,
        l.adj_scale,
        0,
        h.qp.scale,
        h.qp.zero_point,
        l.agg_qp.scale,
        l.agg_qp.zero_point,
        l.agg_qp.qmin,
        l.agg_qp.qmax,
    )
}

impl Replay {
    pub fn prepare(snap: &GcnSnapshot, adj_norm: &CsrMatrix, tr: &mut Option<&mut Tracer>) -> Self {
        let layers = snap
            .layers
            .iter()
            .map(|l| {
                let wq = timed(tr, "core.qinfer.quantize_weights", || {
                    QTensor::quantize(&l.weight, l.w_qp)
                });
                let (qadj, adj_scale) = timed(tr, "sparse.quantize_csr", || {
                    quantize_csr_symmetric(adj_norm, l.adj_bits)
                });
                ReplayLayer {
                    wq,
                    bias: l.bias.clone(),
                    lin_qp: l.lin_qp,
                    agg_qp: l.agg_qp,
                    qadj,
                    adj_scale,
                }
            })
            .collect();
        Self {
            input_qp: snap.input_qp,
            layers,
        }
    }

    /// Integer inference stage by stage; returns the logits and each
    /// layer's operands. With a tracer, `spmm_int` is also timed on its own
    /// (a second call on the same operands, outside the stage sum).
    pub fn infer(&self, features: &Matrix, tr: &mut Option<&mut Tracer>) -> (Matrix, Vec<LayerIo>) {
        let mut x = timed(tr, "core.qinfer.quantize_input", || {
            QTensor::quantize(features, self.input_qp)
        });
        let last = self.layers.len() - 1;
        let mut io = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            let x_shape = (x.rows, x.cols);
            let h = timed(tr, "core.qinfer.int_matmul", || {
                mixq_core::int_matmul_requant(&x, &l.wq, l.bias.as_deref(), l.lin_qp)
            });
            let p = theorem1_params(l, &h);
            let agg = timed(tr, "core.theorem1.spmm", || {
                quantized_spmm(&l.qadj, &h.data, h.cols, &p)
            });
            if tr.is_some() {
                let raw = timed(tr, "sparse.spmm_int", || spmm_int(&l.qadj, &h.data, h.cols));
                std::hint::black_box(raw);
            }
            let mut y = QTensor {
                rows: l.qadj.rows(),
                cols: h.cols,
                data: agg.clone(),
                qp: l.agg_qp,
            };
            if i < last {
                timed(tr, "core.qinfer.relu_dequant", || y.relu_inplace());
            }
            io.push(LayerIo { x_shape, h, agg });
            x = y;
        }
        let logits = timed(tr, "core.qinfer.relu_dequant", || x.dequantize());
        (logits, io)
    }

    /// Multiply-accumulates of one inference, computed from array sizes:
    /// the dense product's `rows·in·out` plus Theorem-1's `nnz·f`.
    pub fn int_macs(&self, io: &[LayerIo]) -> u64 {
        self.layers
            .iter()
            .zip(io)
            .map(|(l, o)| {
                let (rows, inner) = o.x_shape;
                (rows * inner * l.wq.cols + l.qadj.nnz() * o.h.cols) as u64
            })
            .sum()
    }

    /// Bytes the integer kernels read and write in one inference, computed
    /// from array sizes and element widths (i32 codes, i64 accumulators,
    /// usize CSR indices); caches and re-reads are not modelled.
    pub fn bytes_computed(&self, io: &[LayerIo]) -> u64 {
        const I32: usize = 4;
        const I64: usize = 8;
        const IDX: usize = std::mem::size_of::<usize>();
        self.layers
            .iter()
            .zip(io)
            .map(|(l, o)| {
                let (rows, inner) = o.x_shape;
                let f = o.h.cols;
                let n = l.qadj.rows();
                let matmul = (rows * inner + l.wq.data.len() + rows * f) * I32;
                let csr = l.qadj.nnz() * (I32 + IDX) + (n + 1) * IDX;
                let spmm_int = csr + o.h.data.len() * I32 + n * f * I64;
                let epilogue = n * f * (I64 + I32) + n * I64;
                (matmul + spmm_int + epilogue) as u64
            })
            .sum()
    }
}

/// Theorem-1 reference on `rows` of layer `l`: dequantize the adjacency and
/// activation codes to f64, multiply, requantize — the result
/// `quantized_spmm` must reproduce exactly. Returns the mismatching rows.
pub fn theorem1_reference_mismatches(l: &ReplayLayer, io: &LayerIo, rows: &[usize]) -> Vec<usize> {
    let h = &io.h;
    let f = h.cols;
    let p = theorem1_params(l, h);
    rows.iter()
        .copied()
        .filter(|&r| {
            (0..f).any(|j| {
                let acc: f64 = l
                    .qadj
                    .row(r)
                    .map(|(c, a)| {
                        let a = a as f64 * p.sa[r] as f64;
                        let x = (h.data[c * f + j] - p.zx[j]) as f64 * p.sx[j] as f64;
                        a * x
                    })
                    .sum();
                let q = (acc / p.sy[j] as f64).round_ties_even() as i64 + p.zy[j] as i64;
                let want = q.clamp(p.y_qmin as i64, p.y_qmax as i64) as i32;
                io.agg[r * f + j] != want
            })
        })
        .collect()
}

/// Row-wise argmax (first maximum wins).
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|r| {
            let row = m.row_slice(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Share of rows whose argmax agrees between `a` and `b`.
pub fn agreement(a: &Matrix, b: &Matrix) -> f64 {
    let (x, y) = (argmax_rows(a), argmax_rows(b));
    let same = x.iter().zip(&y).filter(|(p, q)| p == q).count();
    same as f64 / x.len().max(1) as f64
}

/// Max-chunk nnz over mean-chunk nnz of the nnz-balanced row split into
/// `pieces` chunks (1.0 is a perfect split).
pub fn nnz_imbalance(adj: &CsrMatrix, pieces: usize) -> f64 {
    let rp = adj.row_ptr();
    let b = mixq_parallel::nnz_balanced_bounds(rp, pieces);
    let chunk: Vec<usize> = b.windows(2).map(|w| rp[w[1]] - rp[w[0]]).collect();
    let max = *chunk.iter().max().expect("pieces >= 1") as f64;
    max / (adj.nnz() as f64 / pieces as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let a = Inputs::new(w, 7);
            let b = Inputs::new(w, 7);
            assert_eq!(a.ds.features, b.ds.features, "{}", w.name());
            assert_eq!(a.ds.adj.row_ptr(), b.ds.adj.row_ptr());
            assert_eq!(a.ds.adj.col_idx(), b.ds.adj.col_idx());
            assert_eq!(a.ds.adj.values(), b.ds.adj.values());
            assert_eq!(a.ds.labels(), b.ds.labels());
            assert_eq!(a.ds.test_idx, b.ds.test_idx);
            assert_eq!(a.adj_norm.values(), b.adj_norm.values());
            let c = Inputs::new(w, 8);
            assert_ne!(a.ds.adj.col_idx(), c.ds.adj.col_idx(), "seed must matter");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("graph-proteins"), None);
    }

    #[test]
    fn serving_assignment_mixes_widths() {
        let a = serving_assignment();
        assert_eq!(a.names, gcn_schema(2));
        assert_eq!(a.get("l1.weight"), 4);
        assert_eq!(a.get("l1.lin_out"), 4);
        assert_eq!(a.get("l0.weight"), 8);
    }

    #[test]
    fn agreement_counts_matching_argmax() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]);
        let b = Matrix::from_vec(3, 2, vec![2.0, 1.0, 1.0, 0.0, 0.5, 0.5]);
        assert!((agreement(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
    }
}
