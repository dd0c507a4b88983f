//! Complete FP32 architectures and the generic training loops.
//!
//! Models implement [`NodeNet`] (full-graph node classification) or
//! [`GraphNet`] (graph classification over block-diagonal batches); the
//! quantized/relaxed architectures in `mixq-core` implement the same traits,
//! so every experiment shares [`train_node`] / [`train_graph`].

use std::path::PathBuf;
use std::sync::Arc;

use mixq_graph::{batch_graphs, GraphDataset, NodeDataset, NodeTargets};
use mixq_sparse::{gcn_normalize, row_normalize};
use mixq_tensor::{Matrix, MixqError, MixqResult, Rng, SpPair, Tape, Var};

use crate::conv::{
    AppnpProp, GatConv, GcnConv, GinConv, SageConv, SgcConv, TagConv, TransformerConv,
};
use crate::driver::EpochDriver;
use crate::layers::{Linear, Mlp};
use crate::metrics::{accuracy, roc_auc_mean};
use crate::param::{Binding, Fwd, ParamSet};

/// Preprocessed views of one node-classification graph: features plus the
/// three adjacency flavours the layer zoo needs, each with its transpose.
pub struct NodeBundle {
    pub features: Matrix,
    /// GCN-normalized `D^{-1/2}(I+A)D^{-1/2}`.
    pub norm: Arc<SpPair>,
    /// Row-normalized `D^{-1}A` (mean aggregator).
    pub mean: Arc<SpPair>,
    /// Raw adjacency.
    pub raw: Arc<SpPair>,
    /// In-degree of each node (drives DQ/A²Q quantizers).
    pub degrees: Vec<usize>,
}

impl NodeBundle {
    pub fn new(ds: &NodeDataset) -> Self {
        Self {
            features: ds.features.clone(),
            norm: SpPair::new(gcn_normalize(&ds.adj)),
            mean: SpPair::new(row_normalize(&ds.adj)),
            degrees: ds.adj.row_degrees(),
            raw: SpPair::new(ds.adj.clone()),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }
}

/// A block-diagonal batch of graphs for graph classification.
pub struct GraphBundle {
    pub features: Matrix,
    pub raw: Arc<SpPair>,
    pub norm: Arc<SpPair>,
    pub offsets: Vec<usize>,
    pub labels: Vec<usize>,
    /// In-degree of each batch node (drives DQ/A²Q quantizers).
    pub degrees: Vec<usize>,
}

impl GraphBundle {
    /// Batches the graphs selected by `idx` into one bundle.
    pub fn from_graphs(ds: &GraphDataset, idx: &[usize]) -> Self {
        let refs: Vec<_> = idx.iter().map(|&i| &ds.graphs[i]).collect();
        let batch = batch_graphs(&refs);
        let labels = idx.iter().map(|&i| ds.labels[i]).collect();
        Self {
            norm: SpPair::new(gcn_normalize(&batch.adj)),
            degrees: batch.adj.row_degrees(),
            raw: SpPair::new(batch.adj),
            features: batch.features,
            offsets: batch.offsets,
            labels,
        }
    }

    pub fn num_graphs(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// A node-classification network: features in, per-node logits out.
pub trait NodeNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var;
}

/// A graph-classification network: batch in, per-graph logits out.
pub trait GraphNet {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, x: Var) -> Var;
}

// ---- node architectures ----------------------------------------------------

/// Multi-layer GCN with ReLU and dropout between layers.
pub struct GcnNet {
    pub convs: Vec<GcnConv>,
    pub dropout: f32,
}

impl GcnNet {
    /// `dims = [in, h…, classes]`.
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| GcnConv::new(ps, w[0], w[1], rng))
            .collect();
        Self { convs, dropout }
    }

    /// MAC count of one forward pass (Fig. 1's x-axis; ×2 gives OPs).
    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| c.lin.macs(n as usize) + nnz * c.lin.out_dim as u64)
            .sum()
    }
}

impl NodeNet for GcnNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for (i, conv) in self.convs.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = conv.forward(f, &b.norm, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// Multi-layer GraphSAGE (mean aggregator).
pub struct SageNet {
    pub convs: Vec<SageConv>,
    pub dropout: f32,
}

impl SageNet {
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| SageConv::new(ps, w[0], w[1], rng))
            .collect();
        Self { convs, dropout }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| {
                c.lin_root.macs(n as usize)
                    + c.lin_neigh.macs(n as usize)
                    + nnz * c.lin_root.in_dim as u64
            })
            .sum()
    }
}

impl NodeNet for SageNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for (i, conv) in self.convs.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = conv.forward(f, &b.mean, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// Multi-layer GIN for node tasks.
pub struct GinNet {
    pub convs: Vec<GinConv>,
    pub dropout: f32,
}

impl GinNet {
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| GinConv::new(ps, w[0], w[1].max(w[0] / 2), w[1], false, rng))
            .collect();
        Self { convs, dropout }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| c.mlp.macs(n as usize) + nnz * c.mlp.layers[0].in_dim as u64)
            .sum()
    }
}

impl NodeNet for GinNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for i in 0..self.convs.len() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = self.convs[i].forward(f, &b.raw, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// Multi-layer TAGCN (K = 2 hops per layer).
pub struct TagNet {
    pub convs: Vec<TagConv>,
    pub dropout: f32,
}

impl TagNet {
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| TagConv::new(ps, w[0], w[1], 2, rng))
            .collect();
        Self { convs, dropout }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| {
                let hops = (c.lins.len() - 1) as u64;
                c.lins.iter().map(|l| l.macs(n as usize)).sum::<u64>()
                    + hops * nnz * c.lins[0].in_dim as u64
            })
            .sum()
    }
}

impl NodeNet for TagNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for (i, conv) in self.convs.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = conv.forward(f, &b.norm, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// Multi-layer GAT (single attention head per layer).
pub struct GatNet {
    pub convs: Vec<GatConv>,
    pub dropout: f32,
}

impl GatNet {
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| GatConv::new(ps, w[0], w[1], rng))
            .collect();
        Self { convs, dropout }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| {
                // xW, the two attention projections, and the weighted sum
                // over edges (incl. self-loops).
                c.lin.macs(n as usize)
                    + 2 * n * c.lin.out_dim as u64
                    + (nnz + n) * c.lin.out_dim as u64
            })
            .sum()
    }
}

impl NodeNet for GatNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for i in 0..self.convs.len() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = self.convs[i].forward(f, &b.raw, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// Multi-layer UniMP-style transformer network.
pub struct UniMpNet {
    pub convs: Vec<TransformerConv>,
    pub dropout: f32,
}

impl UniMpNet {
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        let convs = dims
            .windows(2)
            .map(|w| TransformerConv::new(ps, w[0], w[1], rng))
            .collect();
        Self { convs, dropout }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.convs
            .iter()
            .map(|c| {
                // Four projections + per-edge attention dot + weighted sum.
                4 * c.w_q.macs(n as usize) + 2 * (nnz + n) * c.w_q.out_dim as u64
            })
            .sum()
    }
}

impl NodeNet for UniMpNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        let last = self.convs.len() - 1;
        for i in 0..self.convs.len() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = self.convs[i].forward(f, &b.raw, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// SGC: `depth` propagation hops, one linear transform.
pub struct SgcNet {
    pub conv: SgcConv,
}

impl SgcNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        classes: usize,
        depth: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            conv: SgcConv::new(ps, in_dim, classes, depth, rng),
        }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        self.conv.lin.macs(n as usize) + self.conv.k as u64 * nnz * self.conv.lin.in_dim as u64
    }
}

impl NodeNet for SgcNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        self.conv.forward(f, &b.norm, x)
    }
}

/// APPNP: MLP predictor followed by personalized-PageRank propagation.
pub struct AppnpNet {
    pub mlp: Mlp,
    pub prop: AppnpProp,
    pub dropout: f32,
}

impl AppnpNet {
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        k: usize,
        alpha: f32,
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        Self {
            mlp: Mlp::new(ps, dims, false, rng),
            prop: AppnpProp { k, alpha },
            dropout,
        }
    }

    pub fn macs(&self, n: u64, nnz: u64) -> u64 {
        let classes = self.mlp.layers.last().unwrap().out_dim as u64;
        self.mlp.macs(n as usize) + self.prop.k as u64 * nnz * classes
    }
}

impl NodeNet for AppnpNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        x = f.tape.dropout(x, self.dropout, f.rng, f.training);
        let h = self.mlp.forward(f, x);
        self.prop.forward(f, &b.norm, h)
    }
}

// ---- graph architectures -----------------------------------------------------

/// The paper's graph-classification architecture: five GIN layers (2-layer
/// MLPs), global max pooling (chosen to avoid quantized-sum overflow, §5.4),
/// then a two-layer ReLU classifier.
pub struct GinGraphNet {
    pub convs: Vec<GinConv>,
    pub head1: Linear,
    pub head2: Linear,
    pub dropout: f32,
}

impl GinGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> Self {
        let mut convs = Vec::with_capacity(layers);
        for i in 0..layers {
            let ind = if i == 0 { in_dim } else { hidden };
            convs.push(GinConv::new(ps, ind, hidden, hidden, true, rng));
        }
        Self {
            convs,
            head1: Linear::new(ps, hidden, hidden, rng),
            head2: Linear::new(ps, hidden, classes, rng),
            dropout: 0.3,
        }
    }
}

impl GraphNet for GinGraphNet {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, mut x: Var) -> Var {
        for i in 0..self.convs.len() {
            x = self.convs[i].forward(f, &b.raw, x);
            x = f.tape.relu(x);
        }
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        let h = self.head1.forward(f, pooled);
        let h = f.tape.relu(h);
        let h = f.tape.dropout(h, self.dropout, f.rng, f.training);
        self.head2.forward(f, h)
    }
}

/// GCN-based graph classifier used for CSL (Table 9): `layers` GCN
/// convolutions, max pooling, linear head.
pub struct GcnGraphNet {
    pub convs: Vec<GcnConv>,
    pub head: Linear,
}

impl GcnGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> Self {
        let mut convs = Vec::with_capacity(layers);
        for i in 0..layers {
            let ind = if i == 0 { in_dim } else { hidden };
            convs.push(GcnConv::new(ps, ind, hidden, rng));
        }
        Self {
            convs,
            head: Linear::new(ps, hidden, classes, rng),
        }
    }
}

impl GraphNet for GcnGraphNet {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, mut x: Var) -> Var {
        for conv in &self.convs {
            x = conv.forward(f, &b.norm, x);
            x = f.tape.relu(x);
        }
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        self.head.forward(f, pooled)
    }
}

// ---- training loops ----------------------------------------------------------

/// Periodic crash-safe checkpointing of a training run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// File the train state is written to (atomically; see
    /// [`crate::serialize::atomic_write`]).
    pub path: PathBuf,
    /// Write every `every` epochs (validated ≥ 1 by the builder).
    pub every: usize,
}

#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f32,
    pub weight_decay: f32,
    pub seed: u64,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// Divergence recovery: how many consecutive retries of one epoch are
    /// allowed before the run is declared diverged. The first retry re-runs
    /// the epoch unchanged from the last good snapshot (enough for
    /// transient faults); later retries also multiply the LR by `backoff`.
    pub max_retries: usize,
    /// LR multiplier applied from the second retry of an epoch onward.
    pub backoff: f32,
    /// Global gradient-norm clip applied before each optimizer step
    /// (`None` disables clipping; validated finite and > 0 by the builder).
    pub grad_clip: Option<f32>,
    /// Periodic crash-safe checkpointing (`None` disables it).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from this train-state checkpoint if the file exists. A
    /// missing file starts fresh (so first runs and restarts share one
    /// config); an unreadable or shape-mismatched file also starts fresh
    /// and bumps the `train.resume_failures` telemetry counter.
    pub resume_from: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 150,
            lr: 0.01,
            weight_decay: 5e-4,
            seed: 0,
            patience: 40,
            max_retries: 3,
            backoff: 0.5,
            grad_clip: None,
            checkpoint: None,
            resume_from: None,
        }
    }
}

impl TrainConfig {
    /// Starts a validated builder pre-loaded with the defaults. Literal
    /// struct construction keeps working; the builder is for callers that
    /// assemble configs from user input and want range checks.
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder {
            cfg: TrainConfig::default(),
        }
    }
}

/// Builder for [`TrainConfig`] whose [`TrainConfigBuilder::build`] rejects
/// out-of-range hyper-parameters instead of training with them.
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    cfg: TrainConfig,
}

impl TrainConfigBuilder {
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    pub fn lr(mut self, lr: f32) -> Self {
        self.cfg.lr = lr;
        self
    }

    pub fn weight_decay(mut self, weight_decay: f32) -> Self {
        self.cfg.weight_decay = weight_decay;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Early-stopping patience in epochs (0 disables early stopping).
    pub fn patience(mut self, patience: usize) -> Self {
        self.cfg.patience = patience;
        self
    }

    /// Maximum consecutive divergence-recovery retries per epoch.
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.cfg.max_retries = max_retries;
        self
    }

    /// LR multiplier applied from the second retry of an epoch onward.
    pub fn backoff(mut self, backoff: f32) -> Self {
        self.cfg.backoff = backoff;
        self
    }

    /// Global gradient-norm clip applied before each optimizer step.
    pub fn grad_clip(mut self, max_norm: f32) -> Self {
        self.cfg.grad_clip = Some(max_norm);
        self
    }

    /// Write a crash-safe train-state checkpoint to `path` every `every`
    /// epochs.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.cfg.checkpoint = Some(CheckpointConfig {
            path: path.into(),
            every,
        });
        self
    }

    /// Resume from this checkpoint if it exists (see
    /// [`TrainConfig::resume_from`]).
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.resume_from = Some(path.into());
        self
    }

    /// Validates the assembled configuration: at least one epoch, a finite
    /// learning rate in `(0, 1]`, a finite non-negative weight decay, a
    /// backoff factor in `(0, 1]`, a positive finite grad clip (when set)
    /// and a checkpoint interval ≥ 1 (when set).
    pub fn build(self) -> MixqResult<TrainConfig> {
        let c = &self.cfg;
        if c.epochs == 0 {
            return Err(MixqError::config("TrainConfig", "epochs must be >= 1"));
        }
        if !c.lr.is_finite() || c.lr <= 0.0 || c.lr > 1.0 {
            return Err(MixqError::config(
                "TrainConfig",
                format!("lr must be in (0, 1], got {}", c.lr),
            ));
        }
        if !c.weight_decay.is_finite() || c.weight_decay < 0.0 {
            return Err(MixqError::config(
                "TrainConfig",
                format!(
                    "weight_decay must be finite and >= 0, got {}",
                    c.weight_decay
                ),
            ));
        }
        if !c.backoff.is_finite() || c.backoff <= 0.0 || c.backoff > 1.0 {
            return Err(MixqError::config(
                "TrainConfig",
                format!("backoff must be in (0, 1], got {}", c.backoff),
            ));
        }
        if let Some(clip) = c.grad_clip {
            if !clip.is_finite() || clip <= 0.0 {
                return Err(MixqError::config(
                    "TrainConfig",
                    format!("grad_clip must be finite and > 0, got {clip}"),
                ));
            }
        }
        if let Some(ck) = &c.checkpoint {
            if ck.every == 0 {
                return Err(MixqError::config(
                    "TrainConfig",
                    "checkpoint interval must be >= 1",
                ));
            }
        }
        Ok(self.cfg)
    }
}

#[derive(Debug, Clone)]
pub struct TrainReport {
    pub best_val: f64,
    pub test_metric: f64,
    pub best_epoch: usize,
    pub final_train_loss: f64,
    /// Divergences absorbed by rollback + retry (0 for a clean run).
    pub recovered_divergences: usize,
    /// `true` when an epoch stayed non-finite after `max_retries` retries
    /// and training stopped early. The reported metrics still come from the
    /// best (finite) parameters seen before the divergence.
    pub diverged: bool,
}

/// Result of [`train_graph`].
#[derive(Debug, Clone)]
pub struct GraphTrainReport {
    pub train_acc: f64,
    pub test_acc: f64,
    pub final_train_loss: f64,
    /// Divergences absorbed by rollback + retry (0 for a clean run).
    pub recovered_divergences: usize,
    /// `true` when recovery retries were exhausted and training stopped
    /// early (accuracies then reflect the last finite parameters).
    pub diverged: bool,
}

/// Trains a node-classification network full-batch with Adam, selecting the
/// parameters at the best validation metric (accuracy or ROC-AUC, depending
/// on the dataset's targets) and reporting the matching test metric.
///
/// Non-finite losses or gradients trigger rollback to the epoch-start
/// snapshot with bounded retries (see [`TrainConfig::max_retries`]); the
/// outcome is surfaced in [`TrainReport::recovered_divergences`] /
/// [`TrainReport::diverged`]. With [`TrainConfig::checkpoint`] set, a
/// crash-safe [`TrainState`](crate::TrainState) is written periodically, and
/// [`TrainConfig::resume_from`] continues an interrupted run bit-identically
/// to an uninterrupted one. The [`EpochDriver`] implements all of this.
pub fn train_node<M: NodeNet>(
    model: &mut M,
    ps: &mut ParamSet,
    ds: &NodeDataset,
    bundle: &NodeBundle,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut d = EpochDriver::new(ps, cfg, "train");
    if d.best_params.is_empty() {
        d.best_params = d.ps.clone();
    }
    let mut last_loss = f64::NAN;
    d.run("train_node/epoch", |d| {
        last_loss = d.backprop(true, |f| {
            let x = f.tape.constant(bundle.features.clone_pooled());
            let logits = model.forward(f, bundle, x);
            match &ds.targets {
                NodeTargets::SingleLabel { labels, .. } => {
                    let targets: Vec<usize> = ds.train_idx.iter().map(|&i| labels[i]).collect();
                    let lp = f.tape.log_softmax(logits);
                    f.tape.nll_masked(lp, &ds.train_idx, &targets)
                }
                NodeTargets::MultiLabel(t) => {
                    f.tape.bce_with_logits_masked(logits, t, &ds.train_idx)
                }
            }
        });
        d.check(last_loss)?;
        d.clip_and_step(last_loss);
        let val = eval_node(model, d.ps, ds, bundle, &ds.val_idx, &mut d.rng);
        mixq_telemetry::series_push("train.val_metric", val);
        if val > d.best_val {
            d.best_val = val;
            d.best_epoch = d.epoch;
            d.best_params = d.ps.clone();
            return Some(false);
        }
        Some(cfg.patience > 0 && d.epoch - d.best_epoch >= cfg.patience)
    });
    *d.ps = std::mem::take(&mut d.best_params);
    let test_metric = eval_node(model, d.ps, ds, bundle, &ds.test_idx, &mut d.rng);
    TrainReport {
        best_val: d.best_val,
        test_metric,
        best_epoch: d.best_epoch,
        final_train_loss: last_loss,
        recovered_divergences: d.recovered,
        diverged: d.diverged,
    }
}

/// Evaluates a node network on the rows in `idx` (accuracy or mean ROC-AUC).
pub fn eval_node<M: NodeNet>(
    model: &mut M,
    ps: &ParamSet,
    ds: &NodeDataset,
    bundle: &NodeBundle,
    idx: &[usize],
    rng: &mut Rng,
) -> f64 {
    let mut tape = Tape::new();
    let mut binding = Binding::new();
    let mut f = Fwd {
        tape: &mut tape,
        ps,
        binding: &mut binding,
        rng,
        training: false,
    };
    let x = f.tape.constant(bundle.features.clone_pooled());
    let logits = model.forward(&mut f, bundle, x);
    let metric = match &ds.targets {
        NodeTargets::SingleLabel { labels, .. } => accuracy(tape.value(logits), labels, idx),
        NodeTargets::MultiLabel(t) => roc_auc_mean(tape.value(logits), t, idx),
    };
    tape.recycle();
    metric
}

/// Trains a graph-classification network full-batch on `train` and reports
/// train/test accuracy of the final model, with the same divergence
/// recovery, checkpointing and resume behaviour as [`train_node`].
pub fn train_graph<M: GraphNet>(
    model: &mut M,
    ps: &mut ParamSet,
    train: &GraphBundle,
    test: &GraphBundle,
    cfg: &TrainConfig,
) -> GraphTrainReport {
    let rows: Vec<usize> = (0..train.num_graphs()).collect();
    let mut d = EpochDriver::new(ps, cfg, "train_graph");
    let mut last_loss = f64::NAN;
    d.run("train_graph/epoch", |d| {
        last_loss = d.backprop(true, |f| {
            let x = f.tape.constant(train.features.clone_pooled());
            let logits = model.forward(f, train, x);
            let lp = f.tape.log_softmax(logits);
            f.tape.nll_masked(lp, &rows, &train.labels)
        });
        d.check(last_loss)?;
        d.clip_and_step(last_loss);
        Some(false)
    });
    let train_acc = eval_graph(model, d.ps, train, &mut d.rng);
    let test_acc = eval_graph(model, d.ps, test, &mut d.rng);
    if mixq_telemetry::enabled() {
        mixq_telemetry::gauge_set("train_graph.train_accuracy", train_acc);
        mixq_telemetry::gauge_set("train_graph.test_accuracy", test_acc);
    }
    GraphTrainReport {
        train_acc,
        test_acc,
        final_train_loss: last_loss,
        recovered_divergences: d.recovered,
        diverged: d.diverged,
    }
}

/// Accuracy of a graph network on a bundle.
pub fn eval_graph<M: GraphNet>(
    model: &mut M,
    ps: &ParamSet,
    bundle: &GraphBundle,
    rng: &mut Rng,
) -> f64 {
    let mut tape = Tape::new();
    let mut binding = Binding::new();
    let mut f = Fwd {
        tape: &mut tape,
        ps,
        binding: &mut binding,
        rng,
        training: false,
    };
    let x = f.tape.constant(bundle.features.clone_pooled());
    let logits = model.forward(&mut f, bundle, x);
    let idx: Vec<usize> = (0..bundle.num_graphs()).collect();
    let metric = accuracy(tape.value(logits), &bundle.labels, &idx);
    tape.recycle();
    metric
}

#[cfg(test)]
mod trainer_tests {
    use super::*;
    use mixq_graph::{citation_like, CitationConfig};

    fn tiny() -> mixq_graph::NodeDataset {
        citation_like(
            &CitationConfig {
                name: "tiny",
                nodes: 200,
                feat_dim: 24,
                classes: 3,
                avg_degree: 5.0,
                homophily: 0.85,
                degree_alpha: 2.0,
                topic_size: 6,
                p_topic: 0.5,
                p_noise: 0.02,
                train_per_class: 15,
                val_size: 40,
                test_size: 80,
            },
            31,
        )
    }

    #[test]
    fn early_stopping_restores_best_parameters() {
        let ds = tiny();
        let bundle = NodeBundle::new(&ds);
        let mut rng = Rng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let dims = [ds.feat_dim(), 8, ds.num_classes()];
        let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            weight_decay: 0.0,
            seed: 0,
            patience: 10,
            ..TrainConfig::default()
        };
        let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
        // After training, evaluating with the restored parameters must give
        // exactly the reported best validation metric.
        let mut rng = Rng::seed_from_u64(9);
        let val = eval_node(&mut net, &ps, &ds, &bundle, &ds.val_idx, &mut rng);
        assert!(
            (val - rep.best_val).abs() < 1e-9,
            "restored params give val {val}, reported best {b}",
            b = rep.best_val
        );
    }

    #[test]
    fn zero_patience_disables_early_stopping() {
        let ds = tiny();
        let bundle = NodeBundle::new(&ds);
        let mut rng = Rng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let dims = [ds.feat_dim(), 8, ds.num_classes()];
        let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
        let cfg = TrainConfig {
            epochs: 12,
            lr: 0.01,
            weight_decay: 0.0,
            seed: 0,
            patience: 0,
            ..TrainConfig::default()
        };
        let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
        assert!(rep.best_epoch < 12);
        assert!(rep.final_train_loss.is_finite());
    }
}
