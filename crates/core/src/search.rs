//! MixQ-GNN bit-width selection — Algorithm 1.
//!
//! Builds an architecture of [`crate::qnets`] in relaxed mode (every
//! quantizer carrying per-bit-width α logits), trains it on the task loss
//! plus `λ·Σᵢ C(Tᵢ)`, and extracts the argmax bit-widths. The resulting
//! [`BitAssignment`] then builds the same architecture in fixed mode for
//! QAT retraining.

use mixq_graph::{NodeDataset, NodeTargets};
use mixq_nn::{
    CheckpointConfig, EpochDriver, Fwd, GraphBundle, GraphNet, NodeBundle, NodeNet, ParamId,
    ParamSet, TrainConfig,
};
use mixq_tensor::{softmax_slice, MixqResult, Rng, Tape, Var};

use crate::bits::BitAssignment;
use crate::qnets::{Mode, QGcnGraphNet, QGcnNet, QGinGraphNet, QSageNet, Quantized};

/// Hyper-parameters of the relaxed search phase.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    pub epochs: usize,
    pub lr: f32,
    /// The Lagrange multiplier λ weighting `Σ C(T)`. Negative values
    /// (the paper's `−ε`) reward wider bit-widths.
    pub lambda: f32,
    pub seed: u64,
    /// Epochs during which the α logits stay frozen while Θ fits the task
    /// (DARTS-style warm-up; prevents the early-training shrinkage bias
    /// from capturing the bit-width choice).
    pub warmup: usize,
    /// Divergence recovery: consecutive retries of one epoch before the
    /// search stops early (mirrors `TrainConfig::max_retries`).
    pub max_retries: usize,
    /// LR multiplier applied from the second retry of an epoch onward.
    pub backoff: f32,
    /// Periodic crash-safe checkpointing of the relaxed search state.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from this checkpoint if it exists (missing files start
    /// fresh; unreadable or mismatched ones start fresh and bump the
    /// `search.resume_failures` telemetry counter).
    pub resume_from: Option<std::path::PathBuf>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            lr: 0.01,
            lambda: 0.1,
            seed: 0,
            warmup: 25,
            max_retries: 3,
            backoff: 0.5,
            checkpoint: None,
            resume_from: None,
        }
    }
}

/// Generic bi-level relaxed-training loop (DARTS-style, as the continuous
/// relaxation the paper builds on [52]):
///
/// * **Θ step** (every epoch): minimize the *training* task loss with the
///   α logits frozen;
/// * **α step** (after `cfg.warmup` epochs): minimize the *validation*
///   task loss plus `λ·Σ C(T)` with Θ frozen.
///
/// Updating α on held-out data is essential: on the training loss, coarse
/// quantizers act as a regularizer/feature-selector and would win even when
/// they destroy generalization. The penalty sum is normalized by the total
/// number of penalized elements (so `λ·Σ C` has the scale of an
/// element-weighted average bit-width, keeping λ's useful range
/// dataset-size independent).
/// Divergence recovery, checkpointing and resume come from
/// [`EpochDriver`], as in [`mixq_nn::train_node`]: a non-finite loss or
/// gradient rolls the whole epoch (Θ **and** α step) back to its start
/// snapshot with bounded retries. Exhausting `cfg.max_retries` restores
/// the last finite state and stops the search early (bumping
/// `search.divergence_aborts`), so the extracted assignment always comes
/// from finite α logits.
fn train_relaxed(
    ps: &mut ParamSet,
    cfg: &SearchConfig,
    alpha_ids: &[ParamId],
    mut fwd_loss: impl FnMut(&mut Fwd, bool) -> (Var, Vec<(Var, usize)>),
) {
    let driver_cfg = TrainConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        weight_decay: 0.0,
        seed: cfg.seed,
        patience: 0,
        max_retries: cfg.max_retries,
        backoff: cfg.backoff,
        grad_clip: None,
        checkpoint: cfg.checkpoint.clone(),
        resume_from: cfg.resume_from.clone(),
    };
    let mut d = EpochDriver::new(ps, &driver_cfg, "search");
    d.run("search/epoch", |d| {
        // ---- Θ step on the training loss (α frozen) ----
        let theta_loss = d.backprop(true, |f| fwd_loss(f, false).0);
        for &id in alpha_ids {
            d.ps.grad_zero(id);
        }
        d.check(theta_loss)?;
        d.opt.step(d.ps);

        // ---- α step on the validation loss + penalty (Θ frozen) ----
        if d.epoch() >= cfg.warmup {
            let alpha_loss = d.backprop(false, |f| {
                let (loss, pens) = fwd_loss(f, true);
                let total_elems: usize = pens.iter().map(|&(_, n)| n).sum();
                // bit_penalty is already divided by 1024·8; undo that and
                // divide by the architecture size instead. The 0.02 factor
                // calibrates λ's useful range to the paper's reported
                // [−0.1, 1] interval (see Fig. 9 reproduction).
                let norm = 0.02 * cfg.lambda * (1024.0 * 8.0) / total_elems.max(1) as f32;
                if mixq_telemetry::enabled() {
                    // The λ·ΣC(T) penalty actually added to the α objective.
                    let penalty: f64 = pens
                        .iter()
                        .map(|&(p, _)| f.tape.value(p).item() as f64 * norm as f64)
                        .sum();
                    mixq_telemetry::series_push("search.penalty", penalty);
                }
                pens.into_iter().fold(loss, |total, (p, _)| {
                    let sp = f.tape.scale(p, norm);
                    f.tape.add(total, sp)
                })
            });
            for id in d.ps.all_ids() {
                if !alpha_ids.contains(&id) {
                    d.ps.grad_zero(id);
                }
            }
            d.check(alpha_loss)?;
            d.opt.step(d.ps);
        }

        if mixq_telemetry::enabled() && !alpha_ids.is_empty() {
            // Mean Shannon entropy of the α softmax distributions: high at
            // initialization (uniform over bit choices), dropping as the
            // search commits to bit-widths.
            let mut entropy = 0.0f64;
            for &id in alpha_ids {
                let probs = softmax_slice(d.ps.value(id).data());
                entropy -= probs
                    .iter()
                    .filter(|&&p| p > 0.0)
                    .map(|&p| p as f64 * (p as f64).ln())
                    .sum::<f64>();
            }
            mixq_telemetry::series_push("search.alpha_entropy", entropy / alpha_ids.len() as f64);
        }
        Some(false)
    });
}

/// Records the outcome of a bit-width search: one `search.bits` histogram
/// entry per component plus a counter of completed searches (no-op while
/// telemetry is disabled).
fn record_search_outcome(a: &BitAssignment) {
    if !mixq_telemetry::enabled() {
        return;
    }
    for &b in &a.bits {
        mixq_telemetry::hist_record("search.bits", b as u64);
    }
    mixq_telemetry::counter_add("search.completed", 1);
    mixq_telemetry::gauge_set("search.avg_bits", a.simple_avg());
}

/// Builds the task loss for a node dataset on an open tape, over the
/// training split or (for the bi-level α step) the validation split.
fn node_task_loss(tape: &mut Tape, logits: Var, ds: &NodeDataset, val: bool) -> Var {
    let idx = if val { &ds.val_idx } else { &ds.train_idx };
    match &ds.targets {
        NodeTargets::SingleLabel { labels, .. } => {
            let targets: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            let lp = tape.log_softmax(logits);
            tape.nll_masked(lp, idx, &targets)
        }
        NodeTargets::MultiLabel(t) => tape.bce_with_logits_masked(logits, t, idx),
    }
}

/// Carves ~20 % of the batch's graphs out as the α-step validation set;
/// returns the `(rows, targets)` of the training and validation graphs.
fn graph_search_split(train: &GraphBundle, seed: u64) -> [(Vec<usize>, Vec<usize>); 2] {
    let g = train.num_graphs();
    let mut order: Vec<usize> = (0..g).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
    rng.shuffle(&mut order);
    let nval = (g / 5).max(1);
    let (va, tr) = order.split_at(nval);
    let targets = |rows: &[usize]| rows.iter().map(|&r| train.labels[r]).collect::<Vec<_>>();
    [(tr.to_vec(), targets(tr)), (va.to_vec(), targets(va))]
}

/// Algorithm 1 on a net built in relaxed mode by `build` (seeded with
/// `cfg.seed ^ salt`): trains it on `loss(net, f, val)` plus the bit
/// penalty, then extracts the argmax bit-widths.
fn search<N: Quantized>(
    cfg: &SearchConfig,
    salt: u64,
    build: impl FnOnce(&mut ParamSet, &mut Rng) -> MixqResult<N>,
    mut loss: impl FnMut(&mut N, &mut Fwd, bool) -> Var,
) -> BitAssignment {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ salt);
    let mut net = build(&mut ps, &mut rng).expect("relaxed sites follow their schema");
    let alpha_ids = net.sites().alpha_ids();
    train_relaxed(&mut ps, cfg, &alpha_ids, |f, val| {
        let loss = loss(&mut net, f, val);
        (loss, net.sites().take_penalties())
    });
    let assignment = net.sites().extract(Some(&ps));
    record_search_outcome(&assignment);
    assignment
}

/// [`search`] for a node classifier on `ds`.
fn search_node<N: NodeNet + Quantized>(
    ds: &NodeDataset,
    bundle: &NodeBundle,
    cfg: &SearchConfig,
    salt: u64,
    build: impl FnOnce(&mut ParamSet, &mut Rng) -> MixqResult<N>,
) -> BitAssignment {
    search(cfg, salt, build, |net, f, val| {
        let x = f.tape.constant(bundle.features.clone());
        let logits = net.forward(f, bundle, x);
        node_task_loss(f.tape, logits, ds, val)
    })
}

/// [`search`] for a graph classifier on the training batch `train`.
fn search_graph<N: GraphNet + Quantized>(
    train: &GraphBundle,
    cfg: &SearchConfig,
    salt: u64,
    build: impl FnOnce(&mut ParamSet, &mut Rng) -> MixqResult<N>,
) -> BitAssignment {
    let [train_split, val_split] = graph_search_split(train, cfg.seed);
    search(cfg, salt, build, |net, f, val| {
        let x = f.tape.constant(train.features.clone());
        let logits = net.forward(f, train, x);
        let lp = f.tape.log_softmax(logits);
        let (rows, targets) = if val { &val_split } else { &train_split };
        f.tape.nll_masked(lp, rows, targets)
    })
}

/// Searches bit-widths for a multi-layer GCN on a node dataset.
pub fn search_gcn_bits(
    ds: &NodeDataset,
    bundle: &NodeBundle,
    dims: &[usize],
    bit_choices: &[u8],
    dropout: f32,
    cfg: &SearchConfig,
) -> BitAssignment {
    search_node(ds, bundle, cfg, 0xA1, |ps, rng| {
        QGcnNet::build(ps, dims, Mode::Relaxed(bit_choices), dropout, rng)
    })
}

/// Searches bit-widths for a multi-layer GraphSAGE on a node dataset.
pub fn search_sage_bits(
    ds: &NodeDataset,
    bundle: &NodeBundle,
    dims: &[usize],
    bit_choices: &[u8],
    dropout: f32,
    cfg: &SearchConfig,
) -> BitAssignment {
    search_node(ds, bundle, cfg, 0xA2, |ps, rng| {
        QSageNet::build(ps, dims, Mode::Relaxed(bit_choices), dropout, rng)
    })
}

/// Searches bit-widths for the GIN graph classifier on a training batch.
pub fn search_gin_graph_bits(
    train: &GraphBundle,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    bit_choices: &[u8],
    cfg: &SearchConfig,
) -> BitAssignment {
    let shape = [in_dim, hidden, classes, nlayers];
    search_graph(train, cfg, 0xA3, |ps, rng| {
        QGinGraphNet::build(ps, shape, Mode::Relaxed(bit_choices), rng)
    })
}

/// Searches bit-widths for the GCN graph classifier (CSL's architecture).
pub fn search_gcn_graph_bits(
    train: &GraphBundle,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    bit_choices: &[u8],
    cfg: &SearchConfig,
) -> BitAssignment {
    let shape = [in_dim, hidden, classes, nlayers];
    search_graph(train, cfg, 0xA4, |ps, rng| {
        QGcnGraphNet::build(ps, shape, Mode::Relaxed(bit_choices), rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_graph::cora_like;

    #[test]
    fn large_lambda_pushes_bits_down_and_negative_up() {
        // The key behavioural property of Algorithm 1: λ ≫ 0 favours
        // narrow bit-widths, λ < 0 favours wide ones.
        let ds = cora_like(11);
        let bundle = NodeBundle::new(&ds);
        let dims = [ds.feat_dim(), 16, ds.num_classes()];

        let narrow = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[2, 4, 8],
            0.0,
            &SearchConfig {
                epochs: 20,
                lr: 0.05,
                lambda: 50.0,
                seed: 1,
                warmup: 5,
                ..SearchConfig::default()
            },
        );
        let wide = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[2, 4, 8],
            0.0,
            &SearchConfig {
                epochs: 20,
                lr: 0.05,
                lambda: -50.0,
                seed: 1,
                warmup: 5,
                ..SearchConfig::default()
            },
        );
        assert!(
            narrow.simple_avg() < wide.simple_avg(),
            "λ=50 avg {} must be below λ=−50 avg {}",
            narrow.simple_avg(),
            wide.simple_avg()
        );
        assert_eq!(
            wide.simple_avg(),
            8.0,
            "strongly negative λ saturates at max bits"
        );
        assert_eq!(
            narrow.simple_avg(),
            2.0,
            "strongly positive λ saturates at min bits"
        );
    }

    #[test]
    fn search_returns_valid_assignment() {
        let ds = cora_like(12);
        let bundle = NodeBundle::new(&ds);
        let dims = [ds.feat_dim(), 16, ds.num_classes()];
        let a = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[4, 8],
            0.5,
            &SearchConfig {
                epochs: 8,
                lr: 0.02,
                lambda: 0.1,
                seed: 2,
                warmup: 2,
                ..SearchConfig::default()
            },
        );
        assert_eq!(a.len(), 9, "2-layer GCN has 9 components");
        assert!(a.bits.iter().all(|b| [4u8, 8].contains(b)));
    }
}
