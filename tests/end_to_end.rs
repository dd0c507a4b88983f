//! Cross-crate integration tests: the full train → quantize → search
//! pipeline on a small synthetic dataset. Sized to run in debug mode.

use std::sync::Arc;

use mixq::core::{
    gcn_schema, search_gcn_bits, BitAssignment, QGcnNet, QuantKind, RelaxedGcnNet, SearchConfig,
};
use mixq::graph::{citation_like, CitationConfig, NodeDataset};
use mixq::nn::{train_node, Binding, Fwd, GcnNet, NodeBundle, NodeNet, ParamSet, TrainConfig};
use mixq::tensor::{Matrix, Rng, Tape, Var};

fn tiny_dataset(seed: u64) -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "tiny",
            nodes: 400,
            feat_dim: 48,
            classes: 4,
            avg_degree: 5.0,
            homophily: 0.85,
            degree_alpha: 2.0,
            topic_size: 8,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 20,
            val_size: 80,
            test_size: 160,
        },
        seed,
    )
}

fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 80,
        lr: 0.01,
        weight_decay: 5e-4,
        seed,
        patience: 30,
        ..TrainConfig::default()
    }
}

fn train_fp32(ds: &NodeDataset, bundle: &NodeBundle, seed: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    train_node(&mut net, &mut ps, ds, bundle, &train_cfg(seed)).test_metric
}

fn train_quantized(ds: &NodeDataset, bundle: &NodeBundle, bits: u8, seed: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), bits);
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    train_node(&mut net, &mut ps, ds, bundle, &train_cfg(seed)).test_metric
}

#[test]
fn fp32_gcn_learns_the_synthetic_task() {
    let ds = tiny_dataset(1);
    let bundle = NodeBundle::new(&ds);
    let acc = train_fp32(&ds, &bundle, 0);
    assert!(
        acc > 0.6,
        "FP32 accuracy {acc} too low — the pipeline is broken"
    );
}

#[test]
fn int8_qat_stays_close_to_fp32() {
    let ds = tiny_dataset(2);
    let bundle = NodeBundle::new(&ds);
    let fp32 = train_fp32(&ds, &bundle, 0);
    let int8 = train_quantized(&ds, &bundle, 8, 0);
    assert!(
        int8 > fp32 - 0.08,
        "INT8 accuracy {int8} should be within 8 points of FP32 {fp32}"
    );
}

#[test]
fn precision_ladder_is_monotone_at_the_extremes() {
    let ds = tiny_dataset(3);
    let bundle = NodeBundle::new(&ds);
    let int8 = train_quantized(&ds, &bundle, 8, 0);
    let int2 = train_quantized(&ds, &bundle, 2, 0);
    assert!(
        int8 > int2 + 0.05,
        "INT8 ({int8}) must clearly beat INT2 ({int2})"
    );
}

#[test]
fn mixq_search_produces_trainable_assignment() {
    let ds = tiny_dataset(4);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let scfg = SearchConfig {
        epochs: 24,
        lr: 0.02,
        lambda: 0.1,
        seed: 0,
        warmup: 12,
        ..SearchConfig::default()
    };
    let a = search_gcn_bits(&ds, &bundle, &dims, &[2, 4, 8], 0.5, &scfg);
    assert_eq!(a.len(), 9);
    assert!(a.bits.iter().all(|b| [2u8, 4, 8].contains(b)));

    let mut rng = Rng::seed_from_u64(9);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let acc = train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg(0)).test_metric;
    let chance = 1.0 / ds.num_classes() as f64;
    assert!(
        acc > 2.0 * chance,
        "MixQ-selected model accuracy {acc} barely above chance"
    );
}

#[test]
fn dq_quantizer_trains_on_the_same_pipeline() {
    let ds = tiny_dataset(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), 4);
    let mut rng = Rng::seed_from_u64(4);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Dq {
            p_min: 0.0,
            p_max: 0.3,
        },
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let acc = train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg(0)).test_metric;
    assert!(acc > 0.4, "DQ INT4 accuracy {acc} unexpectedly low");
}

#[test]
fn a2q_quantizer_trains_on_the_same_pipeline() {
    let ds = tiny_dataset(6);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), 8);
    let mut rng = Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::A2q {
            lo: 2,
            mid: 4,
            hi: 8,
        },
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let acc = train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg(0)).test_metric;
    assert!(acc > 0.4, "A2Q accuracy {acc} unexpectedly low");
}

/// Eval-mode output of `forward` on `features`.
fn eval_output(
    ps: &ParamSet,
    features: &Matrix,
    forward: impl FnOnce(&mut Fwd, Var) -> Var,
) -> Matrix {
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
    let x = f.tape.constant(features.clone());
    let y = forward(&mut f, x);
    tape.value(y).clone()
}

#[test]
fn relaxed_net_requantizes_a_new_adjacency() {
    // A relaxed GCN whose menu holds one bit-width is the fixed-bit GCN at
    // that width: its only α has softmax weight exactly 1. Both must
    // follow the adjacency they are given. Regression: the relaxed
    // adjacency quantizer kept the first graph's quantized copy forever.
    let ds = tiny_dataset(31);
    let a = NodeBundle::new(&ds);
    let other = NodeBundle::new(&tiny_dataset(32));
    let b = NodeBundle {
        features: a.features.clone(),
        norm: Arc::clone(&other.norm),
        mean: Arc::clone(&a.mean),
        raw: Arc::clone(&a.raw),
        degrees: a.degrees.clone(),
    };
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let mut ps_r = ParamSet::new();
    let mut relaxed = RelaxedGcnNet::new(&mut ps_r, &dims, &[8], 0.5, &mut Rng::seed_from_u64(3));
    let mut ps_q = ParamSet::new();
    let mut fixed = QGcnNet::new(
        &mut ps_q,
        &dims,
        BitAssignment::uniform(gcn_schema(2), 8),
        QuantKind::Native,
        &a.degrees,
        0.5,
        &mut Rng::seed_from_u64(3),
    )
    .unwrap();
    let mut outputs = Vec::new();
    for bundle in [&a, &b, &a] {
        let yr = eval_output(&ps_r, &bundle.features, |f, x| {
            relaxed.forward(f, bundle, x).0
        });
        let yq = eval_output(&ps_q, &bundle.features, |f, x| fixed.forward(f, bundle, x));
        let diff = yr.max_abs_diff(&yq);
        assert!(diff < 1e-6, "relaxed and fixed nets differ by {diff}");
        outputs.push(yq);
    }
    assert!(
        outputs[0].max_abs_diff(&outputs[1]) > 1e-3,
        "the two adjacencies must give different outputs"
    );
    assert_eq!(outputs[0], outputs[2], "returning to the first adjacency");
}
