//! Golden outputs of the three epoch loops — `train_node`, `train_graph`
//! and the relaxed bit-width search — pinned bit for bit on tiny seeded
//! inputs, on the FP32 nets, on every quantized architecture (fixed-bit
//! QAT with each quantizer family, and the relaxed search) and on the
//! integer engine fed by a trained quantized GCN. A change to the trainers
//! or the quantized nets that alters the parameter trajectory, the
//! `ParamSet` allocation order, the RNG stream order or the exported
//! α-entropy series fails here.
//!
//! Each case renders its outcome as text (floats as exact `f64` bits plus
//! their shortest round-trip decimal) and compares it with a file under
//! `tests/golden/`.

use std::sync::Mutex;

use mixq::core::{
    gcn_graph_schema, gcn_schema, gin_graph_schema, sage_schema, search_gcn_bits,
    search_gcn_graph_bits, search_gin_graph_bits, search_sage_bits, BitAssignment, QGcnGraphNet,
    QGcnNet, QGinGraphNet, QSageNet, QuantKind, QuantizedGcn, SearchConfig,
};
use mixq::graph::{citation_like, proteins_like, CitationConfig, NodeDataset};
use mixq::nn::{
    params_to_string, train_graph, train_node, GcnNet, GinGraphNet, GraphBundle, GraphTrainReport,
    NodeBundle, ParamSet, TrainConfig, TrainReport,
};
use mixq::sparse::gcn_normalize;
use mixq::tensor::Rng;

/// Telemetry series are process-global: the cases that read one serialize
/// on this lock so no other case interleaves its pushes.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn tiny_citation() -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "tiny-golden",
            nodes: 160,
            feat_dim: 16,
            classes: 3,
            avg_degree: 5.0,
            homophily: 0.85,
            degree_alpha: 2.0,
            topic_size: 5,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 12,
            val_size: 30,
            test_size: 60,
        },
        17,
    )
}

/// Train/test batches of a small PROTEINS-like dataset.
fn tiny_proteins() -> (GraphBundle, GraphBundle, usize, usize) {
    let ds = proteins_like(19, 24);
    let train: Vec<usize> = (0..16).collect();
    let test: Vec<usize> = (16..24).collect();
    (
        GraphBundle::from_graphs(&ds, &train),
        GraphBundle::from_graphs(&ds, &test),
        ds.feat_dim(),
        ds.num_classes,
    )
}

fn bits(v: f64) -> String {
    format!("{:#018x} ({v:?})", v.to_bits())
}

fn assignment_text(a: &BitAssignment) -> String {
    a.names
        .iter()
        .zip(&a.bits)
        .map(|(n, b)| format!("{n}={b}\n"))
        .collect()
}

/// Runs `f` and returns the values it appended to telemetry series `name`.
fn series_added(name: &str, f: impl FnOnce()) -> Vec<f64> {
    let series = || {
        mixq::telemetry::snapshot()
            .series
            .into_iter()
            .find(|(k, _)| k == name)
            .map_or_else(Vec::new, |(_, v)| v)
    };
    let before = series().len();
    f();
    series().split_off(before)
}

fn node_report_text(rep: &TrainReport, ps: &ParamSet) -> String {
    format!(
        "best_val {}\ntest_metric {}\nbest_epoch {}\nfinal_train_loss {}\n\
         recovered_divergences {}\ndiverged {}\n{}",
        bits(rep.best_val),
        bits(rep.test_metric),
        rep.best_epoch,
        bits(rep.final_train_loss),
        rep.recovered_divergences,
        rep.diverged,
        params_to_string(ps),
    )
}

fn graph_report_text(rep: &GraphTrainReport, ps: &ParamSet) -> String {
    format!(
        "train_acc {}\ntest_acc {}\nfinal_train_loss {}\n\
         recovered_divergences {}\ndiverged {}\n{}",
        bits(rep.train_acc),
        bits(rep.test_acc),
        bits(rep.final_train_loss),
        rep.recovered_divergences,
        rep.diverged,
        params_to_string(ps),
    )
}

/// QAT schedule shared by the quantized node-level cases.
fn qat_node_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 16,
        lr: 0.05,
        weight_decay: 5e-4,
        seed,
        patience: 0,
        ..TrainConfig::default()
    }
}

/// QAT schedule shared by the quantized graph-level cases.
fn qat_graph_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 6,
        lr: 0.02,
        weight_decay: 1e-4,
        seed,
        patience: 0,
        ..TrainConfig::default()
    }
}

/// A uniform 8-bit assignment with the listed components overridden.
fn mixed(names: Vec<String>, overrides: &[(&str, u8)]) -> BitAssignment {
    let mut a = BitAssignment::uniform(names, 8);
    for &(name, b) in overrides {
        a.set(name, b);
    }
    a
}

/// Trains a fixed-bit `QGcnNet` on the tiny citation graph.
fn train_qgcn(a: BitAssignment, kind: QuantKind, seed: u64) -> (String, QGcnNet, ParamSet) {
    let ds = tiny_citation();
    let bundle = NodeBundle::new(&ds);
    let mut rng = Rng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let dims = [ds.feat_dim(), 6, ds.num_classes()];
    let mut net = QGcnNet::new(&mut ps, &dims, a, kind, &bundle.degrees, 0.5, &mut rng).unwrap();
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &qat_node_config(seed));
    (node_report_text(&rep, &ps), net, ps)
}

fn search_text(a: &BitAssignment, entropy: &[f64]) -> String {
    let mut out = assignment_text(a);
    out.push_str(&format!("alpha_entropy {}\n", entropy.len()));
    for &e in entropy {
        out.push_str(&bits(e));
        out.push('\n');
    }
    out
}

#[test]
fn train_node_gcn_matches_golden() {
    let ds = tiny_citation();
    let bundle = NodeBundle::new(&ds);
    let mut rng = Rng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let mut net = GcnNet::new(
        &mut ps,
        &[ds.feat_dim(), 6, ds.num_classes()],
        0.5,
        &mut rng,
    );
    let cfg = TrainConfig {
        epochs: 24,
        lr: 0.05,
        weight_decay: 5e-4,
        seed: 3,
        patience: 4,
        ..TrainConfig::default()
    };
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
    let text = node_report_text(&rep, &ps);
    assert_eq!(text, include_str!("golden/train_node_gcn.txt"));
}

#[test]
fn train_graph_gin_matches_golden() {
    let (train, test, in_dim, classes) = tiny_proteins();
    let mut rng = Rng::seed_from_u64(4);
    let mut ps = ParamSet::new();
    let mut net = GinGraphNet::new(&mut ps, in_dim, 6, classes, 2, &mut rng);
    let cfg = TrainConfig {
        epochs: 8,
        lr: 0.02,
        weight_decay: 1e-4,
        seed: 4,
        patience: 0,
        ..TrainConfig::default()
    };
    let rep = train_graph(&mut net, &mut ps, &train, &test, &cfg);
    let text = graph_report_text(&rep, &ps);
    assert_eq!(text, include_str!("golden/train_graph_gin.txt"));
}

#[test]
fn search_gcn_bits_matches_golden() {
    let _lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    mixq::telemetry::set_enabled(true);
    let ds = tiny_citation();
    let bundle = NodeBundle::new(&ds);
    let cfg = SearchConfig {
        epochs: 8,
        lr: 0.05,
        lambda: 0.1,
        seed: 5,
        warmup: 3,
        ..SearchConfig::default()
    };
    let mut a = None;
    let entropy = series_added("search.alpha_entropy", || {
        a = Some(search_gcn_bits(
            &ds,
            &bundle,
            &[ds.feat_dim(), 6, ds.num_classes()],
            &[2, 4, 8],
            0.5,
            &cfg,
        ));
    });
    let text = search_text(&a.unwrap(), &entropy);
    assert_eq!(text, include_str!("golden/search_gcn_bits.txt"));
}

#[test]
fn search_gin_graph_bits_matches_golden() {
    let _lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    mixq::telemetry::set_enabled(true);
    let (train, _, in_dim, classes) = tiny_proteins();
    let cfg = SearchConfig {
        epochs: 6,
        lr: 0.05,
        lambda: 0.1,
        seed: 6,
        warmup: 2,
        ..SearchConfig::default()
    };
    let mut a = None;
    let entropy = series_added("search.alpha_entropy", || {
        a = Some(search_gin_graph_bits(
            &train,
            in_dim,
            6,
            classes,
            2,
            &[4, 8],
            &cfg,
        ));
    });
    let text = search_text(&a.unwrap(), &entropy);
    assert_eq!(text, include_str!("golden/search_gin_graph_bits.txt"));
}

#[test]
fn train_node_qgcn_native_and_integer_logits_match_golden() {
    let a = mixed(
        gcn_schema(2),
        &[("l0.weight", 4), ("l0.agg_out", 6), ("l1.adj", 4)],
    );
    let (mut text, net, ps) = train_qgcn(a, QuantKind::Native, 7);
    let ds = tiny_citation();
    let engine = QuantizedGcn::prepare(&net.snapshot(&ps).unwrap(), &gcn_normalize(&ds.adj));
    let logits = engine.infer(&ds.features);
    text.push_str(&format!("int_logits {}x{}\n", logits.rows(), logits.cols()));
    for &v in logits.data() {
        text.push_str(&format!("{:#010x}\n", v.to_bits()));
    }
    assert_eq!(text, include_str!("golden/train_node_qgcn_native.txt"));
}

#[test]
fn train_node_qgcn_lsq_matches_golden() {
    // The 32-bit components are identity quantizers (an LSQ scale is still
    // allocated for `l1.lin_out`, pinning its place in the `ParamSet`).
    let a = mixed(
        gcn_schema(2),
        &[("l0.weight", 32), ("l1.lin_out", 32), ("l0.agg_out", 4)],
    );
    let (text, _, _) = train_qgcn(a, QuantKind::Lsq, 8);
    assert_eq!(text, include_str!("golden/train_node_qgcn_lsq.txt"));
}

#[test]
fn train_node_qsage_dq_matches_golden() {
    let ds = tiny_citation();
    let bundle = NodeBundle::new(&ds);
    let mut rng = Rng::seed_from_u64(9);
    let mut ps = ParamSet::new();
    let a = mixed(
        sage_schema(2),
        &[("l0.w_neigh", 32), ("l0.agg", 4), ("l1.adj", 4)],
    );
    let kind = QuantKind::Dq {
        p_min: 0.0,
        p_max: 0.3,
    };
    let dims = [ds.feat_dim(), 6, ds.num_classes()];
    let mut net = QSageNet::new(&mut ps, &dims, a, kind, &bundle.degrees, 0.5, &mut rng).unwrap();
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &qat_node_config(9));
    let text = node_report_text(&rep, &ps);
    assert_eq!(text, include_str!("golden/train_node_qsage_dq.txt"));
}

#[test]
fn train_graph_qgin_a2q_matches_golden() {
    let (train, test, in_dim, classes) = tiny_proteins();
    let mut rng = Rng::seed_from_u64(10);
    let mut ps = ParamSet::new();
    let a = mixed(
        gin_graph_schema(2),
        &[("l0.w1", 4), ("l1.adj", 4), ("head.w2", 32)],
    );
    let kind = QuantKind::A2q {
        lo: 4,
        mid: 6,
        hi: 8,
    };
    let mut net = QGinGraphNet::new(
        &mut ps,
        in_dim,
        6,
        classes,
        2,
        a,
        kind,
        &train.degrees,
        &mut rng,
    )
    .unwrap();
    let rep = train_graph(&mut net, &mut ps, &train, &test, &qat_graph_config(10));
    let text = graph_report_text(&rep, &ps);
    assert_eq!(text, include_str!("golden/train_graph_qgin_a2q.txt"));
}

#[test]
fn train_graph_qgcn_graph_dq_matches_golden() {
    let (train, test, in_dim, classes) = tiny_proteins();
    let mut rng = Rng::seed_from_u64(11);
    let mut ps = ParamSet::new();
    let a = mixed(
        gcn_graph_schema(2),
        &[("l0.weight", 4), ("l1.adj", 4), ("head.w", 32)],
    );
    let kind = QuantKind::Dq {
        p_min: 0.0,
        p_max: 0.2,
    };
    let mut net = QGcnGraphNet::new(
        &mut ps,
        in_dim,
        6,
        classes,
        2,
        a,
        kind,
        &train.degrees,
        &mut rng,
    )
    .unwrap();
    let rep = train_graph(&mut net, &mut ps, &train, &test, &qat_graph_config(11));
    let text = graph_report_text(&rep, &ps);
    assert_eq!(text, include_str!("golden/train_graph_qgcn_graph_dq.txt"));
}

#[test]
fn search_sage_bits_matches_golden() {
    let _lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    mixq::telemetry::set_enabled(true);
    let ds = tiny_citation();
    let bundle = NodeBundle::new(&ds);
    let cfg = SearchConfig {
        epochs: 8,
        lr: 0.05,
        lambda: 0.1,
        seed: 12,
        warmup: 3,
        ..SearchConfig::default()
    };
    let mut a = None;
    let entropy = series_added("search.alpha_entropy", || {
        a = Some(search_sage_bits(
            &ds,
            &bundle,
            &[ds.feat_dim(), 6, ds.num_classes()],
            &[2, 4, 8],
            0.5,
            &cfg,
        ));
    });
    let text = search_text(&a.unwrap(), &entropy);
    assert_eq!(text, include_str!("golden/search_sage_bits.txt"));
}

#[test]
fn search_gcn_graph_bits_matches_golden() {
    let _lock = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    mixq::telemetry::set_enabled(true);
    let (train, _, in_dim, classes) = tiny_proteins();
    let cfg = SearchConfig {
        epochs: 6,
        lr: 0.05,
        lambda: 0.1,
        seed: 13,
        warmup: 2,
        ..SearchConfig::default()
    };
    let mut a = None;
    let entropy = series_added("search.alpha_entropy", || {
        a = Some(search_gcn_graph_bits(
            &train,
            in_dim,
            6,
            classes,
            2,
            &[2, 4, 8],
            &cfg,
        ));
    });
    let text = search_text(&a.unwrap(), &entropy);
    assert_eq!(text, include_str!("golden/search_gcn_graph_bits.txt"));
}
