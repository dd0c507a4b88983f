//! Fault-injection integration tests: deterministic faults from
//! `mixq-faultinject` driven through the real training loops, checkpoint
//! writer, parallel runtime and integer inference engine.
//!
//! The fault spec and the thread-pool settings are process-global, so every
//! test serializes on one mutex and clears the spec on exit (also on
//! panic, via the guard's `Drop`).

use std::sync::{Mutex, MutexGuard};

use mixq::core::{
    search_gcn_bits, BitAssignment, GcnLayerSnapshot, GcnSnapshot, QuantizedGcn, SearchConfig,
};
use mixq::faultinject;
use mixq::graph::{citation_like, proteins_like, CitationConfig, NodeDataset};
use mixq::nn::{
    load_params, params_to_string, save_params, train_graph, train_node, CheckpointConfig,
    GcnGraphNet, GcnNet, GraphBundle, GraphTrainReport, NodeBundle, ParamSet, TrainConfig,
};
use mixq::sparse::{gcn_normalize, CooEntry, CsrMatrix};
use mixq::tensor::{Matrix, QuantParams, Rng};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Serializes the test on the global fault/thread state and guarantees the
/// spec is cleared again even if the test panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    /// Locks the global fault state with no spec installed.
    fn clean() -> Self {
        let g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        faultinject::clear();
        FaultGuard(g)
    }

    fn with_spec(spec: &str) -> Self {
        let me = Self::clean();
        faultinject::set_spec(spec).expect("test fault spec parses");
        me
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faultinject::clear();
    }
}

fn tiny_dataset(seed: u64) -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "tiny-ft",
            nodes: 300,
            feat_dim: 32,
            classes: 3,
            avg_degree: 5.0,
            homophily: 0.85,
            degree_alpha: 2.0,
            topic_size: 8,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 20,
            val_size: 60,
            test_size: 120,
        },
        seed,
    )
}

fn train_tiny(cfg: &TrainConfig) -> (mixq::nn::TrainReport, String) {
    let ds = tiny_dataset(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 12, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, cfg);
    (rep, params_to_string(&ps))
}

fn quick_cfg() -> TrainConfig {
    TrainConfig::builder()
        .epochs(6)
        .lr(0.01)
        .seed(5)
        .patience(0)
        .build()
        .expect("valid config")
}

#[test]
fn torn_checkpoint_write_leaves_previous_file_intact() {
    let _guard = FaultGuard::with_spec("ckpt_torn@1");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mixq_ft_torn_{}.params", std::process::id()));

    let mut ps = ParamSet::new();
    ps.add(Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.25, 4.0]));
    // The torn rule only arms once the gate is resolved; the first save must
    // fail (half the bytes written to the temp file, no rename)…
    let err = save_params(&ps, &path);
    assert!(err.is_err(), "injected torn write must surface as an error");
    assert!(!path.exists(), "torn write must not produce the final file");

    // …and with the rule consumed, the atomic path works and survives a
    // later torn attempt: the original stays readable.
    save_params(&ps, &path).expect("clean save succeeds");
    let before = params_to_string(&load_params(&path).expect("readable"));
    faultinject::set_spec("ckpt_torn@1").expect("respec");
    assert!(save_params(&ps, &path).is_err());
    let after = params_to_string(&load_params(&path).expect("still readable"));
    assert_eq!(before, after, "failed overwrite must not corrupt the file");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn nan_gradient_recovery_is_bit_identical_to_clean_run() {
    let cfg = quick_cfg();
    let _guard = FaultGuard::with_spec("grad_nan@epoch=2");
    let (rep_f, params_f) = train_tiny(&cfg);
    assert_eq!(rep_f.recovered_divergences, 1, "one rollback expected");
    assert!(!rep_f.diverged);
    assert!(rep_f.final_train_loss.is_finite());

    faultinject::clear();
    let (rep_c, params_c) = train_tiny(&cfg);
    assert_eq!(rep_c.recovered_divergences, 0);
    assert_eq!(
        params_f, params_c,
        "rollback + unchanged retry must be bit-identical"
    );
    assert_eq!(rep_f.test_metric, rep_c.test_metric);
}

#[test]
fn exhausted_retries_reports_divergence_with_finite_params() {
    // Inject a NaN gradient at every remaining epoch probe: epoch 2 diverges
    // on each of its retries, so recovery is exhausted and the report says
    // so — with parameters still finite (restored from the snapshot).
    let _guard = FaultGuard::with_spec(
        "grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2",
    );
    let cfg = TrainConfig {
        max_retries: 3,
        ..quick_cfg()
    };
    let (rep, params) = train_tiny(&cfg);
    assert!(rep.diverged, "retries exhausted ⇒ diverged");
    assert_eq!(rep.recovered_divergences, 3);
    assert!(rep.test_metric.is_finite());
    assert!(
        !params.contains("NaN") && !params.contains("inf"),
        "surfaced parameters must be the last finite ones"
    );
}

#[test]
fn worker_panic_is_contained_and_bit_identical() {
    let _guard = FaultGuard::with_spec("worker_panic@2");
    let saved = (
        mixq::parallel::num_threads(),
        mixq::parallel::parallel_row_threshold(),
    );
    mixq::parallel::set_num_threads(4);
    mixq::parallel::set_parallel_row_threshold(2);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = Rng::seed_from_u64(9);
    let a = Matrix::from_fn(64, 24, |_, _| rng.normal());
    let b = Matrix::from_fn(24, 16, |_, _| rng.normal());
    let faulted = a.matmul(&b);
    let clean = a.matmul(&b); // rule consumed: second product is fault-free

    std::panic::set_hook(hook);
    mixq::parallel::set_num_threads(saved.0);
    mixq::parallel::set_parallel_row_threshold(saved.1);

    assert_eq!(
        faulted.data(),
        clean.data(),
        "serial retry of the panicked chunk must reproduce the exact result"
    );
}

fn drill_snapshot() -> (GcnSnapshot, CsrMatrix, Matrix) {
    let mut rng = Rng::seed_from_u64(13);
    let n = 32;
    let (fin, fout) = (5, 3);
    let x = Matrix::from_fn(n, fin, |_, _| rng.normal() * 0.5);
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.bernoulli(0.15) {
                entries.push(CooEntry {
                    row: i,
                    col: j,
                    val: 1.0,
                });
            }
        }
    }
    let adj = gcn_normalize(&CsrMatrix::from_coo(n, n, entries));
    let weight = Matrix::from_fn(fin, fout, |_, _| rng.normal() * 0.3);
    let snap = GcnSnapshot {
        input_qp: QuantParams::from_min_max(-2.0, 2.0, 8),
        layers: vec![GcnLayerSnapshot {
            weight,
            bias: Some(vec![0.1; fout]),
            w_qp: QuantParams::symmetric(-1.0, 1.0, 8),
            lin_qp: QuantParams::from_min_max(-2.0, 2.0, 8),
            agg_qp: QuantParams::from_min_max(-2.0, 2.0, 8),
            adj_bits: 8,
        }],
    };
    (snap, adj, x)
}

#[test]
fn accumulator_saturation_falls_back_per_layer_and_stays_close() {
    let (snap, adj, x) = drill_snapshot();
    let agg_scale = snap.layers[0].agg_qp.scale;

    let _guard = FaultGuard::with_spec("acc_saturate@1");
    let fallback_logits = QuantizedGcn::prepare(&snap, &adj).infer(&x);
    faultinject::clear();
    let integer_logits = QuantizedGcn::prepare(&snap, &adj).infer(&x);

    assert!(fallback_logits.data().iter().all(|v| v.is_finite()));
    let diff = fallback_logits.max_abs_diff(&integer_logits);
    assert!(
        diff <= 3.0 * agg_scale,
        "fallback drifted {diff} from the integer path (scale {agg_scale})"
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_to_straight_run() {
    let _guard = FaultGuard::clean();
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("mixq_ft_resume_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    // Straight run: 6 epochs in one go.
    let (rep_straight, params_straight) = train_tiny(&quick_cfg());

    // Interrupted run: 3 epochs with a checkpoint at epoch 3, then a second
    // process-restart-style run resuming from it for the remaining epochs.
    let first = TrainConfig {
        epochs: 3,
        checkpoint: Some(mixq::nn::CheckpointConfig {
            path: ckpt.clone(),
            every: 3,
        }),
        ..quick_cfg()
    };
    let _ = train_tiny(&first);
    assert!(ckpt.exists(), "checkpoint must be written at epoch 3");
    let second = TrainConfig {
        resume_from: Some(ckpt.clone()),
        ..quick_cfg()
    };
    let (rep_resumed, params_resumed) = train_tiny(&second);

    assert_eq!(
        params_straight, params_resumed,
        "resume must continue the exact parameter/optimizer/rng trajectory"
    );
    assert_eq!(rep_straight.test_metric, rep_resumed.test_metric);
    assert_eq!(rep_straight.final_train_loss, rep_resumed.final_train_loss);
    let _ = std::fs::remove_file(&ckpt);
}

// ---- train_graph and the relaxed search through the same recovery paths ----
//
// Rollback and resume restore what the epoch driver snapshots: the
// `ParamSet` (with Adam moments), the optimizer and the RNG. State a net
// keeps outside its `ParamSet` is not part of that snapshot: BatchNorm
// running statistics (`GinGraphNet`) and the EMA range observers of the
// quantized and relaxed nets. The graph tests below therefore use
// `GcnGraphNet`, whose state is all in its `ParamSet`, and the search tests
// assert only what holds for the relaxed nets' observers.

/// Runs `f` with telemetry on and returns the values it appended to series
/// `name`.
fn series_added(name: &str, f: impl FnOnce()) -> Vec<f64> {
    mixq::telemetry::set_enabled(true);
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

/// Current value of telemetry counter `name` (0 if never bumped).
fn counter(name: &str) -> u64 {
    mixq::telemetry::set_enabled(true);
    mixq::telemetry::snapshot()
        .counters
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

fn bits(s: &[f64]) -> Vec<u64> {
    s.iter().map(|v| v.to_bits()).collect()
}

fn graph_train_tiny(cfg: &TrainConfig) -> (GraphTrainReport, String) {
    let ds = proteins_like(7, 20);
    let train = GraphBundle::from_graphs(&ds, &(0..14).collect::<Vec<_>>());
    let test = GraphBundle::from_graphs(&ds, &(14..20).collect::<Vec<_>>());
    let mut rng = Rng::seed_from_u64(7);
    let mut ps = ParamSet::new();
    let mut net = GcnGraphNet::new(&mut ps, ds.feat_dim(), 8, ds.num_classes, 2, &mut rng);
    let rep = train_graph(&mut net, &mut ps, &train, &test, cfg);
    (rep, params_to_string(&ps))
}

fn assert_same_graph_run(a: &(GraphTrainReport, String), b: &(GraphTrainReport, String)) {
    assert_eq!(a.1, b.1, "parameters must be bit-identical");
    assert_eq!(a.0.train_acc.to_bits(), b.0.train_acc.to_bits());
    assert_eq!(a.0.test_acc.to_bits(), b.0.test_acc.to_bits());
    assert_eq!(
        a.0.final_train_loss.to_bits(),
        b.0.final_train_loss.to_bits()
    );
}

/// A relaxed GCN search on the tiny dataset: the returned assignment and the
/// α-entropy series it exported.
fn search_tiny(cfg: &SearchConfig) -> (BitAssignment, Vec<f64>) {
    let ds = tiny_dataset(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let mut a = None;
    let entropy = series_added("search.alpha_entropy", || {
        a = Some(search_gcn_bits(&ds, &bundle, &dims, &[2, 4, 8], 0.5, cfg));
    });
    (a.unwrap(), entropy)
}

fn quick_search_cfg() -> SearchConfig {
    SearchConfig {
        epochs: 8,
        lr: 0.05,
        lambda: 0.1,
        seed: 5,
        warmup: 1,
        ..SearchConfig::default()
    }
}

#[test]
fn graph_nan_gradient_recovery_is_bit_identical_to_clean_run() {
    let cfg = quick_cfg();
    let _guard = FaultGuard::with_spec("grad_nan@epoch=2");
    let faulted = graph_train_tiny(&cfg);
    assert_eq!(faulted.0.recovered_divergences, 1, "one rollback expected");
    assert!(!faulted.0.diverged);
    assert_eq!(faultinject::recovered_count(), 1);

    faultinject::clear();
    let clean = graph_train_tiny(&cfg);
    assert_eq!(clean.0.recovered_divergences, 0);
    assert_same_graph_run(&faulted, &clean);
}

#[test]
fn graph_checkpoint_resume_is_bit_identical_to_straight_run() {
    let _guard = FaultGuard::clean();
    let ckpt = std::env::temp_dir().join(format!("mixq_ft_graph_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    let straight = graph_train_tiny(&quick_cfg());
    let first = TrainConfig {
        epochs: 3,
        checkpoint: Some(CheckpointConfig {
            path: ckpt.clone(),
            every: 3,
        }),
        ..quick_cfg()
    };
    let _ = graph_train_tiny(&first);
    assert!(ckpt.exists(), "checkpoint must be written at epoch 3");
    let second = TrainConfig {
        resume_from: Some(ckpt.clone()),
        ..quick_cfg()
    };
    let resumed = graph_train_tiny(&second);
    let _ = std::fs::remove_file(&ckpt);
    assert_same_graph_run(&straight, &resumed);
}

#[test]
fn graph_exhausted_retries_restore_the_epoch_start_snapshot() {
    // Epoch 2 diverges on every retry: training stops with the parameters
    // of the epoch-2 start, i.e. those of a clean two-epoch run.
    let _guard = FaultGuard::with_spec(
        "grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2",
    );
    let aborts = counter("train_graph.divergence_aborts");
    let (rep, params) = graph_train_tiny(&quick_cfg());
    assert!(rep.diverged, "retries exhausted ⇒ diverged");
    assert_eq!(rep.recovered_divergences, 3);
    assert_eq!(counter("train_graph.divergence_aborts"), aborts + 1);

    faultinject::clear();
    let (_, clean) = graph_train_tiny(&TrainConfig {
        epochs: 2,
        ..quick_cfg()
    });
    assert_eq!(params, clean);
}

#[test]
fn search_nan_gradient_rollback_retries_the_epoch() {
    // The retried epoch re-observes its activations into the relaxed
    // quantizers' EMA observers, so from the faulted epoch on the search
    // drifts from a clean run (see the note above); before it, and in the
    // bookkeeping, the two agree.
    let cfg = quick_search_cfg();
    let _guard = FaultGuard::with_spec("grad_nan@epoch=2");
    let rollbacks = counter("search.divergence_rollbacks");
    let (a_f, entropy_f) = search_tiny(&cfg);
    assert_eq!(counter("search.divergence_rollbacks"), rollbacks + 1);
    assert_eq!(faultinject::recovered_count(), 1);
    assert_eq!(entropy_f.len(), cfg.epochs, "every epoch completes");
    assert!(entropy_f.iter().all(|e| e.is_finite()));
    assert!(a_f.bits.iter().all(|b| [2u8, 4, 8].contains(b)));

    faultinject::clear();
    let (_, entropy_c) = search_tiny(&cfg);
    assert_eq!(bits(&entropy_f[..2]), bits(&entropy_c[..2]));
}

#[test]
fn search_checkpoint_restores_alpha_and_resumes_at_its_epoch() {
    let _guard = FaultGuard::clean();
    let ckpt = std::env::temp_dir().join(format!("mixq_ft_search_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let resume_failures = counter("search.resume_failures");

    // Stop after epoch 5 (past warm-up, so α and its Adam moments are in
    // the checkpoint).
    let first = SearchConfig {
        epochs: 5,
        checkpoint: Some(CheckpointConfig {
            path: ckpt.clone(),
            every: 5,
        }),
        ..quick_search_cfg()
    };
    let (a_first, entropy_first) = search_tiny(&first);
    assert_eq!(entropy_first.len(), 5);
    assert!(ckpt.exists(), "checkpoint must be written at epoch 5");

    // Resuming the finished run runs no epoch and extracts the
    // checkpointed α: the same assignment.
    let (a_done, entropy_done) = search_tiny(&SearchConfig {
        epochs: 5,
        resume_from: Some(ckpt.clone()),
        ..quick_search_cfg()
    });
    assert_eq!(a_done, a_first);
    assert!(entropy_done.is_empty());

    // Resuming the longer run continues at epoch 5.
    let (_, entropy_rest) = search_tiny(&SearchConfig {
        resume_from: Some(ckpt.clone()),
        ..quick_search_cfg()
    });
    assert_eq!(entropy_rest.len(), 3);
    assert_eq!(counter("search.resume_failures"), resume_failures);

    // A checkpoint of other shapes is refused: the search starts fresh and
    // matches a straight run bit for bit.
    let mut other = ParamSet::new();
    other.add(Matrix::zeros(2, 2));
    mixq::nn::save_train_state(
        &mixq::nn::TrainState {
            epoch: 3,
            lr: 0.05,
            adam_t: 3,
            rng_state: Rng::seed_from_u64(1).state(),
            best_val: f64::NEG_INFINITY,
            best_epoch: 0,
            recovered: 0,
            params: other,
            best_params: ParamSet::new(),
        },
        &ckpt,
    )
    .expect("write mismatched checkpoint");
    let (a_fresh, entropy_fresh) = search_tiny(&SearchConfig {
        resume_from: Some(ckpt.clone()),
        ..quick_search_cfg()
    });
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(counter("search.resume_failures"), resume_failures + 1);
    let (a_straight, entropy_straight) = search_tiny(&quick_search_cfg());
    assert_eq!(a_fresh, a_straight);
    assert_eq!(bits(&entropy_fresh), bits(&entropy_straight));
}

#[test]
fn search_exhausted_retries_aborts_with_finite_alpha() {
    // Epoch 2 diverges on every retry: the search restores the epoch-start
    // snapshot and stops, so its α equals a clean two-epoch search's.
    let _guard = FaultGuard::with_spec(
        "grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2",
    );
    let cfg = SearchConfig {
        max_retries: 3,
        ..quick_search_cfg()
    };
    let aborts = counter("search.divergence_aborts");
    let (a_f, entropy_f) = search_tiny(&cfg);
    assert_eq!(counter("search.divergence_aborts"), aborts + 1);
    assert_eq!(entropy_f.len(), 2, "only the two clean epochs complete");
    assert!(entropy_f.iter().all(|e| e.is_finite()));

    faultinject::clear();
    let (a_c, entropy_c) = search_tiny(&SearchConfig { epochs: 2, ..cfg });
    assert_eq!(a_f, a_c, "assignment must come from the last finite α");
    assert_eq!(bits(&entropy_f), bits(&entropy_c));
}
