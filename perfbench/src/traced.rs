//! The traced run: per-layer metrics of one workload.
//!
//! The benchmark times its own calls into each crate's public functions on
//! the workload's inputs — the integer engine replayed stage by stage, the
//! FP32 forward, and training epochs driven part by part — and reads the
//! counters the program exports with telemetry on. Spans stay in memory and
//! are written once, at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use mixq_core::{search_gcn_bits, RelaxedGcnNet, SearchConfig};
use mixq_graph::NodeTargets;
use mixq_nn::{eval_node, train_node, Adam, Binding, Fwd, NodeNet, ParamSet};
use mixq_tensor::{Matrix, QuantParams, Rng, Tape, Var};

use crate::ledger::Ledger;
use crate::pipeline::{
    nnz_imbalance, serving_assignment, Inputs, Replay, Workload, BIT_CHOICES, DROPOUT,
    TIMED_EPOCHS, TRAIN_EPOCHS,
};
use crate::run::{self, EpochSamples, InferSamples};
use crate::stats::{median, relative_gap, remainder, Metrics};
use crate::trace::{Counts, Tracer};

/// Repetitions of each replayed stage.
const REPLAYS: usize = 15;
/// Integer inferences, each followed by its stage replay.
const INT_REPLAYS: usize = 30;
/// How far the replayed stages may add up away from the untraced `infer`
/// p50, as a share of it, on `serve-products`.
const MAX_REPLAY_GAP: f64 = 0.1;
/// Replayed epochs of each kind; the first is a warm-up and is dropped.
const REPLAY_EPOCHS: usize = 6;
/// Inference rounds in each overhead pass.
const OVERHEAD_INFER_ITERS: usize = 30;

fn count(c: &Counts, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0) as f64
}

/// Median over roots of one span name's summed self time (ms).
fn median_of(per_root: &[BTreeMap<&'static str, f64>], name: &str) -> f64 {
    let xs: Vec<f64> = per_root
        .iter()
        .map(|m| m.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&xs)
}

/// Median over spans named `root` of a counter delta, scaled by `scale`.
fn median_count(tr: &Tracer, root: &str, key: &str, scale: f64, skip: usize) -> f64 {
    let xs: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == root)
        .skip(skip)
        .map(|s| count(&s.counts, key) * scale)
        .collect();
    median(&xs)
}

/// One short training round plus a fixed count of inference rounds: the
/// unit of work the tracing overhead is measured on. Returns its wall time
/// in seconds.
fn overhead_pass(inp: &Inputs, l: &mut Ledger) -> Option<f64> {
    let t0 = Instant::now();
    let mut es = EpochSamples::default();
    let mut t = run::train_round(inp, TIMED_EPOCHS, l, &mut es, None)?;
    let engine = l.op("snapshot + prepare", || {
        inp.prepare(&t.qat.0, &t.qat.1).map_err(|e| e.to_string())
    })?;
    let int_ref = engine.infer(&inp.ds.features);
    let fp32_ref = inp.logits(&mut t.fp32.0, &t.fp32.1);
    let mut is = InferSamples::default();
    run::serve(
        inp,
        &mut t,
        &engine,
        &int_ref,
        &fp32_ref,
        OVERHEAD_INFER_ITERS,
        l,
        &mut is,
    );
    Some(t0.elapsed().as_secs_f64())
}

/// Which parts an epoch replay labels its forward and backward with.
struct EpochNames {
    root: &'static str,
    forward: &'static str,
    backward: &'static str,
}

/// Task loss over the training (or validation) split, as the trainers build it.
fn task_loss(tape: &mut Tape, logits: Var, inp: &Inputs, val: bool) -> Var {
    let idx = if val {
        &inp.ds.val_idx
    } else {
        &inp.ds.train_idx
    };
    match &inp.ds.targets {
        NodeTargets::SingleLabel { labels, .. } => {
            let targets: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            let lp = tape.log_softmax(logits);
            tape.nll_masked(lp, idx, &targets)
        }
        NodeTargets::MultiLabel(t) => tape.bce_with_logits_masked(logits, t, idx),
    }
}

/// The points `f` appends to the telemetry series `name`.
fn series_added(name: &str, f: impl FnOnce()) -> Vec<f64> {
    let series = || {
        mixq_telemetry::snapshot()
            .series
            .into_iter()
            .find(|(k, _)| k == name)
            .map_or_else(Vec::new, |(_, v)| v)
    };
    let before = series().len();
    f();
    series().split_off(before)
}

/// A replay's per-epoch values must equal, bit for bit, the series the
/// program's own trainer exports for the same net and seed; otherwise the
/// part-by-part replay no longer describes the program.
fn check_replay(l: &mut Ledger, what: &str, replayed: &[f64], program: &[f64]) {
    let same = replayed.len() == program.len()
        && replayed
            .iter()
            .zip(program)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    l.check(what, same, || {
        format!("replayed {replayed:?}, program {program:?}")
    });
}

/// The training losses `train_node` exports over `REPLAY_EPOCHS` epochs of
/// a fresh net.
fn program_losses<M: NodeNet>(inp: &Inputs, (mut net, mut ps): (M, ParamSet)) -> Vec<f64> {
    series_added("train.loss", || {
        train_node(
            &mut net,
            &mut ps,
            &inp.ds,
            &inp.bundle,
            &inp.train_config(REPLAY_EPOCHS),
        );
    })
}

/// Replays `train_node`'s epoch part by part: rollback snapshot, forward,
/// loss, backward, gradient pull, optimizer step, validation eval and the
/// best-parameter copy. Divergences are counted, not retried. Returns the
/// training loss of each epoch, as `train_node` exports it.
fn replay_node_epochs<M: NodeNet>(
    inp: &Inputs,
    net: &mut M,
    ps: &mut ParamSet,
    names: &EpochNames,
    tr: &mut Tracer,
    l: &mut Ledger,
) -> Vec<f64> {
    let cfg = inp.train_config(REPLAY_EPOCHS);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut best_val = f64::NEG_INFINITY;
    let mut losses = Vec::with_capacity(REPLAY_EPOCHS);
    for _ in 0..REPLAY_EPOCHS {
        let root = tr.open_counted(names.root);
        let id = tr.open("nn.param_snapshot");
        let snap = (ps.clone(), opt.clone(), rng.clone());
        tr.close(id);
        ps.zero_grads();
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let id = tr.open(names.forward);
        let logits = {
            let mut f = Fwd {
                tape: &mut tape,
                ps,
                binding: &mut binding,
                rng: &mut rng,
                training: true,
            };
            let x = f.tape.constant(inp.bundle.features.clone_pooled());
            net.forward(&mut f, &inp.bundle, x)
        };
        tr.close(id);
        let loss = task_loss(&mut tape, logits, inp, false);
        let loss_v = tape.value(loss).item();
        losses.push(loss_v as f64);
        let id = tr.open(names.backward);
        tape.backward(loss);
        tr.close(id);
        ps.pull_grads(&binding, &tape);
        tape.recycle();
        l.check(
            "replayed epoch finite",
            loss_v.is_finite() && ps.grads_finite(),
            || format!("loss {loss_v}"),
        );
        let id = tr.open("nn.adam_step");
        opt.step(ps);
        tr.close(id);
        let id = tr.open("nn.eval");
        let val = eval_node(net, ps, &inp.ds, &inp.bundle, &inp.ds.val_idx, &mut rng);
        tr.close(id);
        if val > best_val {
            best_val = val;
            let id = tr.open("nn.param_snapshot");
            std::hint::black_box(ps.clone());
            tr.close(id);
        }
        drop(snap);
        tr.close(root);
    }
    losses
}

/// The search the relaxed replay follows: every epoch past warm-up.
fn replay_search_config(inp: &Inputs) -> SearchConfig {
    SearchConfig {
        epochs: REPLAY_EPOCHS,
        warmup: 0,
        seed: inp.seed,
        ..SearchConfig::default()
    }
}

/// Replays post-warm-up search epochs (`train_relaxed`): a Θ step on the
/// training loss and an α step on the validation loss plus the bit penalty.
/// Returns the penalty of each α step, as the search exports it.
fn replay_relaxed_epochs(inp: &Inputs, tr: &mut Tracer, l: &mut Ledger) -> Vec<f64> {
    let cfg = replay_search_config(inp);
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA1);
    let mut net = RelaxedGcnNet::new(&mut ps, &inp.dims, &BIT_CHOICES, DROPOUT, &mut rng);
    let alpha_ids = net.alpha_ids();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut penalties = Vec::with_capacity(REPLAY_EPOCHS);
    for _ in 0..REPLAY_EPOCHS {
        let root = tr.open_counted("replay.epoch.relaxed");
        let id = tr.open("nn.param_snapshot");
        let snap = (ps.clone(), opt.clone(), rng.clone());
        tr.close(id);
        for alpha_step in [false, true] {
            ps.zero_grads();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let id = tr.open("core.relaxed.forward");
            let (logits, pens) = {
                let mut f = Fwd {
                    tape: &mut tape,
                    ps: &ps,
                    binding: &mut binding,
                    rng: &mut rng,
                    training: !alpha_step,
                };
                let x = f.tape.constant(inp.bundle.features.clone());
                net.forward(&mut f, &inp.bundle, x)
            };
            tr.close(id);
            let mut loss = task_loss(&mut tape, logits, inp, alpha_step);
            if alpha_step {
                let total_elems: usize = pens.iter().map(|&(_, n)| n).sum();
                let norm = 0.02 * cfg.lambda * (1024.0 * 8.0) / total_elems.max(1) as f32;
                penalties.push(
                    pens.iter()
                        .map(|&(p, _)| tape.value(p).item() as f64 * norm as f64)
                        .sum(),
                );
                for (p, _) in pens {
                    let sp = tape.scale(p, norm);
                    loss = tape.add(loss, sp);
                }
            }
            let loss_v = tape.value(loss).item();
            let id = tr.open("core.relaxed.backward");
            tape.backward(loss);
            tr.close(id);
            ps.pull_grads(&binding, &tape);
            tape.recycle();
            for id in ps.all_ids() {
                if alpha_ids.contains(&id) != alpha_step {
                    ps.grad_zero(id);
                }
            }
            l.check(
                "replayed search step finite",
                loss_v.is_finite() && ps.grads_finite(),
                || format!("loss {loss_v}"),
            );
            let id = tr.open("nn.adam_step");
            opt.step(&mut ps);
            tr.close(id);
        }
        drop(snap);
        tr.close(root);
    }
    penalties
}

/// Replays the fake-quant tape op (forward and STE backward) on the shapes
/// the QAT net quantizes every epoch: the input, and per layer the weight,
/// the linear output and the aggregated output. The adjacency is left out:
/// the QAT net caches its quantized copy.
fn replay_fake_quant(inp: &Inputs, tr: &mut Tracer) {
    let n = inp.ds.num_nodes();
    let a = serving_assignment();
    let mut shapes = vec![(n, inp.dims[0], a.get("input"))];
    for l in 0..inp.dims.len() - 1 {
        let (din, dout) = (inp.dims[l], inp.dims[l + 1]);
        shapes.push((din, dout, a.get(&format!("l{l}.weight"))));
        shapes.push((n, dout, a.get(&format!("l{l}.lin_out"))));
        shapes.push((n, dout, a.get(&format!("l{l}.agg_out"))));
    }
    let mut rng = Rng::seed_from_u64(inp.seed ^ 0xFA4E);
    let inputs: Vec<(Matrix, QuantParams)> = shapes
        .iter()
        .map(|&(r, c, bits)| {
            let m = Matrix::from_fn(r, c, |_, _| rng.normal());
            let qp = QuantParams::from_min_max(m.min(), m.max(), bits);
            (m, qp)
        })
        .collect();
    for _ in 0..REPLAYS {
        let root = tr.open("replay.fake_quant");
        for (m, qp) in &inputs {
            let mut tape = Tape::new();
            let x = tape.leaf(m.clone());
            let id = tr.open("tensor.fake_quant");
            let y = tape.fake_quant(x, *qp);
            tr.close(id);
            let s = tape.sum_all(y);
            let id = tr.open("tensor.fake_quant");
            tape.backward(s);
            tr.close(id);
            std::hint::black_box(tape.grad(x));
            tape.recycle();
        }
        tr.close(root);
    }
}

pub struct TracedOutcome {
    pub metrics: Metrics,
    pub ledger: Ledger,
    pub notes: Vec<String>,
    pub trace_json: String,
}

impl TracedOutcome {
    /// A run cut short by a failed operation: the trace so far, no metrics.
    fn failed(ledger: Ledger, tr: &Tracer) -> Self {
        Self {
            metrics: Metrics::default(),
            ledger,
            notes: Vec::new(),
            trace_json: tr.to_json(),
        }
    }
}

/// The traced run. Telemetry is switched on only for the traced parts.
pub fn run(workload: Workload, seed: u64) -> TracedOutcome {
    let mut l = Ledger::default();
    let mut tr = Tracer::new();

    mixq_telemetry::set_enabled(false);
    let inp = Inputs::new(workload, seed);
    // The serving nets, trained as in the untraced run.
    let mut es = EpochSamples::default();
    let Some(mut t) = run::train_round(&inp, TRAIN_EPOCHS, &mut l, &mut es, None) else {
        return TracedOutcome::failed(l, &tr);
    };

    // Overhead: after one untimed warm-up pass, short passes alternating
    // untraced and traced in an order where drift favours neither side.
    if overhead_pass(&inp, &mut l).is_none() {
        return TracedOutcome::failed(l, &tr);
    }
    mixq_telemetry::reset();
    let (mut off, mut on) = (0.0, 0.0);
    let mut pass_counts = Counts::new();
    for traced in [false, true, true, false, false, true] {
        mixq_telemetry::set_enabled(traced);
        let id = traced.then(|| tr.open_counted("pass"));
        let Some(secs) = overhead_pass(&inp, &mut l) else {
            return TracedOutcome::failed(l, &tr);
        };
        match id {
            Some(id) => {
                tr.close(id);
                for (k, v) in &tr.spans()[id].counts {
                    *pass_counts.entry(k.clone()).or_default() += v;
                }
                on += secs;
            }
            None => off += secs,
        }
    }
    mixq_telemetry::set_enabled(false);

    // The integer engine and its stage replay, interleaved call by call so
    // the untraced `infer` p50 (the replay's yardstick) sees the same host.
    let snap = t
        .qat
        .0
        .snapshot(&t.qat.1)
        .expect("native quantizers below 32 bits");
    let engine = mixq_core::QuantizedGcn::prepare(&snap, &inp.adj_norm);
    let replay = Replay::prepare(&snap, &inp.adj_norm, &mut None);
    let mut int_ms = Vec::with_capacity(INT_REPLAYS);
    let mut io = Vec::new();
    for _ in 0..INT_REPLAYS {
        let t0 = Instant::now();
        std::hint::black_box(engine.infer(&inp.ds.features));
        int_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let root = tr.open("replay.int_infer");
        let mut tro = Some(&mut tr);
        let (logits, layer_io) = replay.infer(&inp.ds.features, &mut tro);
        tr.close(root);
        std::hint::black_box(logits);
        io = layer_io;
    }
    let int_p50 = median(&int_ms);
    for _ in 0..REPLAYS {
        let root = tr.open("replay.prepare");
        let mut tro = Some(&mut tr);
        drop(Replay::prepare(&snap, &inp.adj_norm, &mut tro));
        tr.close(root);
    }
    for _ in 0..3 {
        let root = tr.open("setup");
        let mut tro = Some(&mut tr);
        drop(Inputs::with_tracer(workload, seed, &mut tro));
        tr.close(root);
    }

    // The rest reads the program's kernel timers and counters.
    mixq_telemetry::set_enabled(true);
    for _ in 0..REPLAYS {
        let root = tr.open_counted("replay.fp32_forward");
        std::hint::black_box(inp.logits(&mut t.fp32.0, &t.fp32.1));
        tr.close(root);
    }
    // Each epoch replay runs next to the program's own trainer on a net
    // built the same way, and must reproduce its exported series.
    let (mut fnet, mut fps) = inp.new_fp32();
    let fp32_names = EpochNames {
        root: "replay.epoch.fp32",
        forward: "nn.fp32.forward",
        backward: "nn.fp32.backward",
    };
    let replayed = replay_node_epochs(&inp, &mut fnet, &mut fps, &fp32_names, &mut tr, &mut l);
    let program = program_losses(&inp, inp.new_fp32());
    check_replay(
        &mut l,
        "FP32 epoch replay == train_node",
        &replayed,
        &program,
    );
    let (mut qnet, mut qps) = inp.new_qat(serving_assignment());
    let qat_names = EpochNames {
        root: "replay.epoch.qat",
        forward: "core.qat.forward",
        backward: "core.qat.backward",
    };
    let replayed = replay_node_epochs(&inp, &mut qnet, &mut qps, &qat_names, &mut tr, &mut l);
    let program = program_losses(&inp, inp.new_qat(serving_assignment()));
    check_replay(
        &mut l,
        "QAT epoch replay == train_node",
        &replayed,
        &program,
    );
    let replayed = replay_relaxed_epochs(&inp, &mut tr, &mut l);
    let program = series_added("search.penalty", || {
        search_gcn_bits(
            &inp.ds,
            &inp.bundle,
            &inp.dims,
            &BIT_CHOICES,
            DROPOUT,
            &replay_search_config(&inp),
        );
    });
    check_replay(
        &mut l,
        "search epoch replay == search_gcn_bits",
        &replayed,
        &program,
    );
    replay_fake_quant(&inp, &mut tr);
    mixq_telemetry::set_enabled(false);

    // ---- integer engine -----------------------------------------------------
    let mut m = Metrics::default();
    let stage = tr.self_ms_by_root("replay.int_infer");
    let quantize_input = median_of(&stage, "core.qinfer.quantize_input");
    let int_matmul = median_of(&stage, "core.qinfer.int_matmul");
    let t1_spmm = median_of(&stage, "core.theorem1.spmm");
    let spmm_int = median_of(&stage, "sparse.spmm_int");
    let relu_dequant = median_of(&stage, "core.qinfer.relu_dequant");
    m.push("core.qinfer.quantize_input_ms", quantize_input, "ms");
    m.push("core.qinfer.int_matmul_ms", int_matmul, "ms");
    m.push("core.theorem1.spmm_ms", t1_spmm, "ms");
    m.push("sparse.spmm_int_ms", spmm_int, "ms");
    m.push(
        "core.theorem1.epilogue_ms",
        remainder(t1_spmm, &[spmm_int]),
        "ms",
    );
    m.push("core.qinfer.relu_dequant_ms", relu_dequant, "ms");
    let stage_sum = quantize_input + int_matmul + t1_spmm + relu_dequant;
    let replay_gap = relative_gap(stage_sum, int_p50);
    m.push("core.qinfer.replay_gap", replay_gap, "share");
    if workload == Workload::ServeProducts {
        l.check(
            "replayed stages add up to infer",
            replay_gap <= MAX_REPLAY_GAP,
            || format!("stages {stage_sum:.3} ms, infer p50 {int_p50:.3} ms"),
        );
    }
    m.push("core.qinfer.int_macs", replay.int_macs(&io) as f64, "count");
    m.push(
        "core.qinfer.bytes_computed",
        replay.bytes_computed(&io) as f64,
        "bytes",
    );
    let i32_path = count(&pass_counts, "qcsr.spmm.i32_path");
    let i64_path = count(&pass_counts, "qcsr.spmm.i64_path");
    m.push(
        "sparse.qcsr.i32_path_share",
        i32_path / (i32_path + i64_path).max(1.0),
        "share",
    );
    m.push(
        "core.qinfer.fallback_layers",
        count(&pass_counts, "qinfer.fallback.layers"),
        "count",
    );
    let prep = tr.self_ms_by_root("replay.prepare");
    m.push(
        "sparse.quantize_csr_ms",
        median_of(&prep, "sparse.quantize_csr"),
        "ms",
    );
    m.push(
        "core.qinfer.quantize_weights_ms",
        median_of(&prep, "core.qinfer.quantize_weights"),
        "ms",
    );

    // ---- FP32 forward -------------------------------------------------------
    let fwd = tr.self_ms_by_root("replay.fp32_forward");
    let fwd_ms = median_of(&fwd, "replay.fp32_forward");
    let matmul = median_count(&tr, "replay.fp32_forward", "tensor.matmul.ns.sum", 1e-6, 0);
    let spmm_f32 = median_count(
        &tr,
        "replay.fp32_forward",
        "sparse.spmm_f32.ns.sum",
        1e-6,
        0,
    );
    m.push("tensor.matmul_ms", matmul, "ms");
    m.push("sparse.spmm_f32_ms", spmm_f32, "ms");
    m.push(
        "nn.forward_other_ms",
        remainder(fwd_ms, &[matmul, spmm_f32]),
        "ms",
    );
    m.push(
        "parallel.nnz_imbalance_t2",
        nnz_imbalance(&inp.adj_norm, 2),
        "ratio",
    );
    m.push(
        "parallel.nnz_imbalance_t4",
        nnz_imbalance(&inp.adj_norm, 4),
        "ratio",
    );

    // ---- training epochs (one epoch of each kind, summed) ----------------------
    let kinds = [
        "replay.epoch.fp32",
        "replay.epoch.qat",
        "replay.epoch.relaxed",
    ];
    let per_kind: Vec<Vec<BTreeMap<&'static str, f64>>> = kinds
        .iter()
        .map(|k| tr.self_ms_by_root(k).into_iter().skip(1).collect())
        .collect();
    let part = |name: &str| -> f64 { per_kind.iter().map(|e| median_of(e, name)).sum() };
    let parts = [
        ("nn.fp32.forward_ms", part("nn.fp32.forward")),
        ("nn.fp32.backward_ms", part("nn.fp32.backward")),
        ("core.qat.forward_ms", part("core.qat.forward")),
        ("core.qat.backward_ms", part("core.qat.backward")),
        ("core.relaxed.forward_ms", part("core.relaxed.forward")),
        ("core.relaxed.backward_ms", part("core.relaxed.backward")),
        ("nn.adam_step_ms", part("nn.adam_step")),
        ("nn.eval_ms", part("nn.eval")),
        ("nn.param_snapshot_ms", part("nn.param_snapshot")),
    ];
    for (name, v) in parts {
        m.push(name, v, "ms");
    }
    let epoch_total: f64 = per_kind
        .iter()
        .map(|e| {
            let totals: Vec<f64> = e.iter().map(|m| m.values().sum()).collect();
            median(&totals)
        })
        .sum();
    let parts_sum: Vec<f64> = parts.iter().map(|&(_, v)| v).collect();
    m.push(
        "nn.epoch_other_ms",
        remainder(epoch_total, &parts_sum),
        "ms",
    );
    let fq = tr.self_ms_by_root("replay.fake_quant");
    m.push(
        "tensor.fake_quant_ms",
        median_of(&fq, "tensor.fake_quant"),
        "ms",
    );

    let gemm_keys = ["tensor.matmul", "tensor.matmul_at_b", "tensor.matmul_a_bt"];
    let per_epoch = |key: &dyn Fn(&str) -> String, scale: f64| -> f64 {
        kinds
            .iter()
            .map(|k| {
                gemm_keys
                    .iter()
                    .map(|g| median_count(&tr, k, &key(g), scale, 1))
                    .sum::<f64>()
            })
            .sum()
    };
    m.push(
        "tensor.gemm_ms",
        per_epoch(&|g| format!("{g}.ns.sum"), 1e-6),
        "ms",
    );
    m.push(
        "tensor.gemm_macs",
        per_epoch(&|g| format!("{g}.work"), 1.0),
        "count",
    );
    let spmm_epoch: f64 = kinds
        .iter()
        .map(|k| median_count(&tr, k, "sparse.spmm_f32.ns.sum", 1e-6, 1))
        .sum();
    m.push("sparse.spmm_f32_epoch_ms", spmm_epoch, "ms");
    let (hit, miss): (f64, f64) =
        tr.spans()
            .iter()
            .filter(|s| kinds.contains(&s.name))
            .fold((0.0, 0.0), |(h, mi), s| {
                (
                    h + count(&s.counts, "pool.hit_bytes"),
                    mi + count(&s.counts, "pool.miss_bytes"),
                )
            });
    m.push(
        "tensor.pool.hit_ratio",
        hit / (hit + miss).max(1.0),
        "share",
    );
    let rollbacks = ["train.divergence_rollbacks", "search.divergence_rollbacks"]
        .iter()
        .map(|k| count(&pass_counts, k))
        .sum::<f64>();
    m.push("nn.divergence_rollbacks", rollbacks, "count");

    // ---- set-up and the search's output ---------------------------------------
    let setup = tr.self_ms_by_root("setup");
    m.push(
        "graph.generate_ms",
        median_of(&setup, "graph.generate"),
        "ms",
    );
    m.push("nn.bundle_ms", median_of(&setup, "nn.bundle"), "ms");
    m.push(
        "sparse.gcn_normalize_ms",
        median_of(&setup, "sparse.gcn_normalize"),
        "ms",
    );
    m.push("core.search.gbitops", inp.gbit_ops(&t.searched), "GBitOPs");

    m.push("telemetry.overhead_pct", (on - off) / off * 100.0, "%");
    let notes = vec![format!(
        "# overhead passes: untraced {off:.3} s, traced {on:.3} s (three each)"
    )];
    // The traced nets must still be usable: one more real eval guards
    // against a replay that left the tape or pool in a bad state.
    let fq_ok = !inp.logits(&mut t.qat.0, &t.qat.1).has_non_finite();
    l.check("logits finite after replays", fq_ok, || {
        "non-finite".to_string()
    });

    TracedOutcome {
        metrics: m,
        ledger: l,
        notes,
        trace_json: tr.to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_check_wants_every_bit() {
        let mut l = Ledger::default();
        check_replay(&mut l, "same", &[1.5, -0.0], &[1.5, -0.0]);
        assert_eq!((l.attempted, l.failed), (1, 0));
        check_replay(&mut l, "sign of zero", &[0.0], &[-0.0]);
        check_replay(&mut l, "one ulp", &[1.0], &[1.0 + f64::EPSILON]);
        check_replay(&mut l, "length", &[1.0], &[1.0, 2.0]);
        assert_eq!((l.attempted, l.failed), (4, 3));
    }
}
