//! The untraced run: end-to-end metrics of one workload.

use std::time::{Duration, Instant};

use mixq_core::{gcn_schema, BitAssignment, QGcnNet, QuantizedGcn};
use mixq_nn::{accuracy, GcnNet, ParamSet, TrainReport};
use mixq_tensor::{Matrix, Rng};

use crate::ledger::Ledger;
use crate::pipeline::{
    agreement, serving_assignment, theorem1_reference_mismatches, Inputs, Replay, Workload,
    BIT_CHOICES, SEARCH_EPOCHS, TIMED_EPOCHS, TRAIN_EPOCHS,
};
use crate::stats::{highest_tail_percentile, median, percentile, samples_beyond, Metrics};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Inference rounds after each training round. Every workload runs the
/// same round structure, so workloads differ only in their graph.
pub const SERVE_ITERS: usize = 40;
/// Back-to-back `snapshot` + `prepare` calls per inference round, timed
/// together; a prepare sample is their mean. One call takes under a
/// millisecond on arxiv-like: timed one call at a time, its run median
/// spread by more than a quarter over ten runs on a shared host, while the
/// longer timings stayed within their bounds.
pub const PREPARE_BLOCK: usize = 4;
/// Fewest integer/FP32 inference rounds per run: enough that p90 has ten
/// samples beyond it.
pub const MIN_INFER_ITERS: usize = 120;
/// Floor on agreement between integer and fake-quant argmax (the one
/// `tests/integer_engine.rs` uses).
pub const MIN_INT_AGREE: f64 = 0.97;
/// Rows of each layer checked against the f64 Theorem-1 reference.
pub const REFERENCE_ROWS: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the inputs `reps` times and keeps the last; returns each build's
/// wall time in seconds.
pub fn setup(workload: Workload, seed: u64, reps: usize) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let inp = Inputs::new(workload, seed);
        times.push(t.elapsed().as_secs_f64());
        last = Some(inp);
    }
    (last.expect("reps >= 1"), times)
}

/// The trained nets a training round leaves behind, plus what later
/// rounds must reproduce exactly.
pub struct Trained {
    pub searched: BitAssignment,
    pub qat: (QGcnNet, ParamSet),
    pub qat_report: TrainReport,
    pub fp32: (GcnNet, ParamSet),
    pub fp32_report: TrainReport,
}

/// Epoch samples of the three training stages: per epoch for `train_node`,
/// per call (wall time over epochs) for the search, whose nets are built
/// inside the call.
#[derive(Default)]
pub struct EpochSamples {
    pub search_ms: Vec<f64>,
    pub qat_ms: Vec<f64>,
    pub fp32_ms: Vec<f64>,
}

fn check_report(l: &mut Ledger, what: &str, rep: &TrainReport) {
    l.recovered_divergences += rep.recovered_divergences;
    l.check(
        what,
        !rep.diverged && rep.final_train_loss.is_finite(),
        || {
            format!(
                "diverged={} final_train_loss={}",
                rep.diverged, rep.final_train_loss
            )
        },
    );
}

/// One training round: relaxed search, QAT of the serving assignment for
/// `epochs`, the same search again, FP32 training for `epochs`. Each call is timed and its result
/// checked against `first`, an earlier round of the same length (rounds are
/// seeded, so every round must reproduce its test metrics).
pub fn train_round(
    inp: &Inputs,
    epochs: usize,
    l: &mut Ledger,
    s: &mut EpochSamples,
    first: Option<&Trained>,
) -> Option<Trained> {
    let search = |l: &mut Ledger, s: &mut EpochSamples| {
        l.op("search_gcn_bits", || {
            let t = Instant::now();
            let a = inp.search();
            s.search_ms.push(ms(t.elapsed()) / SEARCH_EPOCHS as f64);
            Ok(a)
        })
    };
    let searched = search(l, s)?;
    l.check(
        "search assignment",
        searched.names == gcn_schema(2) && searched.bits.iter().all(|b| BIT_CHOICES.contains(b)),
        || format!("unexpected assignment {:?}", searched.bits),
    );

    let (qat, qat_report) = l.op("train_node QAT", || {
        let (mut net, mut ps) = inp.new_qat(serving_assignment());
        let (rep, times) = inp.train(&mut net, &mut ps, epochs);
        s.qat_ms.extend(times);
        Ok(((net, ps), rep))
    })?;
    check_report(l, "QAT report", &qat_report);

    // A second search between the two trainings doubles the search samples
    // and spreads them over the round.
    let again = search(l, s)?;
    l.check("search repeats", again == searched, || {
        format!("{:?} then {:?}", searched.bits, again.bits)
    });

    let (fp32, fp32_report) = l.op("train_node FP32", || {
        let (mut net, mut ps) = inp.new_fp32();
        let (rep, times) = inp.train(&mut net, &mut ps, epochs);
        s.fp32_ms.extend(times);
        Ok(((net, ps), rep))
    })?;
    check_report(l, "FP32 report", &fp32_report);

    if let Some(f) = first {
        l.check(
            "rounds repeat",
            f.qat_report.test_metric.to_bits() == qat_report.test_metric.to_bits()
                && f.fp32_report.test_metric.to_bits() == fp32_report.test_metric.to_bits(),
            || "a seeded round produced different test metrics".to_string(),
        );
    }
    Some(Trained {
        searched,
        qat,
        qat_report,
        fp32,
        fp32_report,
    })
}

/// `snapshot` + `prepare` with telemetry switched on for this one call, so
/// the engine's fallback counter can be read without tracing the run.
pub fn prepare_counting_fallbacks(
    inp: &Inputs,
    t: &Trained,
    l: &mut Ledger,
) -> Option<QuantizedGcn> {
    let was_on = mixq_telemetry::enabled();
    mixq_telemetry::set_enabled(true);
    let before = fallback_counter();
    let engine = l.op("snapshot + prepare", || {
        inp.prepare(&t.qat.0, &t.qat.1).map_err(|e| e.to_string())
    });
    l.fallback_layers += fallback_counter() - before;
    mixq_telemetry::set_enabled(was_on);
    engine
}

fn fallback_counter() -> u64 {
    mixq_telemetry::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "qinfer.fallback.layers")
        .map_or(0, |&(_, v)| v)
}

/// The correctness gate on a prepared engine: stage replay equals `infer`
/// bit for bit, Theorem-1 output equals the f64 reference on sampled rows,
/// integer and fake-quant argmax agree, and every logit is finite.
/// Returns `(int_agree, int_test_acc)`.
pub fn gate(
    inp: &Inputs,
    t: &mut Trained,
    int_logits: &Matrix,
    fp32_logits: &Matrix,
    l: &mut Ledger,
) -> Option<(f64, f64)> {
    let fq_logits = inp.logits(&mut t.qat.0, &t.qat.1);
    for (what, m) in [
        ("integer logits finite", int_logits),
        ("fake-quant logits finite", &fq_logits),
        ("FP32 logits finite", fp32_logits),
    ] {
        l.check(what, !m.has_non_finite(), || "non-finite logit".to_string());
    }

    let snap = l.op("snapshot", || {
        t.qat.0.snapshot(&t.qat.1).map_err(|e| e.to_string())
    })?;
    let replay = Replay::prepare(&snap, &inp.adj_norm, &mut None);
    let (replayed, io) = replay.infer(&inp.ds.features, &mut None);
    l.check("stage replay == infer", &replayed == int_logits, || {
        format!("max |diff| {}", replayed.max_abs_diff(int_logits))
    });

    let n = inp.ds.num_nodes();
    let mut rng = Rng::seed_from_u64(inp.seed ^ 0x7E57);
    let rows = rng.sample_indices(n, REFERENCE_ROWS.min(n));
    for (layer, o) in replay.layers.iter().zip(&io) {
        let bad = theorem1_reference_mismatches(layer, o, &rows);
        l.check("quantized_spmm == f64 reference", bad.is_empty(), || {
            format!(
                "{} of {} sampled rows differ, first {:?}",
                bad.len(),
                rows.len(),
                bad.first()
            )
        });
    }

    let agree = agreement(int_logits, &fq_logits);
    l.check("int_agree floor", agree >= MIN_INT_AGREE, || {
        format!("{agree} < {MIN_INT_AGREE}")
    });
    let acc = accuracy(int_logits, inp.ds.labels(), &inp.ds.test_idx);
    Some((agree, acc))
}

/// Timed inference samples (ms).
#[derive(Default)]
pub struct InferSamples {
    pub int_ms: Vec<f64>,
    pub fp32_ms: Vec<f64>,
    pub prepare_ms: Vec<f64>,
}

/// `iters` rounds of back-to-back integer inference, FP32 forward, and a
/// block of `PREPARE_BLOCK` snapshot + prepare calls, each output checked
/// against the first.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    inp: &Inputs,
    t: &mut Trained,
    engine: &QuantizedGcn,
    int_ref: &Matrix,
    fp32_ref: &Matrix,
    iters: usize,
    l: &mut Ledger,
    s: &mut InferSamples,
) {
    let features = &inp.ds.features;
    let bits = engine.bit_config();
    for _ in 0..iters {
        if let Some(out) = l.op("QuantizedGcn::infer", || {
            let t0 = Instant::now();
            let out = engine.infer(features);
            s.int_ms.push(ms(t0.elapsed()));
            Ok(out)
        }) {
            l.check("infer repeats", &out == int_ref, || {
                "logits changed".to_string()
            });
        }
        if let Some(out) = l.op("FP32 forward", || {
            let t0 = Instant::now();
            let out = inp.logits(&mut t.fp32.0, &t.fp32.1);
            s.fp32_ms.push(ms(t0.elapsed()));
            Ok(out)
        }) {
            l.check("FP32 forward repeats", &out == fp32_ref, || {
                "logits changed".to_string()
            });
        }
        // Each engine is checked and dropped before the next call, as a
        // single call's would be, so the block does not grow the heap.
        if let Some(same_bits) = l.op("snapshot + prepare", || {
            let t0 = Instant::now();
            let mut same_bits = true;
            for _ in 0..PREPARE_BLOCK {
                let e = inp.prepare(&t.qat.0, &t.qat.1).map_err(|e| e.to_string())?;
                same_bits &= e.bit_config() == bits;
            }
            s.prepare_ms.push(ms(t0.elapsed()) / PREPARE_BLOCK as f64);
            Ok(same_bits)
        }) {
            l.check("prepare bit config", same_bits, || {
                "prepared engine has other bit widths".to_string()
            });
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The tail of a timing: the highest percentile with at least ten samples
/// beyond it, as a report line (the tail does not repeat closely enough
/// across runs on a shared host to be a bounded metric).
fn tail_note(name: &str, xs: &[f64]) -> String {
    match highest_tail_percentile(xs.len()) {
        Some(p) => format!(
            "# tail {name} p{p} = {:.4} ms ({} samples, {} beyond)",
            percentile(xs, p),
            xs.len(),
            samples_beyond(xs.len(), p)
        ),
        None => format!("# tail {name}: {} samples, too few for a tail", xs.len()),
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub ledger: Ledger,
    pub notes: Vec<String>,
}

impl Outcome {
    /// A run cut short by a failed operation: no metrics.
    fn failed(ledger: Ledger) -> Self {
        Self {
            metrics: Metrics::default(),
            ledger,
            notes: Vec::new(),
        }
    }
}

/// The untraced run: set up, then cycle through an inference burst and a
/// training round until `seconds` have passed, then gate and report.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut l = Ledger::default();
    let (inp, setup_s) = setup(workload, seed, SETUP_REPS);

    // The first round trains the serving nets; later rounds use short
    // calls. Each round is followed by an inference burst.
    let start = Instant::now();
    let mut es = EpochSamples::default();
    let mut is = InferSamples::default();
    let Some(mut t) = train_round(&inp, TRAIN_EPOCHS, &mut l, &mut es, None) else {
        return Outcome::failed(l);
    };
    let Some(engine) = prepare_counting_fallbacks(&inp, &t, &mut l) else {
        return Outcome::failed(l);
    };
    let int_ref = engine.infer(&inp.ds.features);
    let fp32_ref = inp.logits(&mut t.fp32.0, &t.fp32.1);
    let mut short: Option<Trained> = None;
    loop {
        serve(
            &inp,
            &mut t,
            &engine,
            &int_ref,
            &fp32_ref,
            SERVE_ITERS,
            &mut l,
            &mut is,
        );
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let Some(round) = train_round(&inp, TIMED_EPOCHS, &mut l, &mut es, short.as_ref()) else {
            return Outcome::failed(l);
        };
        l.check("search repeats", round.searched == t.searched, || {
            format!("{:?} then {:?}", t.searched.bits, round.searched.bits)
        });
        short.get_or_insert(round);
    }
    if is.int_ms.len() < MIN_INFER_ITERS {
        let more = MIN_INFER_ITERS - is.int_ms.len();
        serve(
            &inp, &mut t, &engine, &int_ref, &fp32_ref, more, &mut l, &mut is,
        );
    }
    let measured_s = start.elapsed().as_secs_f64();
    let Some((int_agree, int_test_acc)) = gate(&inp, &mut t, &int_ref, &fp32_ref, &mut l) else {
        return Outcome::failed(l);
    };

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m.push("int_infer_ms_p50", median(&is.int_ms), "ms");
    m.push("fp32_infer_ms_p50", median(&is.fp32_ms), "ms");
    m.push("prepare_ms", median(&is.prepare_ms), "ms");
    m.push("int_agree", int_agree, "share");
    m.push("int_test_acc", int_test_acc, "share");
    m.push("fp32_epoch_ms", median(&es.fp32_ms), "ms");
    m.push("qat_epoch_ms", median(&es.qat_ms), "ms");
    m.push("search_epoch_ms", median(&es.search_ms), "ms");
    m.push("qat_test_acc", t.qat_report.test_metric, "share");

    let mut notes = vec![format!(
        "# samples setup={} search_calls={} qat_epochs={} fp32_epochs={} int_infer={} fp32_infer={} prepare={} over {:.2} s",
        setup_s.len(),
        es.search_ms.len(),
        es.qat_ms.len(),
        es.fp32_ms.len(),
        is.int_ms.len(),
        is.fp32_ms.len(),
        is.prepare_ms.len(),
        measured_s
    )];
    notes.push(tail_note("int_infer_ms", &is.int_ms));
    notes.push(tail_note("fp32_infer_ms", &is.fp32_ms));
    notes.push(format!(
        "# searched bits {:?} ({:.4} GBitOPs); serving bits {:?} ({:.4} GBitOPs); fp32_test_acc {:.4}",
        t.searched.bits,
        inp.gbit_ops(&t.searched),
        serving_assignment().bits,
        inp.gbit_ops(&serving_assignment()),
        t.fp32_report.test_metric
    ));
    Outcome {
        metrics: m,
        ledger: l,
        notes,
    }
}
