//! Quantized architectures, each defined once and built in one of two
//! modes:
//!
//! * **fixed** (QAT): every component of the schema (see [`crate::bits`])
//!   gets a fake quantizer at the bit-width a [`BitAssignment`] gives it.
//!   The nets implement `NodeNet`/`GraphNet`, so the standard trainers
//!   apply, and expose a [`CostModel`] so tables can report Bits / GBitOPs.
//! * **relaxed** (§4.1): every component gets one learnable logit α per
//!   candidate bit-width. Its forward pass outputs the softmax-weighted
//!   mixture of the candidate fake quantizations (Eq. 6) and records a
//!   differentiable bit-cost term `C(T)` (Eq. 8). The MixQ search
//!   ([`crate::search`]) trains this form with `L + λ·Σ C(T_i)` and takes
//!   `argmax α` as the bit-width assignment (Algorithm 1).
//!
//! A net keeps its quantization points as one list of sites in schema
//! order. The assignment check, the α list, the extracted assignment, the
//! per-batch degree refresh and the adjacency cache all come from that
//! list.

use std::sync::Arc;

use mixq_nn::{Fwd, GraphBundle, GraphNet, Linear, Mlp, NodeBundle, NodeNet, ParamId, ParamSet};
use mixq_tensor::{Matrix, MixqError, MixqResult, QuantParams, Rng, SpPair, Var};

use crate::bits::{gcn_graph_schema, gcn_schema, gin_graph_schema, sage_schema, BitAssignment};
use crate::cost::CostModel;
use crate::observer::Observer;
use crate::qat::FakeQuantizer;
use crate::qinfer::{GcnLayerSnapshot, GcnSnapshot, SageLayerSnapshot, SageSnapshot};
use crate::quantizers::{NodeQuant, QuantKind};
use Role::{Act, Adj, Weight};

/// Fake-quantizes the values of a sparse adjacency with a symmetric
/// quantizer (zero-point 0, so structural zeros stay exact — the property
/// Theorem 1's sparse integer path relies on). `bits ≥ 32` returns the
/// input unchanged.
pub fn quantize_adjacency(pair: &Arc<SpPair>, bits: u8) -> Arc<SpPair> {
    if bits >= 32 {
        return Arc::clone(pair);
    }
    let values = pair.a.values();
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let qp = QuantParams::symmetric(lo, hi, bits);
    SpPair::new(pair.a.map_values(|_, _, v| qp.fake(v)))
}

// ---- quantization sites -----------------------------------------------------

/// How a net's quantization sites are built.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    /// At the bit-widths of an assignment. Node activations use the
    /// [`QuantKind`], parameterized by the node in-degrees.
    Fixed(&'a BitAssignment, QuantKind, &'a [usize]),
    /// Relaxed over a bit-width menu, one α logit per entry.
    Relaxed(&'a [u8]),
}

/// What a site quantizes, and with what.
enum Quant {
    /// Fixed node activations, quantized by the net's [`QuantKind`].
    Act(NodeQuant),
    /// Fixed weights (always the native quantizer).
    Weight(FakeQuantizer),
    /// A relaxed dense tensor; one observed range feeds every candidate.
    Mixed(Observer),
    /// An adjacency, quantized at every candidate width. The copies are
    /// kept for the source adjacency they were made from: node-level
    /// training quantizes once, while graph-level training re-quantizes
    /// whenever a different batch arrives.
    Adj(Option<(Arc<SpPair>, Vec<Arc<SpPair>>)>),
}

/// One quantization point: its candidate bit-widths (one when fixed) and,
/// when relaxed, its α logits.
struct Site {
    bits: Vec<u8>,
    alphas: Option<ParamId>,
    quant: Quant,
}

/// A net's quantization sites, named by its schema.
pub(crate) struct Sites {
    pub(crate) names: Vec<String>,
    list: Vec<Site>,
    /// `(C(T), |T|)` of every relaxed site forwarded since the last
    /// [`Sites::take_penalties`].
    pens: Vec<(Var, usize)>,
}

/// The kind of tensor a site quantizes; with the mode, it picks the
/// site's quantizer.
enum Role {
    Act,
    Weight,
    Adj,
}

/// Creates a net's sites in schema order; each takes the next schema name.
struct SiteBuilder<'a> {
    mode: Mode<'a>,
    /// Holds the net's parameters and α logits.
    ps: &'a mut ParamSet,
    sites: Sites,
}

impl<'a> SiteBuilder<'a> {
    fn new(
        context: &'static str,
        schema: Vec<String>,
        mode: Mode<'a>,
        ps: &'a mut ParamSet,
    ) -> MixqResult<Self> {
        if matches!(mode, Mode::Fixed(a, ..) if a.names != schema) {
            return Err(MixqError::config(
                context,
                "assignment does not follow the schema",
            ));
        }
        assert!(!matches!(mode, Mode::Relaxed([])), "empty bit-width menu");
        let sites = Sites {
            list: Vec::with_capacity(schema.len()),
            names: schema,
            pens: Vec::new(),
        };
        Ok(Self { mode, ps, sites })
    }

    /// Adds the site of the next schema entry and returns its index.
    fn site(&mut self, role: Role) -> usize {
        let ps = &mut *self.ps;
        let i = self.sites.list.len();
        let (bits, alphas) = match self.mode {
            Mode::Fixed(a, ..) => (vec![a.bits[i]], None),
            Mode::Relaxed(menu) => (menu.to_vec(), Some(ps.add_zeros(1, menu.len()))),
        };
        let quant = match (role, self.mode) {
            (Adj, _) => Quant::Adj(None),
            (_, Mode::Relaxed(_)) => Quant::Mixed(Observer::new()),
            (Act, Mode::Fixed(_, kind, degrees)) => Quant::Act(kind.make(bits[0], degrees, ps)),
            (Weight, Mode::Fixed(..)) => Quant::Weight(FakeQuantizer::new(bits[0], false)),
        };
        self.sites.list.push(Site {
            bits,
            alphas,
            quant,
        });
        i
    }

    /// Builds a readout head. The fixed nets allocate its quantizers before
    /// its linears, the relaxed nets after; the `ParamSet` order is part of
    /// every checkpoint, so each mode keeps its own.
    fn head<L, Q>(
        &mut self,
        linears: impl FnOnce(&mut ParamSet) -> L,
        sites: impl FnOnce(&mut Self) -> Q,
    ) -> (L, Q) {
        if let Mode::Relaxed(_) = self.mode {
            let l = linears(self.ps);
            (l, sites(self))
        } else {
            let q = sites(self);
            (linears(self.ps), q)
        }
    }

    fn finish(self) -> Sites {
        assert_eq!(self.sites.list.len(), self.sites.names.len());
        self.sites
    }
}

/// Appends the bit-cost term `C(T)` of a relaxed site (Eq. 8).
fn penalize(pens: &mut Vec<(Var, usize)>, f: &mut Fwd, alphas: Var, bits: &[u8], numel: usize) {
    let bits: Vec<f32> = bits.iter().map(|&b| b as f32).collect();
    pens.push((f.tape.bit_penalty(alphas, &bits, numel), numel));
}

impl Sites {
    /// Quantizes the dense tensor `x` at site `i`.
    fn dense(&mut self, f: &mut Fwd, i: usize, x: Var) -> Var {
        let site = &mut self.list[i];
        match &mut site.quant {
            Quant::Act(q) => q.forward(f, x),
            Quant::Weight(q) => q.forward(f, x),
            Quant::Mixed(obs) => {
                if f.training || !obs.is_initialized() {
                    obs.observe(f.tape.value(x));
                }
                let qps: Vec<_> = site.bits.iter().map(|&b| obs.qparams(b, false)).collect();
                let av = f.bind(site.alphas.expect("relaxed sites have α logits"));
                let numel = f.tape.value(x).numel();
                let y = f.tape.relaxed_fake_quant(x, av, &qps);
                penalize(&mut self.pens, f, av, &site.bits, numel);
                y
            }
            Quant::Adj(_) => panic!("adjacency site {} used on a dense tensor", self.names[i]),
        }
    }

    /// `x·Q(W) + b` with the weight quantized at site `i` (the bias stays
    /// FP32, as is standard; STE lets gradients reach the FP32 master).
    fn linear(&mut self, f: &mut Fwd, lin: &Linear, i: usize, x: Var) -> Var {
        let w = f.bind(lin.w);
        let w = self.dense(f, i, w);
        let h = f.tape.matmul(x, w);
        match lin.b {
            Some(b) => {
                let bv = f.bind(b);
                f.tape.add_bias(h, bv)
            }
            None => h,
        }
    }

    /// Aggregates `x` over `pair` quantized at site `i`. A relaxed site
    /// mixes one SpMM per candidate: aggregation is linear, so
    /// `(Σ_i w_i Q_i(Â)) X = Σ_i w_i (Q_i(Â) X)` — the `×|B|` cost factor
    /// §4.2 attributes to the relaxed architecture.
    fn spmm(&mut self, f: &mut Fwd, i: usize, pair: &Arc<SpPair>, x: Var) -> Var {
        let site = &mut self.list[i];
        let Quant::Adj(cache) = &mut site.quant else {
            panic!("dense site {} used on an adjacency", self.names[i]);
        };
        if !matches!(cache, Some((src, _)) if Arc::ptr_eq(src, pair)) {
            let copies = site.bits.iter().map(|&b| quantize_adjacency(pair, b));
            *cache = Some((Arc::clone(pair), copies.collect()));
        }
        let quantized = &cache.as_ref().expect("filled above").1;
        let Some(alphas) = site.alphas else {
            return f.tape.spmm(&quantized[0], x);
        };
        let k = quantized.len();
        let av = f.bind(alphas);
        let logw = f.tape.log_softmax(av);
        let w = f.tape.exp(logw);
        let mut out: Option<Var> = None;
        for (c, q) in quantized.iter().enumerate() {
            let yc = f.tape.spmm(q, x);
            // w_c as a 1×1 var: ⟨w, e_c⟩.
            let e_c = Matrix::from_fn(1, k, |_, j| if j == c { 1.0 } else { 0.0 });
            let onehot = f.tape.constant(e_c);
            let wc_vec = f.tape.mul(w, onehot);
            let wc = f.tape.sum_all(wc_vec);
            let term = f.tape.mul_scalar_var(yc, wc);
            out = Some(out.map_or(term, |acc| f.tape.add(acc, term)));
        }
        penalize(&mut self.pens, f, av, &site.bits, pair.a.nnz());
        out.expect("non-empty menu")
    }

    /// Points the degree-driven activation quantizers (A²Q) at a new batch:
    /// node-level sites get the batch's in-degrees, the readout head's
    /// per-graph sites one degree per graph.
    fn set_degrees(&mut self, b: &GraphBundle) {
        let graph_degrees = vec![1usize; b.num_graphs()];
        for (name, site) in self.names.iter().zip(&mut self.list) {
            if let Quant::Act(q) = &mut site.quant {
                let head = name.starts_with("head.");
                q.set_degrees(if head { &graph_degrees } else { &b.degrees });
            }
        }
    }

    /// Bit-width of every site, in schema order: the argmax α of a relaxed
    /// site (Algorithm 1 line 25), read from `ps`, or its fixed width.
    pub(crate) fn extract(&self, ps: Option<&ParamSet>) -> BitAssignment {
        let bits = self.list.iter().map(|s| match (s.alphas, ps) {
            (Some(id), Some(ps)) => {
                let a = ps.value(id).data();
                let best = (1..a.len()).fold(0, |best, c| if a[c] > a[best] { c } else { best });
                s.bits[best]
            }
            _ => s.bits[0],
        });
        BitAssignment::new(self.names.clone(), bits.collect())
    }

    /// ParamIds of every α vector, in schema order.
    pub(crate) fn alpha_ids(&self) -> Vec<ParamId> {
        self.list.iter().filter_map(|s| s.alphas).collect()
    }

    pub(crate) fn take_penalties(&mut self) -> Vec<(Var, usize)> {
        std::mem::take(&mut self.pens)
    }

    /// The integer engine's quantization parameters for fixed site `i`,
    /// or why it cannot execute that component.
    fn qparams(&self, context: &'static str, i: usize) -> MixqResult<QuantParams> {
        let err = |why| Err(MixqError::config(context, why));
        match &self.list[i].quant {
            Quant::Weight(q) => Ok(q.qparams()),
            Quant::Act(NodeQuant::Native(q)) if !q.is_identity() => Ok(q.qparams()),
            Quant::Act(NodeQuant::Native(_)) => err("integer inference needs bits < 32"),
            _ => err("integer inference supports native quantizers only"),
        }
    }
}

/// A net built on [`Sites`]; lets the search reach them generically.
pub(crate) trait Quantized {
    fn sites(&mut self) -> &mut Sites;
}

macro_rules! impl_quantized {
    ($($net:ty),*) => {$(
        impl Quantized for $net {
            fn sites(&mut self) -> &mut Sites {
                &mut self.q
            }
        }
    )*};
}

impl_quantized!(QGcnNet, QSageNet, QGinGraphNet, QGcnGraphNet);

// ---- GCN layers (node GCN and GCN graph classifier) ------------------------

struct GcnLayer {
    lin: Linear,
    adj: usize,
    w: usize,
    lin_out: usize,
    agg_out: usize,
}

/// One GCN layer per `dims` step, sites `l{l}.adj / weight / lin_out / agg_out`.
fn gcn_layers(q: &mut SiteBuilder, dims: &[usize], rng: &mut Rng) -> Vec<GcnLayer> {
    dims.windows(2)
        .map(|d| GcnLayer {
            lin: Linear::new(q.ps, d[0], d[1], rng),
            adj: q.site(Adj),
            w: q.site(Weight),
            lin_out: q.site(Act),
            agg_out: q.site(Act),
        })
        .collect()
}

impl GcnLayer {
    /// `Q(Q(Â)·Q(x·Q(W) + b))`.
    fn forward(&self, f: &mut Fwd, q: &mut Sites, adj: &Arc<SpPair>, x: Var) -> Var {
        let h = q.linear(f, &self.lin, self.w, x);
        let h = q.dense(f, self.lin_out, h);
        let y = q.spmm(f, self.adj, adj, h);
        q.dense(f, self.agg_out, y)
    }
}

// ---- quantized GCN ----------------------------------------------------------

/// Quantized multi-layer GCN (schema: [`gcn_schema`]).
pub struct QGcnNet {
    dims: Vec<usize>,
    pub dropout: f32,
    q: Sites,
    input: usize,
    layers: Vec<GcnLayer>,
}

impl QGcnNet {
    /// `dims = [in, h…, classes]`; `assignment` must follow
    /// `gcn_schema(dims.len()-1)`. `degrees` (node in-degrees) parameterize
    /// the DQ/A²Q quantizers when `kind` requires them.
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mode = Mode::Fixed(&assignment, kind, degrees);
        Self::build(ps, dims, mode, dropout, rng)
    }

    pub(crate) fn build(
        ps: &mut ParamSet,
        dims: &[usize],
        mode: Mode,
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mut q = SiteBuilder::new("QGcnNet::new", gcn_schema(dims.len() - 1), mode, ps)?;
        let input = q.site(Act);
        let layers = gcn_layers(&mut q, dims, rng);
        Ok(Self {
            dims: dims.to_vec(),
            dropout,
            q: q.finish(),
            input,
            layers,
        })
    }

    /// Cost model for a graph with `n` nodes and `nnz` (normalized)
    /// adjacency non-zeros.
    pub fn cost_model(&self, n: u64, nnz: u64) -> CostModel {
        gcn_cost_model(&self.q.extract(None), &self.dims, n, nnz)
    }

    /// Exports the trained quantization parameters and weights for the
    /// integer inference engine (Fig. 5(iv)). Fails unless every component
    /// uses a native quantizer with bit-width < 32.
    pub fn snapshot(&self, ps: &ParamSet) -> MixqResult<GcnSnapshot> {
        let qp = |i| self.q.qparams("QGcnNet::snapshot", i);
        let input_qp = qp(self.input)?;
        let layers = self.layers.iter().map(|l| {
            Ok(GcnLayerSnapshot {
                weight: ps.value(l.lin.w).clone(),
                bias: l.lin.b.map(|b| ps.value(b).data().to_vec()),
                w_qp: qp(l.w)?,
                lin_qp: qp(l.lin_out)?,
                agg_qp: qp(l.agg_out)?,
                adj_bits: self.q.list[l.adj].bits[0],
            })
        });
        Ok(GcnSnapshot {
            input_qp,
            layers: layers.collect::<MixqResult<_>>()?,
        })
    }
}

/// BitOPs/Bits cost of a (possibly quantized) multi-layer GCN under a
/// [`gcn_schema`] assignment. Works for FP32 too (uniform 32-bit).
pub fn gcn_cost_model(a: &BitAssignment, dims: &[usize], n: u64, nnz: u64) -> CostModel {
    let nlayers = dims.len() - 1;
    assert_eq!(a.names, gcn_schema(nlayers));
    {
        let mut cm = CostModel::new();
        cm.add_component("input", n * dims[0] as u64, a.get("input"));
        let mut in_bits = a.get("input");
        for l in 0..nlayers {
            let (din, dout) = (dims[l] as u64, dims[l + 1] as u64);
            let bw = a.get(&format!("l{l}.weight"));
            let blin = a.get(&format!("l{l}.lin_out"));
            let badj = a.get(&format!("l{l}.adj"));
            let bagg = a.get(&format!("l{l}.agg_out"));
            cm.add_component(format!("l{l}.weight"), din * dout, bw);
            cm.add_component(format!("l{l}.lin_out"), n * dout, blin);
            cm.add_component(format!("l{l}.adj"), nnz, badj);
            cm.add_component(format!("l{l}.agg_out"), n * dout, bagg);
            cm.add_macs(format!("l{l}.xw"), n * din * dout, in_bits, bw);
            cm.add_macs(format!("l{l}.spmm"), nnz * dout, badj, blin);
            in_bits = bagg;
        }
        cm
    }
}

impl NodeNet for QGcnNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        let mut x = self.q.dense(f, self.input, x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            x = layer.forward(f, &mut self.q, &b.norm, x);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

/// The relaxed form of [`QGcnNet`] that the MixQ search trains. Its sites
/// follow [`gcn_schema`], so [`RelaxedGcnNet::extract`] produces an
/// assignment [`QGcnNet`] accepts directly.
pub struct RelaxedGcnNet(QGcnNet);

impl RelaxedGcnNet {
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        bit_choices: &[u8],
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        let net = QGcnNet::build(ps, dims, Mode::Relaxed(bit_choices), dropout, rng);
        Self(net.expect("relaxed sites follow their schema"))
    }

    /// Forward pass returning `(logits, penalty terms)`.
    pub fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> (Var, Vec<(Var, usize)>) {
        let y = self.0.forward(f, b, x);
        (y, self.0.q.take_penalties())
    }

    /// Argmax bit-widths in [`gcn_schema`] order.
    pub fn extract(&self, ps: &ParamSet) -> BitAssignment {
        self.0.q.extract(Some(ps))
    }

    /// ParamIds of every α vector (frozen during search warm-up).
    pub fn alpha_ids(&self) -> Vec<ParamId> {
        self.0.q.alpha_ids()
    }
}

// ---- quantized GraphSAGE ----------------------------------------------------

struct SageLayer {
    lin_root: Linear,
    lin_neigh: Linear,
    adj: usize,
    w_root: usize,
    w_neigh: usize,
    agg: usize,
    out: usize,
}

/// Quantized multi-layer GraphSAGE (schema: [`sage_schema`]).
pub struct QSageNet {
    dims: Vec<usize>,
    pub dropout: f32,
    q: Sites,
    input: usize,
    layers: Vec<SageLayer>,
}

impl QSageNet {
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mode = Mode::Fixed(&assignment, kind, degrees);
        Self::build(ps, dims, mode, dropout, rng)
    }

    pub(crate) fn build(
        ps: &mut ParamSet,
        dims: &[usize],
        mode: Mode,
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mut q = SiteBuilder::new("QSageNet::new", sage_schema(dims.len() - 1), mode, ps)?;
        let input = q.site(Act);
        let layers = dims
            .windows(2)
            .map(|d| SageLayer {
                lin_root: Linear::new(q.ps, d[0], d[1], rng),
                lin_neigh: Linear::new_no_bias(q.ps, d[0], d[1], rng),
                adj: q.site(Adj),
                w_root: q.site(Weight),
                w_neigh: q.site(Weight),
                agg: q.site(Act),
                out: q.site(Act),
            })
            .collect();
        Ok(Self {
            dims: dims.to_vec(),
            dropout,
            q: q.finish(),
            input,
            layers,
        })
    }

    pub fn cost_model(&self, n: u64, nnz: u64) -> CostModel {
        sage_cost_model(&self.q.extract(None), &self.dims, n, nnz)
    }

    /// Exports the trained quantization parameters and weights for the
    /// integer inference engine. Fails unless every component uses a native
    /// quantizer with bit-width < 32.
    pub fn snapshot(&self, ps: &ParamSet) -> MixqResult<SageSnapshot> {
        let qp = |i| self.q.qparams("QSageNet::snapshot", i);
        let input_qp = qp(self.input)?;
        let layers = self.layers.iter().map(|l| {
            Ok(SageLayerSnapshot {
                w_root: ps.value(l.lin_root.w).clone(),
                bias: l.lin_root.b.map(|b| ps.value(b).data().to_vec()),
                w_neigh: ps.value(l.lin_neigh.w).clone(),
                w_root_qp: qp(l.w_root)?,
                w_neigh_qp: qp(l.w_neigh)?,
                agg_qp: qp(l.agg)?,
                out_qp: qp(l.out)?,
                adj_bits: self.q.list[l.adj].bits[0],
            })
        });
        Ok(SageSnapshot {
            input_qp,
            layers: layers.collect::<MixqResult<_>>()?,
        })
    }
}

/// BitOPs/Bits cost of a multi-layer GraphSAGE under a [`sage_schema`]
/// assignment.
pub fn sage_cost_model(a: &BitAssignment, dims: &[usize], n: u64, nnz: u64) -> CostModel {
    let nlayers = dims.len() - 1;
    assert_eq!(a.names, sage_schema(nlayers));
    {
        let mut cm = CostModel::new();
        cm.add_component("input", n * dims[0] as u64, a.get("input"));
        let mut in_bits = a.get("input");
        for l in 0..nlayers {
            let (din, dout) = (dims[l] as u64, dims[l + 1] as u64);
            let badj = a.get(&format!("l{l}.adj"));
            let bwr = a.get(&format!("l{l}.w_root"));
            let bwn = a.get(&format!("l{l}.w_neigh"));
            let bagg = a.get(&format!("l{l}.agg"));
            let bout = a.get(&format!("l{l}.out"));
            cm.add_component(format!("l{l}.adj"), nnz, badj);
            cm.add_component(format!("l{l}.w_root"), din * dout, bwr);
            cm.add_component(format!("l{l}.w_neigh"), din * dout, bwn);
            cm.add_component(format!("l{l}.agg"), n * din, bagg);
            cm.add_component(format!("l{l}.out"), n * dout, bout);
            cm.add_macs(format!("l{l}.spmm"), nnz * din, badj, in_bits);
            cm.add_macs(format!("l{l}.root"), n * din * dout, in_bits, bwr);
            cm.add_macs(format!("l{l}.neigh"), n * din * dout, bagg, bwn);
            in_bits = bout;
        }
        cm
    }
}

impl NodeNet for QSageNet {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        let q = &mut self.q;
        let mut x = q.dense(f, self.input, x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            let agg = q.spmm(f, layer.adj, &b.mean, x);
            let agg = q.dense(f, layer.agg, agg);
            let root = q.linear(f, &layer.lin_root, layer.w_root, x);
            let neigh = q.linear(f, &layer.lin_neigh, layer.w_neigh, agg);
            let y = f.tape.add(root, neigh);
            x = q.dense(f, layer.out, y);
            if i < last {
                x = f.tape.relu(x);
            }
        }
        x
    }
}

// ---- quantized GIN (graph classification) -----------------------------------

struct GinLayer {
    mlp: Mlp,
    eps: ParamId,
    adj: usize,
    agg: usize,
    w1: usize,
    h1: usize,
    w2: usize,
    h2: usize,
}

/// Quantized GIN graph classifier (schema: [`gin_graph_schema`]):
/// `layers` GIN convolutions with 2-linear MLPs, global max pooling (the
/// paper's choice, to keep pooled values inside the quantization range),
/// then a quantized 2-linear head.
pub struct QGinGraphNet {
    /// `[in_dim, hidden, classes, layers]`.
    shape: [usize; 4],
    pub dropout: f32,
    q: Sites,
    input: usize,
    layers: Vec<GinLayer>,
    head: [Linear; 2],
    /// Sites `head.w1 / head.h1 / head.w2 / head.out`.
    head_sites: [usize; 4],
}

impl QGinGraphNet {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mode = Mode::Fixed(&assignment, kind, degrees);
        Self::build(ps, [in_dim, hidden, classes, nlayers], mode, rng)
    }

    pub(crate) fn build(
        ps: &mut ParamSet,
        shape: [usize; 4],
        mode: Mode,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let [in_dim, hidden, classes, nlayers] = shape;
        let mut q = SiteBuilder::new("QGinGraphNet::new", gin_graph_schema(nlayers), mode, ps)?;
        let input = q.site(Act);
        let mut dims = vec![hidden; nlayers + 1];
        dims[0] = in_dim;
        let layers = dims
            .windows(2)
            .map(|d| GinLayer {
                mlp: Mlp::new(q.ps, &[d[0], hidden, hidden], true, rng),
                eps: q.ps.add_zeros(1, 1),
                adj: q.site(Adj),
                agg: q.site(Act),
                w1: q.site(Weight),
                h1: q.site(Act),
                w2: q.site(Weight),
                h2: q.site(Act),
            })
            .collect();
        let (head, head_sites) = q.head(
            |ps| [hidden, classes].map(|out| Linear::new(ps, hidden, out, rng)),
            |q| [q.site(Weight), q.site(Act), q.site(Weight), q.site(Act)],
        );
        Ok(Self {
            shape,
            dropout: 0.3,
            q: q.finish(),
            input,
            layers,
            head,
            head_sites,
        })
    }

    pub fn cost_model(&self, n: u64, nnz: u64, num_graphs: u64) -> CostModel {
        let [i, h, c, l] = self.shape;
        gin_graph_cost_model(&self.q.extract(None), i, h, c, l, n, nnz, num_graphs)
    }
}

/// BitOPs/Bits cost of the GIN graph classifier under a
/// [`gin_graph_schema`] assignment.
#[allow(clippy::too_many_arguments)]
pub fn gin_graph_cost_model(
    a: &BitAssignment,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    n: u64,
    nnz: u64,
    num_graphs: u64,
) -> CostModel {
    assert_eq!(a.names, gin_graph_schema(nlayers));
    {
        let mut cm = CostModel::new();
        let h = hidden as u64;
        cm.add_component("input", n * in_dim as u64, a.get("input"));
        let mut in_bits = a.get("input");
        for l in 0..nlayers {
            let din = if l == 0 { in_dim as u64 } else { h };
            let badj = a.get(&format!("l{l}.adj"));
            let bagg = a.get(&format!("l{l}.agg"));
            let bw1 = a.get(&format!("l{l}.w1"));
            let bh1 = a.get(&format!("l{l}.h1"));
            let bw2 = a.get(&format!("l{l}.w2"));
            let bh2 = a.get(&format!("l{l}.h2"));
            cm.add_component(format!("l{l}.adj"), nnz, badj);
            cm.add_component(format!("l{l}.agg"), n * din, bagg);
            cm.add_component(format!("l{l}.w1"), din * h, bw1);
            cm.add_component(format!("l{l}.h1"), n * h, bh1);
            cm.add_component(format!("l{l}.w2"), h * h, bw2);
            cm.add_component(format!("l{l}.h2"), n * h, bh2);
            cm.add_macs(format!("l{l}.spmm"), nnz * din, badj, in_bits);
            cm.add_macs(format!("l{l}.lin1"), n * din * h, bagg.max(in_bits), bw1);
            cm.add_macs(format!("l{l}.lin2"), n * h * h, bh1, bw2);
            in_bits = bh2;
        }
        let g = num_graphs;
        let c = classes as u64;
        cm.add_component("head.w1", h * h, a.get("head.w1"));
        cm.add_component("head.h1", g * h, a.get("head.h1"));
        cm.add_component("head.w2", h * c, a.get("head.w2"));
        cm.add_component("head.out", g * c, a.get("head.out"));
        cm.add_macs("head.lin1", g * h * h, in_bits, a.get("head.w1"));
        cm.add_macs("head.lin2", g * h * c, a.get("head.h1"), a.get("head.w2"));
        cm
    }
}

impl GraphNet for QGinGraphNet {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, x: Var) -> Var {
        // Batches differ between train and eval; refresh degree-driven state.
        let q = &mut self.q;
        q.set_degrees(b);
        let mut x = q.dense(f, self.input, x);
        for layer in &mut self.layers {
            let agg = q.spmm(f, layer.adj, &b.raw, x);
            let agg = q.dense(f, layer.agg, agg);
            let eps = f.bind(layer.eps);
            let one = f.tape.constant(Matrix::scalar(1.0));
            let one_eps = f.tape.add(one, eps);
            let scaled = f.tape.mul_scalar_var(x, one_eps);
            let comb = f.tape.add(scaled, agg);
            // MLP layer 1 (+ BN) → ReLU → quantize; layer 2 → quantize.
            let mut h = q.linear(f, &layer.mlp.layers[0], layer.w1, comb);
            if let Some(bn) = layer.mlp.norms[0].as_mut() {
                h = bn.forward(f, h);
            }
            h = f.tape.relu(h);
            h = q.dense(f, layer.h1, h);
            let h2 = q.linear(f, &layer.mlp.layers[1], layer.w2, h);
            let h2 = q.dense(f, layer.h2, h2);
            x = f.tape.relu(h2);
        }
        let [w1, h1, w2, out] = self.head_sites;
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        let h = q.linear(f, &self.head[0], w1, pooled);
        let h = f.tape.relu(h);
        let h = q.dense(f, h1, h);
        let h = f.tape.dropout(h, self.dropout, f.rng, f.training);
        let y = q.linear(f, &self.head[1], w2, h);
        q.dense(f, out, y)
    }
}

// ---- quantized GCN graph classifier (CSL) ------------------------------------

/// Quantized GCN graph classifier (schema: [`gcn_graph_schema`]), the
/// 4-layer architecture of Table 9.
pub struct QGcnGraphNet {
    /// `[in_dim, hidden, classes, layers]`.
    shape: [usize; 4],
    q: Sites,
    input: usize,
    layers: Vec<GcnLayer>,
    head: Linear,
    /// Sites `head.w / head.out`.
    head_sites: [usize; 2],
}

impl QGcnGraphNet {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let mode = Mode::Fixed(&assignment, kind, degrees);
        Self::build(ps, [in_dim, hidden, classes, nlayers], mode, rng)
    }

    pub(crate) fn build(
        ps: &mut ParamSet,
        shape: [usize; 4],
        mode: Mode,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let [in_dim, hidden, classes, nlayers] = shape;
        let mut q = SiteBuilder::new("QGcnGraphNet::new", gcn_graph_schema(nlayers), mode, ps)?;
        let input = q.site(Act);
        let mut dims = vec![hidden; nlayers + 1];
        dims[0] = in_dim;
        let layers = gcn_layers(&mut q, &dims, rng);
        let (head, head_sites) = q.head(
            |ps| Linear::new(ps, hidden, classes, rng),
            |q| [q.site(Weight), q.site(Act)],
        );
        Ok(Self {
            shape,
            q: q.finish(),
            input,
            layers,
            head,
            head_sites,
        })
    }

    pub fn cost_model(&self, n: u64, nnz: u64, num_graphs: u64) -> CostModel {
        let [i, h, c, l] = self.shape;
        gcn_graph_cost_model(&self.q.extract(None), i, h, c, l, n, nnz, num_graphs)
    }
}

/// BitOPs/Bits cost of the GCN graph classifier under a
/// [`gcn_graph_schema`] assignment.
#[allow(clippy::too_many_arguments)]
pub fn gcn_graph_cost_model(
    a: &BitAssignment,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    n: u64,
    nnz: u64,
    num_graphs: u64,
) -> CostModel {
    assert_eq!(a.names, gcn_graph_schema(nlayers));
    {
        let mut cm = CostModel::new();
        let h = hidden as u64;
        cm.add_component("input", n * in_dim as u64, a.get("input"));
        let mut in_bits = a.get("input");
        for l in 0..nlayers {
            let din = if l == 0 { in_dim as u64 } else { h };
            let bw = a.get(&format!("l{l}.weight"));
            let blin = a.get(&format!("l{l}.lin_out"));
            let badj = a.get(&format!("l{l}.adj"));
            let bagg = a.get(&format!("l{l}.agg_out"));
            cm.add_component(format!("l{l}.weight"), din * h, bw);
            cm.add_component(format!("l{l}.lin_out"), n * h, blin);
            cm.add_component(format!("l{l}.adj"), nnz, badj);
            cm.add_component(format!("l{l}.agg_out"), n * h, bagg);
            cm.add_macs(format!("l{l}.xw"), n * din * h, in_bits, bw);
            cm.add_macs(format!("l{l}.spmm"), nnz * h, badj, blin);
            in_bits = bagg;
        }
        let g = num_graphs;
        let c = classes as u64;
        cm.add_component("head.w", h * c, a.get("head.w"));
        cm.add_component("head.out", g * c, a.get("head.out"));
        cm.add_macs("head", g * h * c, in_bits, a.get("head.w"));
        cm
    }
}

impl GraphNet for QGcnGraphNet {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, x: Var) -> Var {
        let q = &mut self.q;
        q.set_degrees(b);
        let mut x = q.dense(f, self.input, x);
        for layer in &self.layers {
            let y = layer.forward(f, q, &b.norm, x);
            x = f.tape.relu(y);
        }
        let [w, out] = self.head_sites;
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        let y = q.linear(f, &self.head, w, pooled);
        q.dense(f, out, y)
    }
}
