//! **MixQ-GNN core** — the paper's contribution.
//!
//! This crate implements mixed precision quantization for graph neural
//! networks as described in *"Efficient Mixed Precision Quantization in
//! Graph Neural Networks"* (ICDE 2025):
//!
//! * quantization-aware training machinery: range [`Observer`]s, the native
//!   [`FakeQuantizer`], and the structure-aware [`DqQuantizer`] /
//!   [`A2qQuantizer`] baselines;
//! * the quantized architectures ([`QGcnNet`], [`QSageNet`],
//!   [`QGinGraphNet`], [`QGcnGraphNet`]), each defined once in `qnets`:
//!   built from a per-component [`BitAssignment`] they are the fixed-bit
//!   QAT nets; built over a bit-width menu they are the relaxed
//!   (differentiable) nets the MixQ search of Algorithm 1 (`search`)
//!   trains ([`RelaxedGcnNet`] exposes the relaxed GCN);
//! * **Theorem 1**: exact quantized message passing with integer
//!   sparse-dense products (`theorem1`), and the fully-integer inference
//!   engine built on it (`qinfer`);
//! * the BitOPs / average-bits [`CostModel`] of §5.1.

pub mod bits;
pub mod cost;
pub mod lsq;
pub mod observer;
pub mod qat;
pub mod qinfer;
pub mod qnets;
pub mod quantizers;
pub mod search;
pub mod theorem1;

pub use bits::{gcn_graph_schema, gcn_schema, gin_graph_schema, sage_schema, BitAssignment};
pub use cost::{Component, CostModel, OpTerm};
pub use lsq::LsqQuantizer;
pub use observer::Observer;
pub use qat::{FakeQuantizer, RangePolicy};
pub use qinfer::{
    fixed_point_multiply, int_matmul_requant, quantize_csr_symmetric, quantize_multiplier,
    GcnLayerSnapshot, GcnSnapshot, LayerBits, QTensor, QuantizedGcn, QuantizedModel, QuantizedSage,
    SageLayerSnapshot, SageSnapshot,
};
pub use qnets::{
    gcn_cost_model, gcn_graph_cost_model, gin_graph_cost_model, quantize_adjacency,
    sage_cost_model, QGcnGraphNet, QGcnNet, QGinGraphNet, QSageNet, RelaxedGcnNet,
};
pub use quantizers::{A2qQuantizer, DqQuantizer, NodeQuant, QuantKind};
pub use search::{
    search_gcn_bits, search_gcn_graph_bits, search_gin_graph_bits, search_sage_bits, SearchConfig,
};
pub use theorem1::{quantized_matmul_dense, quantized_spmm, QmpParams};
