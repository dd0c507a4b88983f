//! Neural-network substrate for MixQ-GNN: parameter storage, FP32 layers
//! (dense and message-passing), optimizers, metrics, full architectures and
//! the shared training loops. The quantized counterparts in `mixq-core`
//! implement the same [`NodeNet`]/[`GraphNet`] traits, so every experiment
//! in the paper runs through the same trainer.

pub mod conv;
mod driver;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod param;
pub mod serialize;

pub use conv::{
    with_self_loops, AppnpProp, GatConv, GcnConv, GinConv, SageConv, SgcConv, TagConv,
    TransformerConv,
};
pub use driver::EpochDriver;
pub use layers::{BatchNorm1d, Linear, Mlp};
pub use metrics::{
    accuracy, confusion_matrix, macro_f1, mean_std, pearson, roc_auc, roc_auc_mean, spearman,
};
pub use models::{
    eval_graph, eval_node, train_graph, train_node, AppnpNet, CheckpointConfig, GatNet,
    GcnGraphNet, GcnNet, GinGraphNet, GinNet, GraphBundle, GraphNet, GraphTrainReport, NodeBundle,
    NodeNet, SageNet, SgcNet, TagNet, TrainConfig, TrainConfigBuilder, TrainReport, UniMpNet,
};
pub use optim::{clip_grad_norm, Adam, LrSchedule, Sgd};
pub use param::{Binding, Fwd, Param, ParamId, ParamSet};
pub use serialize::{
    atomic_write, load_params, load_train_state, params_from_string, params_to_string, save_params,
    save_train_state, TrainState,
};
