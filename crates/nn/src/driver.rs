//! The epoch driver every training loop runs on: [`crate::train_node`],
//! [`crate::train_graph`] and the relaxed bit-width search in `mixq-core`.
//!
//! A loop hands the driver only its own epoch step; the driver owns the
//! bookkeeping around it, once for all callers:
//!
//! * resume from a [`TrainState`] checkpoint (with a shape check);
//! * the epoch-start `(ParamSet, Adam, Rng)` snapshot;
//! * `grad_nan` fault injection and the finite-loss/gradient health check;
//! * rollback to the snapshot with bounded retries and LR backoff;
//! * the periodic crash-safe checkpoint write;
//! * the exhausted-retries stop, which restores the snapshot.
//!
//! Telemetry counters are named `<prefix>.{divergence_rollbacks,
//! divergence_aborts,checkpoint_failures,resume_failures}`.

use mixq_tensor::{Rng, Tape, Var};

use crate::models::TrainConfig;
use crate::optim::{clip_grad_norm, Adam};
use crate::param::{Binding, Fwd, ParamSet};
use crate::serialize::{load_train_state, save_train_state, TrainState};

/// State and settings of one run of epochs. The step closure given to
/// [`EpochDriver::run`] updates the parameters and the optimizer;
/// everything else is the driver's.
pub struct EpochDriver<'a> {
    /// Live parameters, including their Adam moment buffers.
    pub ps: &'a mut ParamSet,
    pub opt: Adam,
    pub(crate) rng: Rng,
    /// The epoch the current step runs.
    pub(crate) epoch: usize,
    /// Best-validation tracking. Checkpointed and resumed; only callers
    /// that select on validation (`train_node`) update it.
    pub(crate) best_val: f64,
    pub(crate) best_epoch: usize,
    /// Best-so-far parameters (empty when the caller keeps none).
    pub(crate) best_params: ParamSet,
    /// Divergences absorbed by rollback + retry.
    pub(crate) recovered: usize,
    /// Set when an epoch stayed unhealthy after `max_retries` retries.
    pub(crate) diverged: bool,
    cfg: &'a TrainConfig,
    prefix: &'static str,
    /// Whether this epoch attempt injected a `grad_nan` fault (`None`
    /// until its first health check).
    injected: Option<bool>,
}

impl<'a> EpochDriver<'a> {
    /// Starts at epoch 0 with Adam and the RNG seeded from `cfg`, or at the
    /// state of `cfg.resume_from` when that file holds a checkpoint of the
    /// same parameter shapes. A missing file starts fresh silently; an
    /// unreadable or mismatched one starts fresh and bumps
    /// `<prefix>.resume_failures`.
    pub fn new(ps: &'a mut ParamSet, cfg: &'a TrainConfig, prefix: &'static str) -> Self {
        let mut d = Self {
            ps,
            opt: Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay),
            rng: Rng::seed_from_u64(cfg.seed),
            epoch: 0,
            best_val: f64::NEG_INFINITY,
            best_epoch: 0,
            best_params: ParamSet::new(),
            recovered: 0,
            diverged: false,
            cfg,
            prefix,
            injected: None,
        };
        let Some(path) = cfg.resume_from.as_ref().filter(|p| p.exists()) else {
            return d;
        };
        match load_train_state(path) {
            Ok(st)
                if st.params.len() == d.ps.len()
                    && st.params.num_scalars() == d.ps.num_scalars() =>
            {
                *d.ps = st.params;
                d.opt.lr = st.lr;
                d.opt.set_step_count(st.adam_t);
                d.rng = Rng::from_state(st.rng_state);
                d.epoch = st.epoch;
                d.best_val = st.best_val;
                d.best_epoch = st.best_epoch;
                d.best_params = st.best_params;
                d.recovered = st.recovered;
            }
            _ => d.count("resume_failures"),
        }
        d
    }

    /// Runs `step` once per epoch until `cfg.epochs`, each epoch inside a
    /// telemetry span named `span`. The step returns `Some(stop)` when the
    /// epoch is healthy (`stop` ends the run after this epoch's checkpoint)
    /// and `None` when [`EpochDriver::check`] found it diverged.
    ///
    /// A diverged epoch is rolled back to its start snapshot and retried:
    /// the first retry re-runs it unchanged, later ones also multiply the
    /// LR by `cfg.backoff`. After `cfg.max_retries` consecutive failures
    /// the snapshot stays restored, `diverged` is set and the run stops.
    pub fn run(&mut self, span: &'static str, mut step: impl FnMut(&mut Self) -> Option<bool>) {
        let mut retries = 0;
        while self.epoch < self.cfg.epochs {
            let (ps, opt, rng) = (self.ps.clone(), self.opt.clone(), self.rng.clone());
            let _span = mixq_telemetry::span(span);
            self.injected = None;
            let Some(stop) = step(self) else {
                (*self.ps, self.opt, self.rng) = (ps, opt, rng);
                if retries >= self.cfg.max_retries {
                    self.diverged = true;
                    self.count("divergence_aborts");
                    break;
                }
                retries += 1;
                self.recovered += 1;
                if retries > 1 {
                    self.opt.lr *= self.cfg.backoff;
                }
                self.count("divergence_rollbacks");
                if self.injected == Some(true) {
                    mixq_faultinject::mark_recovered();
                }
                continue;
            };
            retries = 0;
            self.checkpoint();
            if stop {
                break;
            }
            self.epoch += 1;
        }
    }

    /// The epoch the current step runs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// One forward/backward pass on a fresh tape: zeroes the gradients,
    /// builds the loss with `build`, backpropagates it, pulls the gradients
    /// into `ps` and hands the tape's buffers back to the pool. Returns the
    /// loss value.
    pub fn backprop(&mut self, training: bool, build: impl FnOnce(&mut Fwd) -> Var) -> f64 {
        self.ps.zero_grads();
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let loss = build(&mut Fwd {
            tape: &mut tape,
            ps: self.ps,
            binding: &mut binding,
            rng: &mut self.rng,
            training,
        });
        let value = tape.value(loss).item() as f64;
        tape.backward(loss);
        self.ps.pull_grads(&binding, &tape);
        tape.recycle();
        value
    }

    /// The health check, run after the gradients are pulled: `Some(())`
    /// iff `loss` and every gradient are finite, so a step can bail out
    /// with `?`. Its first call in an epoch attempt is also the `grad_nan`
    /// injection site (NaN into the first gradient).
    pub fn check(&mut self, loss: f64) -> Option<()> {
        if self.injected.is_none() {
            let fire = mixq_faultinject::should_fire(
                mixq_faultinject::FaultKind::GradNan,
                Some(self.epoch as u64),
            );
            if let Some(&id) = self.ps.all_ids().first().filter(|_| fire) {
                self.ps.grad_mut(id).data_mut()[0] = f32::NAN;
            }
            self.injected = Some(fire);
        }
        (loss.is_finite() && self.ps.grads_finite()).then_some(())
    }

    /// Clips the gradients to `cfg.grad_clip`, exports the
    /// `<prefix>.{loss,lr,grad_norm}` series (the norm before clipping) and
    /// takes the Adam step.
    pub fn clip_and_step(&mut self, loss: f64) {
        let pre_clip_norm = self
            .cfg
            .grad_clip
            .map(|maxn| clip_grad_norm(self.ps, maxn) as f64);
        if mixq_telemetry::enabled() {
            let p = self.prefix;
            mixq_telemetry::series_push(&format!("{p}.loss"), loss);
            mixq_telemetry::series_push(&format!("{p}.lr"), self.opt.lr as f64);
            let norm = pre_clip_norm.unwrap_or_else(|| self.ps.grad_norm());
            mixq_telemetry::series_push(&format!("{p}.grad_norm"), norm);
        }
        self.opt.step(self.ps);
    }

    /// Writes the train state after a healthy epoch when the checkpoint
    /// interval says so. A failed write is counted and training goes on
    /// with the previous durable checkpoint.
    fn checkpoint(&self) {
        let done = self.epoch + 1;
        let Some(ck) = self.cfg.checkpoint.as_ref() else {
            return;
        };
        if !done.is_multiple_of(ck.every) {
            return;
        }
        let st = TrainState {
            epoch: done,
            lr: self.opt.lr,
            adam_t: self.opt.step_count(),
            rng_state: self.rng.state(),
            best_val: self.best_val,
            best_epoch: self.best_epoch,
            recovered: self.recovered,
            params: self.ps.clone(),
            best_params: self.best_params.clone(),
        };
        if save_train_state(&st, &ck.path).is_err() {
            self.count("checkpoint_failures");
            if mixq_faultinject::enabled() {
                mixq_faultinject::mark_recovered();
            }
        }
    }

    fn count(&self, what: &str) {
        mixq_telemetry::counter_add(&format!("{}.{what}", self.prefix), 1);
    }
}
