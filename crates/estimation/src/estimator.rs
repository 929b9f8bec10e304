//! The first-class channel-estimator API.
//!
//! Section 5 of the paper compares fourteen techniques that differ *only* in
//! where the channel estimate comes from; everything downstream (phase
//! alignment, ZF equalization, despreading, metrics) is shared.  This module
//! captures that contract as one trait, [`ChannelEstimator`]: a stateful,
//! streaming, per-packet estimator that is
//!
//! 1. fitted once on the training sets ([`ChannelEstimator::fit`]),
//! 2. asked for an [`Estimate`] before each test packet is decoded, in two
//!    phases: [`ChannelEstimator::plan`] returns the estimate or the VVD
//!    forward pass it still needs, and [`ChannelEstimator::finish`] turns
//!    that pass's output into the estimate ([`ChannelEstimator::estimate`]
//!    runs both, predicting inline), and
//! 3. fed the packet's ground-truth observation afterwards
//!    ([`ChannelEstimator::observe`]) — the "semi-blind" operation of
//!    Sec. 5.3 in which the estimate for packet `k` never looks at packet
//!    `k` itself.
//!
//! Every paper technique is implemented as an estimator here ([`Standard`],
//! [`GroundTruth`], [`Preamble`], [`Previous`], [`Kalman`] for any AR order,
//! [`Vvd`] for any prediction horizon, and the generic [`Fallback`]
//! combinator that subsumes the paper's two `Preamble-* Combined`
//! techniques).  The evaluation harness in `vvd-testbed` drives boxed
//! estimators through one generic streaming pipeline; new techniques plug in
//! through the [`crate::registry::EstimatorRegistry`] without harness edits.
//!
//! # State lifecycle
//!
//! An estimator instance is single-use: `fit` is called exactly once before
//! the test set is streamed, `observe` is called once per test packet in
//! transmission order (including warm-up packets that are never scored), and
//! `plan` may be skipped for packets the harness does not score.  Two
//! estimators never share *mutable* state — when two techniques need the
//! same expensive artefact (a trained VVD network), the [`VvdModelPool`]
//! trains it once through a content-addressed [`ModelCache`] and hands each
//! estimator an [`std::sync::Arc`]-shared reference to the immutable
//! trained weights (prediction takes `&self`, so sharing is safe; any
//! per-estimator mutable state stays in the estimator itself).

use crate::cache::{ModelCache, ModelCacheStats};
use crate::kalman::KalmanChannelEstimator;
use crate::state::{EstimatorState, StateError};
use std::cell::RefCell;
use std::collections::VecDeque;
use vvd_core::{ModelKey, VvdConfig, VvdDataset, VvdModel, VvdTrainingReport, VvdVariant};
use vvd_dsp::FirFilter;
use vvd_vision::DepthImage;

/// A boxed, heap-allocated channel estimator (the currency of the registry
/// and of the streaming evaluation pipeline).
pub type BoxedEstimator = Box<dyn ChannelEstimator>;

/// Provides the depth frames of the set being streamed, by frame index.
///
/// The evaluation harness implements this for its measurement sets; the
/// indirection keeps `vvd-estimation` independent of how campaigns store
/// frames.
pub trait FrameSource {
    /// The preprocessed depth image of the frame with the given index.
    fn frame(&self, index: usize) -> &DepthImage;
    /// Number of frames available.
    fn n_frames(&self) -> usize;
}

impl FrameSource for [DepthImage] {
    fn frame(&self, index: usize) -> &DepthImage {
        &self[index]
    }
    fn n_frames(&self) -> usize {
        self.len()
    }
}

/// Builds the image → CIR datasets a [`VvdModelPool`] trains on.
///
/// Implemented by the harness (which owns the campaign data); the pool calls
/// it at most once per [`VvdVariant`].
pub trait VvdDatasetSource: Sync {
    /// Returns the `(training, validation)` datasets for the variant.
    fn datasets(&self, variant: VvdVariant) -> (VvdDataset, VvdDataset);
}

/// Lazily trains [`VvdModel`]s through a content-addressed [`ModelCache`].
///
/// Estimators request models during [`ChannelEstimator::fit`].  Each
/// request builds the variant's datasets, digests them into a
/// [`ModelKey`], and asks the cache: the first request for a given
/// training provenance trains (deterministically, from the config seed),
/// every later request — from another estimator, another age of an aging
/// sweep, or another cell of a scenario grid sharing the same training
/// data — is a cache hit handing back the `Arc`-shared trained weights.
///
/// By default each pool owns a private cache (the historical
/// train-once-per-variant behaviour); [`VvdModelPool::with_cache`] shares
/// one cache across pools, which is how sweeps reuse trainings across grid
/// cells.  Training reports are recorded only when a training actually
/// ran, in training order.
pub struct VvdModelPool<'a> {
    config: &'a VvdConfig,
    source: &'a dyn VvdDatasetSource,
    owned_cache: Option<ModelCache>,
    shared_cache: Option<&'a ModelCache>,
    /// Variant → key memo: a pool's dataset source is fixed for its
    /// lifetime, so the (dataset build + content digest) cost is paid once
    /// per variant and repeat requests go straight to the cache lookup.
    keys: RefCell<Vec<(VvdVariant, ModelKey)>>,
    reports: RefCell<Vec<VvdTrainingReport>>,
}

impl<'a> VvdModelPool<'a> {
    /// Creates a pool over a dataset source with a private model cache.
    pub fn new(config: &'a VvdConfig, source: &'a dyn VvdDatasetSource) -> Self {
        VvdModelPool {
            config,
            source,
            owned_cache: Some(ModelCache::new()),
            shared_cache: None,
            keys: RefCell::new(Vec::new()),
            reports: RefCell::new(Vec::new()),
        }
    }

    /// Creates a pool that resolves models through a shared cache —
    /// trainings with identical provenance are shared across every pool
    /// (and thread) using the same cache.
    pub fn with_cache(
        config: &'a VvdConfig,
        source: &'a dyn VvdDatasetSource,
        cache: &'a ModelCache,
    ) -> Self {
        VvdModelPool {
            config,
            source,
            owned_cache: None,
            shared_cache: Some(cache),
            keys: RefCell::new(Vec::new()),
            reports: RefCell::new(Vec::new()),
        }
    }

    fn cache(&self) -> &ModelCache {
        self.shared_cache
            .unwrap_or_else(|| self.owned_cache.as_ref().expect("pool always has a cache"))
    }

    /// Returns the model for the variant, training it when its provenance
    /// has not been seen before (by this pool's cache).
    ///
    /// The first request per variant builds the datasets and digests their
    /// content into the [`ModelKey`]; repeat requests reuse the memoized
    /// key, so a cache hit costs a map lookup and an `Arc` clone (the
    /// datasets are rebuilt only if the cache has to train again, e.g.
    /// after an eviction).
    ///
    /// # Panics
    /// Panics if the dataset source produces an empty training set
    /// (mirroring [`VvdModel::train`]).
    pub fn model(&self, variant: VvdVariant) -> VvdModel {
        let memoized = self
            .keys
            .borrow()
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|(_, k)| *k);
        let (model, report) = match memoized {
            Some(key) => self.cache().get_or_train(key, || {
                let (train, validation) = self.source.datasets(variant);
                VvdModel::train(variant, self.config, &train, &validation)
            }),
            None => {
                let (train, validation) = self.source.datasets(variant);
                let key = ModelKey::for_training(variant, self.config, &train, &validation);
                self.keys.borrow_mut().push((variant, key));
                self.cache().get_or_train(key, || {
                    VvdModel::train(variant, self.config, &train, &validation)
                })
            }
        };
        if let Some(report) = report {
            self.reports.borrow_mut().push(report);
        }
        model
    }

    /// Training reports of every training this pool actually ran, in
    /// training order (cache hits run no training and add no report).
    pub fn reports(&self) -> Vec<VvdTrainingReport> {
        self.reports.borrow().clone()
    }

    /// Usage counters of the backing cache.
    pub fn cache_stats(&self) -> ModelCacheStats {
        self.cache().stats()
    }
}

/// Everything an estimator may consume while fitting on the training sets.
pub struct TrainingContext<'a> {
    training_cirs: &'a [FirFilter],
    vvd: Option<&'a VvdModelPool<'a>>,
}

impl<'a> TrainingContext<'a> {
    /// A context over the chronological sequence of (phase-aligned) perfect
    /// channel estimates of the training sets.
    pub fn new(training_cirs: &'a [FirFilter]) -> Self {
        TrainingContext {
            training_cirs,
            vvd: None,
        }
    }

    /// Attaches a VVD model pool (required by [`Vvd`] estimators).
    pub fn with_vvd(mut self, pool: &'a VvdModelPool<'a>) -> Self {
        self.vvd = Some(pool);
        self
    }

    /// The chronological training CIR sequence.
    pub fn training_cirs(&self) -> &'a [FirFilter] {
        self.training_cirs
    }

    /// The VVD model pool.
    ///
    /// # Panics
    /// Panics when the harness did not attach a pool — a VVD estimator
    /// cannot train without one.
    pub fn vvd(&self) -> &'a VvdModelPool<'a> {
        self.vvd.expect(
            "this estimator needs a VVD model pool, attach one with TrainingContext::with_vvd",
        )
    }
}

/// Ground-truth information about a packet that has just been processed,
/// fed to estimators after decoding (semi-blind operation: the estimate for
/// packet `k` is formed from packets `0..k` only).
pub struct PacketObservation<'a> {
    /// The packet's perfect (full-packet LS) estimate, including its crystal
    /// phase offset.
    pub perfect_cir: &'a FirFilter,
    /// The perfect estimate with the crystal phase removed — the channel
    /// state history that time-series predictors track.
    pub aligned_cir: &'a FirFilter,
    /// The packet's own preamble-based estimate.  Only populated when the
    /// estimator opted in via
    /// [`ChannelEstimator::wants_preamble_observations`]; `None` also when
    /// the LS fit failed.
    pub preamble_estimate: Option<&'a FirFilter>,
}

/// Everything an estimator may look at when estimating the channel of the
/// packet about to be decoded.
pub struct EstimateRequest<'a> {
    /// Index of the packet within the test set.
    pub packet_index: usize,
    /// The packet's perfect estimate (only the impractical [`GroundTruth`]
    /// baseline reads this).
    pub perfect_cir: &'a FirFilter,
    /// LS estimate from the packet's synchronisation header, when the fit
    /// succeeded.
    pub preamble_estimate: Option<&'a FirFilter>,
    /// Whether the preamble correlation exceeded the detection threshold.
    pub preamble_detected: bool,
    /// Index of the camera frame synchronised with this packet.
    pub frame_index: usize,
    /// Depth frames of the test set.
    pub frames: &'a dyn FrameSource,
}

/// The estimate for one packet: the tap vector plus the equalizer policy
/// and the availability of the estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimate {
    /// Decode with the plain IEEE 802.15.4 receiver: no estimate, no
    /// equalization (the paper's "standard decoding" baseline).
    Bypass,
    /// No estimate is available for this packet (insufficient history, no
    /// synchronised frame, …); the packet is not scored for this estimator.
    Skip,
    /// The packet could not be received at all (e.g. its preamble was not
    /// detected): it is scored as a full loss.
    Lost,
    /// A channel estimate for the shared align → equalize → despread
    /// pipeline.
    Ready {
        /// The FIR channel estimate.
        cir: FirFilter,
        /// Whether the Eq.-8 mean-phase alignment should run before
        /// equalization.  Blind estimates need it (their prediction cannot
        /// know the packet's crystal phase); estimates derived from the
        /// current packet itself must skip it.  The harness combines this
        /// with its equalizer configuration: alignment runs only when both
        /// agree.
        align_phase: bool,
    },
}

/// A VVD forward pass an estimator needs for the packet about to be
/// decoded, returned by [`ChannelEstimator::plan`] so that serving layers
/// can coalesce same-model plans from *many* concurrent estimator instances
/// into one [`VvdModel::predict_batch`] call.
///
/// The model is `Arc`-shared (cloning is a refcount bump) and carries its
/// training-provenance [`ModelKey`] — the batch grouping key: plans whose
/// models share a key are interchangeable, since equal provenance implies
/// bit-identical weights.
pub struct VvdInferencePlan {
    /// The trained model to run.
    pub model: VvdModel,
    /// Index of the input frame in the request's
    /// [`frames`](EstimateRequest::frames) source, with the estimator's lag
    /// already applied.
    pub frame_index: usize,
}

/// The first phase of estimating one packet ([`ChannelEstimator::plan`]).
pub enum Step {
    /// The estimate is final.
    Done(Estimate),
    /// The estimate needs one VVD forward pass: run the plan and hand its
    /// output to [`ChannelEstimator::finish`].
    NeedsVvd(VvdInferencePlan),
}

impl Estimate {
    /// Convenience constructor for an estimate that wants phase alignment.
    pub fn aligned(cir: FirFilter) -> Self {
        Estimate::Ready {
            cir,
            align_phase: true,
        }
    }

    /// Convenience constructor for an estimate that already carries the
    /// packet's phase.
    pub fn phased(cir: FirFilter) -> Self {
        Estimate::Ready {
            cir,
            align_phase: false,
        }
    }
}

/// A stateful, streaming, per-packet channel estimator — the uniform
/// interface every technique of the paper's comparison implements.
///
/// See the [module documentation](self) for the state lifecycle contract.
pub trait ChannelEstimator: Send {
    /// Fits the estimator on the training sets.  Called exactly once,
    /// before any `observe`/`plan` call.  The default is a no-op for
    /// estimators that need no training.
    fn fit(&mut self, ctx: &TrainingContext<'_>) {
        let _ = ctx;
    }

    /// Feeds the ground truth of the packet that was just processed.
    /// Called once per test packet in transmission order, after the
    /// packet's estimate (when it was asked for).  The default is a no-op
    /// for stateless estimators.
    fn observe(&mut self, obs: &PacketObservation<'_>) {
        let _ = obs;
    }

    /// Phase 1 of estimating the packet about to be decoded: the final
    /// estimate, or the VVD forward pass it still needs.
    ///
    /// May be skipped by the harness for packets that are not scored
    /// (warm-up), so implementations must keep their estimation state in
    /// [`ChannelEstimator::observe`] (internal scratch buffers are fine
    /// here).  A [`Step::NeedsVvd`] is always followed by
    /// [`finish`](ChannelEstimator::finish) for the same request, before
    /// the next `observe`.  Serving layers collect the plans of many
    /// estimators and run one [`VvdModel::predict_batch`] per model;
    /// `predict_batch` is bit-identical to per-image prediction, so the
    /// batched path produces exactly the estimates the inline one would.
    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step;

    /// Phase 2: the estimate, given the output of the forward pass `plan`
    /// returned for the same request.
    ///
    /// # Panics
    /// The default panics: only estimators that return
    /// [`Step::NeedsVvd`] are ever asked to finish.
    fn finish(&mut self, req: &EstimateRequest<'_>, prediction: FirFilter) -> Estimate {
        let _ = (req, prediction);
        panic!("finish() called on an estimator that never plans a VVD forward pass")
    }

    /// Both phases in one call, running any planned forward pass inline.
    fn estimate(&mut self, req: &EstimateRequest<'_>) -> Estimate {
        match self.plan(req) {
            Step::Done(estimate) => estimate,
            Step::NeedsVvd(plan) => {
                let prediction = plan.model.predict_cir(req.frames.frame(plan.frame_index));
                self.finish(req, prediction)
            }
        }
    }

    /// `true` when [`PacketObservation::preamble_estimate`] must be
    /// populated (it costs a waveform regeneration + LS fit per packet, so
    /// it is opt-in).
    fn wants_preamble_observations(&self) -> bool {
        false
    }

    /// Exports the estimator's *streaming* state — everything `observe`
    /// has accumulated since `fit` — as a serializable
    /// [`EstimatorState`] tree.
    ///
    /// Fit products (AR models, trained network weights) are deliberately
    /// excluded: they are deterministic functions of the training data and
    /// are rebuilt by re-fitting on resume (VVD weights through the shared
    /// [`ModelCache`], whose [`ModelKey`] the state records as a
    /// provenance pin).  The default, for estimators with no streaming
    /// state, is [`EstimatorState::Stateless`].
    fn save_state(&self) -> EstimatorState {
        EstimatorState::Stateless
    }

    /// Restores previously saved streaming state into this estimator.
    ///
    /// Only valid on an estimator that has been fitted the same way as the
    /// one the state was saved from (same spec, same training data) — the
    /// checkpoint/resume contract of the serving layer.  Loading validates
    /// the state's shape against this instance and leaves the estimator
    /// untouched on error.
    ///
    /// # Errors
    /// [`StateError::Kind`] on a shape mismatch, plus the estimator's own
    /// dimension/provenance checks.
    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        match state {
            EstimatorState::Stateless => Ok(()),
            other => Err(StateError::Kind {
                expected: "stateless",
                found: other.kind(),
            }),
        }
    }

    /// `true` when the *quality* of this estimator's estimates depends on
    /// the camera frames carrying information about the channel (the
    /// VVD family, and combinators that can delegate to it).
    ///
    /// Estimate *availability* is unaffected — a VVD estimator always
    /// produces an estimate when a frame exists — but on scenarios whose
    /// channel dynamics have no visible cause (`rician:…`, `rayleigh:…`,
    /// where `ChannelScenario::begin_set` returns empty blocker snapshots
    /// and the camera watches a static room) a camera-based estimator can
    /// at best learn the mean channel.  Scenario sweeps use this flag to
    /// annotate such estimator × scenario cells; it changes no decoding
    /// behaviour.
    fn uses_camera(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Built-in estimators
// ---------------------------------------------------------------------------

/// IEEE 802.15.4 standard decoding: no estimation, no equalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl ChannelEstimator for Standard {
    fn plan(&mut self, _req: &EstimateRequest<'_>) -> Step {
        Step::Done(Estimate::Bypass)
    }
}

/// Perfect channel estimation from the whole received packet (impractical
/// upper baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruth;

impl ChannelEstimator for GroundTruth {
    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step {
        Step::Done(Estimate::phased(req.perfect_cir.clone()))
    }
}

/// LS estimation from the synchronisation header of the current packet.
///
/// The practical variant ([`Preamble::detected`]) only produces an estimate
/// when the preamble was actually detected — a missed preamble is a lost
/// packet.  The genie variant ([`Preamble::genie`]) assumes an
/// always-detected preamble.
#[derive(Debug, Clone, Copy)]
pub struct Preamble {
    genie: bool,
}

impl Preamble {
    /// Preamble-based estimation gated on real preamble detection.
    pub fn detected() -> Self {
        Preamble { genie: false }
    }

    /// Preamble-based estimation with an always-detected preamble.
    pub fn genie() -> Self {
        Preamble { genie: true }
    }
}

impl ChannelEstimator for Preamble {
    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step {
        Step::Done(match req.preamble_estimate {
            Some(est) if self.genie || req.preamble_detected => Estimate::phased(est.clone()),
            _ if self.genie => Estimate::Skip,
            _ => Estimate::Lost,
        })
    }
}

/// The perfect estimate of the packet received `lag` packets earlier (the
/// paper's "100 ms previous" / "500 ms previous" baselines at one packet
/// per 100 ms).
#[derive(Debug, Clone)]
pub struct Previous {
    lag: usize,
    history: VecDeque<FirFilter>,
}

impl Previous {
    /// A stale-estimate baseline lagging by the given number of packets.
    ///
    /// # Panics
    /// Panics when `lag` is zero (that would be the ground truth).
    pub fn packets(lag: usize) -> Self {
        assert!(
            lag >= 1,
            "Previous estimator needs a lag of at least one packet"
        );
        Previous {
            lag,
            history: VecDeque::with_capacity(lag),
        }
    }

    /// The lag in packets.
    pub fn lag(&self) -> usize {
        self.lag
    }
}

impl ChannelEstimator for Previous {
    fn observe(&mut self, obs: &PacketObservation<'_>) {
        self.history.push_back(obs.perfect_cir.clone());
        if self.history.len() > self.lag {
            self.history.pop_front();
        }
    }

    fn plan(&mut self, _req: &EstimateRequest<'_>) -> Step {
        Step::Done(if self.history.len() < self.lag {
            Estimate::Skip
        } else {
            Estimate::aligned(self.history.front().expect("non-empty history").clone())
        })
    }

    fn save_state(&self) -> EstimatorState {
        EstimatorState::Previous {
            history: self.history.iter().cloned().collect(),
        }
    }

    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        match state {
            EstimatorState::Previous { history } => {
                if history.len() > self.lag {
                    return Err(StateError::Dimension {
                        context: format!(
                            "Previous history length {} exceeds lag {}",
                            history.len(),
                            self.lag
                        ),
                    });
                }
                self.history = history.iter().cloned().collect();
                Ok(())
            }
            other => Err(StateError::Kind {
                expected: "previous",
                found: other.kind(),
            }),
        }
    }
}

/// Kalman filtering over an AR(p) tap model of *any* order (the paper's
/// appendix baselines use p ∈ {1, 5, 20}).
#[derive(Debug, Clone)]
pub struct Kalman {
    order: usize,
    filter: Option<KalmanChannelEstimator>,
}

impl Kalman {
    /// A Kalman estimator with the given AR model order.
    ///
    /// # Panics
    /// Panics when `order` is zero.
    pub fn ar(order: usize) -> Self {
        assert!(order >= 1, "AR order must be at least 1");
        Kalman {
            order,
            filter: None,
        }
    }

    /// The AR model order.
    pub fn order(&self) -> usize {
        self.order
    }

    fn filter(&self) -> &KalmanChannelEstimator {
        self.filter
            .as_ref()
            .expect("Kalman estimator used before fit()")
    }
}

impl ChannelEstimator for Kalman {
    fn fit(&mut self, ctx: &TrainingContext<'_>) {
        self.filter = Some(KalmanChannelEstimator::fit(ctx.training_cirs(), self.order));
    }

    fn observe(&mut self, obs: &PacketObservation<'_>) {
        self.filter
            .as_mut()
            .expect("Kalman estimator used before fit()")
            .observe(obs.aligned_cir);
    }

    fn plan(&mut self, _req: &EstimateRequest<'_>) -> Step {
        Step::Done(Estimate::aligned(self.filter().predicted_cir()))
    }

    fn save_state(&self) -> EstimatorState {
        match &self.filter {
            Some(filter) => EstimatorState::Kalman {
                taps: filter.export_states(),
            },
            None => EstimatorState::Stateless,
        }
    }

    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        match (state, self.filter.as_mut()) {
            (EstimatorState::Kalman { taps }, Some(filter)) => filter.import_states(taps),
            (EstimatorState::Kalman { .. }, None) => Err(StateError::Unfitted {
                estimator: "Kalman",
            }),
            (EstimatorState::Stateless, None) => Ok(()),
            (other, _) => Err(StateError::Kind {
                expected: "kalman",
                found: other.kind(),
            }),
        }
    }
}

/// VVD: blind estimation from the depth frame synchronised with the packet,
/// for any prediction horizon, optionally further aged by a number of
/// camera frames (the Figs. 16–17 aging sweeps).
pub struct Vvd {
    variant: VvdVariant,
    extra_lag_frames: usize,
    model: Option<VvdModel>,
}

impl Vvd {
    /// A VVD estimator of the given prediction-horizon variant.
    pub fn new(variant: VvdVariant) -> Self {
        Vvd {
            variant,
            extra_lag_frames: 0,
            model: None,
        }
    }

    /// A VVD estimator whose input frame is additionally `extra_lag_frames`
    /// camera frames older than the variant's nominal horizon.
    pub fn aged(variant: VvdVariant, extra_lag_frames: usize) -> Self {
        Vvd {
            variant,
            extra_lag_frames,
            model: None,
        }
    }

    /// The prediction-horizon variant.
    pub fn variant(&self) -> VvdVariant {
        self.variant
    }

    fn lag_frames(&self) -> usize {
        self.variant.image_lag_frames() + self.extra_lag_frames
    }
}

impl ChannelEstimator for Vvd {
    fn fit(&mut self, ctx: &TrainingContext<'_>) {
        self.model = Some(ctx.vvd().model(self.variant));
    }

    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step {
        let lag = self.lag_frames();
        let model = self
            .model
            .as_ref()
            .expect("VVD estimator used before fit()");
        if req.frame_index < lag {
            return Step::Done(Estimate::Skip);
        }
        Step::NeedsVvd(VvdInferencePlan {
            model: model.clone(),
            frame_index: req.frame_index - lag,
        })
    }

    fn finish(&mut self, _req: &EstimateRequest<'_>, prediction: FirFilter) -> Estimate {
        Estimate::aligned(prediction)
    }

    fn uses_camera(&self) -> bool {
        true
    }

    fn save_state(&self) -> EstimatorState {
        EstimatorState::Vvd {
            key: self.model.as_ref().map(|m| m.key()),
        }
    }

    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        let key_hex = |key: &Option<ModelKey>| match key {
            Some(k) => k.to_hex(),
            None => "unfitted".to_string(),
        };
        match state {
            EstimatorState::Vvd { key } => {
                // The weights already rehydrated through the model cache
                // when the resumed workload re-fitted; all that is left is
                // to pin the provenance: a different key means replay
                // would run a *different* network than the checkpoint saw.
                let current = self.model.as_ref().map(|m| m.key());
                if *key != current {
                    return Err(StateError::ModelKey {
                        expected: key_hex(key),
                        found: key_hex(&current),
                    });
                }
                Ok(())
            }
            other => Err(StateError::Kind {
                expected: "vvd",
                found: other.kind(),
            }),
        }
    }
}

/// Uses the primary estimator when it produces an estimate and falls back
/// to the secondary otherwise — the generic combinator behind the paper's
/// `Preamble-VVD Combined` and `Preamble-Kalman Combined` techniques.
///
/// A primary [`Estimate::Lost`] or [`Estimate::Skip`] defers to the
/// secondary; whatever the secondary returns (including `Skip`) is final.
/// The secondary is only planned when the primary defers, so a fallback
/// never asks for a forward pass whose output would be thrown away.
///
/// One deliberate edge-case difference from the pre-registry harness: when
/// the preamble is *detected* but its LS fit fails, the old combined arms
/// skipped the packet while this combinator still falls back to the
/// secondary.  The SHR reference is a fixed non-degenerate waveform, so
/// that fit cannot fail on simulated campaigns (the parity test covers
/// this); if it ever could, decoding with the fallback estimate is the
/// better behaviour.
pub struct Fallback {
    primary: BoxedEstimator,
    secondary: BoxedEstimator,
    /// Whether the last `plan` came from the secondary, i.e. which arm
    /// `finish` owes the prediction to.
    secondary_planned: bool,
}

impl Fallback {
    /// Combines two estimators.
    pub fn new(primary: BoxedEstimator, secondary: BoxedEstimator) -> Self {
        Fallback {
            primary,
            secondary,
            secondary_planned: false,
        }
    }
}

impl ChannelEstimator for Fallback {
    fn fit(&mut self, ctx: &TrainingContext<'_>) {
        self.primary.fit(ctx);
        self.secondary.fit(ctx);
    }

    fn observe(&mut self, obs: &PacketObservation<'_>) {
        self.primary.observe(obs);
        self.secondary.observe(obs);
    }

    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step {
        match self.primary.plan(req) {
            Step::Done(Estimate::Skip | Estimate::Lost) => {
                self.secondary_planned = true;
                self.secondary.plan(req)
            }
            step => {
                self.secondary_planned = false;
                step
            }
        }
    }

    fn finish(&mut self, req: &EstimateRequest<'_>, prediction: FirFilter) -> Estimate {
        if self.secondary_planned {
            return self.secondary.finish(req, prediction);
        }
        match self.primary.finish(req, prediction) {
            Estimate::Skip | Estimate::Lost => self.secondary.estimate(req),
            available => available,
        }
    }

    fn wants_preamble_observations(&self) -> bool {
        self.primary.wants_preamble_observations() || self.secondary.wants_preamble_observations()
    }

    fn uses_camera(&self) -> bool {
        self.primary.uses_camera() || self.secondary.uses_camera()
    }

    fn save_state(&self) -> EstimatorState {
        EstimatorState::Fallback {
            primary: Box::new(self.primary.save_state()),
            secondary: Box::new(self.secondary.save_state()),
        }
    }

    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        match state {
            EstimatorState::Fallback { primary, secondary } => {
                self.primary.load_state(primary)?;
                self.secondary.load_state(secondary)
            }
            other => Err(StateError::Kind {
                expected: "fallback",
                found: other.kind(),
            }),
        }
    }
}

/// The preamble-based estimate of the packet received `lag` packets earlier
/// (the Figs. 16–17 "aged Preamble-Genie" sweeps).  With a lag of zero this
/// is exactly the genie preamble estimator.
#[derive(Debug, Clone)]
pub struct AgedPreamble {
    lag: usize,
    history: VecDeque<Option<FirFilter>>,
}

impl AgedPreamble {
    /// An aged genie preamble estimator lagging by the given number of
    /// packets.
    pub fn packets(lag: usize) -> Self {
        AgedPreamble {
            lag,
            history: VecDeque::with_capacity(lag),
        }
    }
}

impl ChannelEstimator for AgedPreamble {
    fn observe(&mut self, obs: &PacketObservation<'_>) {
        if self.lag == 0 {
            return;
        }
        self.history.push_back(obs.preamble_estimate.cloned());
        if self.history.len() > self.lag {
            self.history.pop_front();
        }
    }

    fn plan(&mut self, req: &EstimateRequest<'_>) -> Step {
        Step::Done(if self.lag == 0 {
            // The fresh estimate carries the current packet's phase.
            match req.preamble_estimate {
                Some(est) => Estimate::phased(est.clone()),
                None => Estimate::Skip,
            }
        } else if self.history.len() < self.lag {
            Estimate::Skip
        } else {
            match self.history.front().expect("non-empty history") {
                // An estimate from another packet needs the Eq.-8
                // alignment: the crystal phase of the current packet
                // differs.
                Some(est) => Estimate::aligned(est.clone()),
                None => Estimate::Skip,
            }
        })
    }

    fn wants_preamble_observations(&self) -> bool {
        self.lag > 0
    }

    fn save_state(&self) -> EstimatorState {
        EstimatorState::AgedPreamble {
            history: self.history.iter().cloned().collect(),
        }
    }

    fn load_state(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        match state {
            EstimatorState::AgedPreamble { history } => {
                if history.len() > self.lag {
                    return Err(StateError::Dimension {
                        context: format!(
                            "AgedPreamble history length {} exceeds lag {}",
                            history.len(),
                            self.lag
                        ),
                    });
                }
                self.history = history.iter().cloned().collect();
                Ok(())
            }
            other => Err(StateError::Kind {
                expected: "aged-preamble",
                found: other.kind(),
            }),
        }
    }
}

/// An estimator that never produces an estimate (used by sweeps for
/// techniques they do not model; every packet is skipped, never lost).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inactive;

impl ChannelEstimator for Inactive {
    fn plan(&mut self, _req: &EstimateRequest<'_>) -> Step {
        Step::Done(Estimate::Skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vvd_dsp::Complex;

    fn cir(scale: f64) -> FirFilter {
        FirFilter::from_taps(&[Complex::new(scale, 0.1), Complex::new(0.0, -scale)])
    }

    struct NoFrames;
    impl FrameSource for NoFrames {
        fn frame(&self, _index: usize) -> &DepthImage {
            panic!("no frames in this test")
        }
        fn n_frames(&self) -> usize {
            0
        }
    }

    fn request<'a>(
        frames: &'a dyn FrameSource,
        perfect: &'a FirFilter,
        preamble: Option<&'a FirFilter>,
        detected: bool,
    ) -> EstimateRequest<'a> {
        EstimateRequest {
            packet_index: 0,
            perfect_cir: perfect,
            preamble_estimate: preamble,
            preamble_detected: detected,
            frame_index: 0,
            frames,
        }
    }

    #[test]
    fn standard_bypasses_and_ground_truth_reports_perfect_cir() {
        let perfect = cir(1.0);
        let frames = NoFrames;
        let req = request(&frames, &perfect, None, true);
        assert_eq!(Standard.estimate(&req), Estimate::Bypass);
        assert_eq!(
            GroundTruth.estimate(&req),
            Estimate::phased(perfect.clone())
        );
    }

    #[test]
    fn preamble_detection_gating() {
        let perfect = cir(1.0);
        let pre = cir(0.5);
        let frames = NoFrames;

        let detected = request(&frames, &perfect, Some(&pre), true);
        let missed = request(&frames, &perfect, Some(&pre), false);
        let failed = request(&frames, &perfect, None, true);

        let mut practical = Preamble::detected();
        assert_eq!(practical.estimate(&detected), Estimate::phased(pre.clone()));
        assert_eq!(practical.estimate(&missed), Estimate::Lost);
        assert_eq!(practical.estimate(&failed), Estimate::Lost);

        let mut genie = Preamble::genie();
        assert_eq!(genie.estimate(&missed), Estimate::phased(pre.clone()));
        assert_eq!(genie.estimate(&failed), Estimate::Skip);
    }

    #[test]
    fn previous_estimator_replays_history_with_the_right_lag() {
        let frames = NoFrames;
        let mut prev = Previous::packets(2);
        let cirs: Vec<FirFilter> = (0..4).map(|k| cir(k as f64)).collect();
        for (k, c) in cirs.iter().enumerate() {
            let req = request(&frames, c, None, true);
            let est = prev.estimate(&req);
            if k < 2 {
                assert_eq!(est, Estimate::Skip, "packet {k} has no 2-deep history");
            } else {
                assert_eq!(est, Estimate::aligned(cirs[k - 2].clone()));
            }
            prev.observe(&PacketObservation {
                perfect_cir: c,
                aligned_cir: c,
                preamble_estimate: None,
            });
        }
    }

    #[test]
    fn kalman_estimator_fits_and_predicts() {
        let train: Vec<FirFilter> = (0..30).map(|k| cir(1.0 + 0.01 * k as f64)).collect();
        let mut kalman = Kalman::ar(2);
        kalman.fit(&TrainingContext::new(&train));
        let frames = NoFrames;
        let perfect = cir(1.3);
        for c in &train {
            kalman.observe(&PacketObservation {
                perfect_cir: c,
                aligned_cir: c,
                preamble_estimate: None,
            });
        }
        match kalman.estimate(&request(&frames, &perfect, None, true)) {
            Estimate::Ready { cir, align_phase } => {
                assert!(align_phase, "blind estimates need phase alignment");
                assert_eq!(cir.len(), 2);
                assert!(cir.energy() > 0.0);
            }
            other => panic!("expected an estimate, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn kalman_estimate_before_fit_panics() {
        let frames = NoFrames;
        let perfect = cir(1.0);
        let _ = Kalman::ar(1).estimate(&request(&frames, &perfect, None, true));
    }

    #[test]
    fn fallback_defers_to_secondary_on_loss_and_skip() {
        let perfect = cir(2.0);
        let pre = cir(0.5);
        let frames = NoFrames;

        let mut combined = Fallback::new(Box::new(Preamble::detected()), Box::new(GroundTruth));
        // Preamble detected: the primary wins (no phase alignment needed).
        let detected = request(&frames, &perfect, Some(&pre), true);
        assert_eq!(combined.estimate(&detected), Estimate::phased(pre.clone()));
        // Preamble missed: the secondary produces the estimate instead of a
        // lost packet.
        let missed = request(&frames, &perfect, Some(&pre), false);
        assert_eq!(
            combined.estimate(&missed),
            Estimate::phased(perfect.clone())
        );

        // Both unavailable: the secondary's Skip is final.
        let mut skipping = Fallback::new(Box::new(Preamble::detected()), Box::new(Inactive));
        assert_eq!(skipping.estimate(&missed), Estimate::Skip);
    }

    #[test]
    fn aged_preamble_buffers_observed_estimates() {
        let frames = NoFrames;
        let mut aged = AgedPreamble::packets(1);
        assert!(aged.wants_preamble_observations());
        let a = cir(1.0);
        let b = cir(2.0);
        let req = request(&frames, &a, Some(&b), true);
        assert_eq!(aged.estimate(&req), Estimate::Skip);
        aged.observe(&PacketObservation {
            perfect_cir: &a,
            aligned_cir: &a,
            preamble_estimate: Some(&b),
        });
        // One packet later the observed estimate surfaces, with alignment.
        assert_eq!(aged.estimate(&req), Estimate::aligned(b.clone()));

        // Lag zero behaves like the genie estimator on the current packet.
        let mut fresh = AgedPreamble::packets(0);
        assert!(!fresh.wants_preamble_observations());
        assert_eq!(fresh.estimate(&req), Estimate::phased(b.clone()));
    }

    struct Frames(Vec<DepthImage>);
    impl FrameSource for Frames {
        fn frame(&self, index: usize) -> &DepthImage {
            &self.0[index]
        }
        fn n_frames(&self) -> usize {
            self.0.len()
        }
    }

    struct FixedSource(VvdDataset);
    impl VvdDatasetSource for FixedSource {
        fn datasets(&self, _variant: VvdVariant) -> (VvdDataset, VvdDataset) {
            (self.0.clone(), VvdDataset::new())
        }
    }

    fn tiny_vvd_dataset() -> VvdDataset {
        let mut ds = VvdDataset::new();
        for k in 0..6 {
            let mut img = DepthImage::filled(30, 26, 0.8);
            img.set(4, (k * 3) % 20, 0.2);
            let mut taps = vec![vvd_dsp::Complex::ZERO; 3];
            taps[1] = vvd_dsp::Complex::new(1e-3 + 1e-5 * k as f64, -5e-4);
            ds.push(vvd_core::VvdSample {
                image: img,
                target_cir: FirFilter::from_taps(&taps),
            });
        }
        ds
    }

    fn tiny_vvd_config() -> VvdConfig {
        let mut cfg = VvdConfig::quick();
        cfg.conv_filters = 2;
        cfg.dense_units = 8;
        cfg.channel_taps = 3;
        cfg.epochs = 1;
        cfg
    }

    /// Runs a planned forward pass the way a serving layer would.
    fn predict(step: Step, frames: &dyn FrameSource) -> FirFilter {
        match step {
            Step::NeedsVvd(plan) => plan.model.predict_cir(frames.frame(plan.frame_index)),
            Step::Done(estimate) => panic!("expected a forward pass, got {estimate:?}"),
        }
    }

    #[test]
    fn planned_prediction_matches_the_inline_estimate() {
        let ds = tiny_vvd_dataset();
        let cfg = tiny_vvd_config();
        let source = FixedSource(ds.clone());
        let pool = VvdModelPool::new(&cfg, &source);
        let mut vvd = Vvd::new(VvdVariant::Current);
        vvd.fit(&TrainingContext::new(&[]).with_vvd(&pool));

        let frames = Frames(ds.samples.iter().map(|s| s.image.clone()).collect());
        let perfect = cir(1.0);
        let req = EstimateRequest {
            packet_index: 0,
            perfect_cir: &perfect,
            preamble_estimate: None,
            preamble_detected: true,
            frame_index: 2,
            frames: &frames,
        };

        match vvd.plan(&req) {
            Step::NeedsVvd(plan) => assert_eq!(plan.frame_index, 2, "Current has no frame lag"),
            Step::Done(estimate) => panic!("a frame is available, got {estimate:?}"),
        }
        // The plan's model is the fitted one (Arc-shared, same provenance).
        let prediction = predict(vvd.plan(&req), &frames);
        assert_eq!(
            vvd.finish(&req, prediction),
            vvd.estimate(&req),
            "finishing a planned prediction must reproduce the inline path"
        );

        // Before enough frames exist the estimator skips without planning.
        let mut aged = Vvd::aged(VvdVariant::Current, 5);
        aged.fit(&TrainingContext::new(&[]).with_vvd(&pool));
        assert!(matches!(aged.plan(&req), Step::Done(Estimate::Skip)));
    }

    #[test]
    fn fallback_routes_predictions_to_the_planning_arm() {
        let ds = tiny_vvd_dataset();
        let cfg = tiny_vvd_config();
        let source = FixedSource(ds.clone());
        let pool = VvdModelPool::new(&cfg, &source);
        let ctx = TrainingContext::new(&[]).with_vvd(&pool);
        let frames = Frames(ds.samples.iter().map(|s| s.image.clone()).collect());
        let perfect = cir(1.0);
        let pre = cir(0.5);

        // When the preamble primary produces an estimate, the VVD arm is
        // never planned: no forward pass is asked for, and the primary
        // wins untouched.
        let mut combined = Fallback::new(
            Box::new(Preamble::detected()),
            Box::new(Vvd::new(VvdVariant::Current)),
        );
        combined.fit(&ctx);
        let detected = EstimateRequest {
            packet_index: 0,
            perfect_cir: &perfect,
            preamble_estimate: Some(&pre),
            preamble_detected: true,
            frame_index: 1,
            frames: &frames,
        };
        match combined.plan(&detected) {
            Step::Done(estimate) => assert_eq!(estimate, Estimate::phased(pre.clone())),
            Step::NeedsVvd(_) => panic!("no NN work is planned when the primary produces"),
        }

        // When the primary defers (missed preamble), the VVD arm plans —
        // and consumes the batch-computed prediction.
        let missed = EstimateRequest {
            preamble_detected: false,
            ..detected
        };
        let prediction = predict(combined.plan(&missed), &frames);
        assert_eq!(
            combined.finish(&missed, prediction.clone()),
            Estimate::aligned(prediction)
        );

        // Primary plans: the prediction goes to the first arm.
        let mut vvd_first = Fallback::new(
            Box::new(Vvd::new(VvdVariant::Current)),
            Box::new(GroundTruth),
        );
        vvd_first.fit(&ctx);
        let prediction = predict(vvd_first.plan(&missed), &frames);
        assert_eq!(
            vvd_first.finish(&missed, prediction.clone()),
            Estimate::aligned(prediction)
        );

        // Nested: the outer fallback routes to the inner one, which routes
        // to its own planning arm.
        let mut nested = Fallback::new(
            Box::new(Preamble::detected()),
            Box::new(Fallback::new(
                Box::new(Inactive),
                Box::new(Vvd::new(VvdVariant::Current)),
            )),
        );
        nested.fit(&ctx);
        let prediction = predict(nested.plan(&missed), &frames);
        assert_eq!(nested.finish(&missed, prediction), nested.estimate(&missed));
    }

    #[test]
    fn streaming_state_round_trips_for_stateful_estimators() {
        let frames = NoFrames;
        let a = cir(1.0);
        let b = cir(2.0);

        // Previous: observe two packets, save, load into a fresh fitted
        // instance, and check the next estimate matches.
        let mut prev = Previous::packets(2);
        for c in [&a, &b] {
            prev.observe(&PacketObservation {
                perfect_cir: c,
                aligned_cir: c,
                preamble_estimate: None,
            });
        }
        let state = prev.save_state();
        let mut resumed = Previous::packets(2);
        resumed.load_state(&state).unwrap();
        assert_eq!(resumed.save_state(), state, "load→save is lossless");
        let req = request(&frames, &a, None, true);
        assert_eq!(resumed.estimate(&req), prev.estimate(&req));

        // AgedPreamble: history with a failed-fit hole survives the trip.
        let mut aged = AgedPreamble::packets(2);
        for obs in [Some(&b), None] {
            aged.observe(&PacketObservation {
                perfect_cir: &a,
                aligned_cir: &a,
                preamble_estimate: obs,
            });
        }
        let state = aged.save_state();
        let mut resumed = AgedPreamble::packets(2);
        resumed.load_state(&state).unwrap();
        assert_eq!(resumed.save_state(), state);
        assert_eq!(resumed.estimate(&req), aged.estimate(&req));
    }

    #[test]
    fn nested_fallback_state_round_trips_recursively() {
        let build = || {
            Fallback::new(
                Box::new(Previous::packets(1)),
                Box::new(Fallback::new(
                    Box::new(AgedPreamble::packets(1)),
                    Box::new(Kalman::ar(1)),
                )),
            )
        };
        let train: Vec<FirFilter> = (0..20).map(|k| cir(1.0 + 0.02 * k as f64)).collect();
        let ctx = TrainingContext::new(&train);
        let mut live = build();
        live.fit(&ctx);
        let pre = cir(0.5);
        for c in &train[..5] {
            live.observe(&PacketObservation {
                perfect_cir: c,
                aligned_cir: c,
                preamble_estimate: Some(&pre),
            });
        }
        let state = live.save_state();
        assert_eq!(state.kind(), "fallback");

        let mut resumed = build();
        resumed.fit(&ctx);
        resumed.load_state(&state).unwrap();
        assert_eq!(
            resumed.save_state(),
            state,
            "recursive load→save is lossless"
        );

        let frames = NoFrames;
        let perfect = cir(3.0);
        let req = request(&frames, &perfect, None, true);
        assert_eq!(resumed.estimate(&req), live.estimate(&req));
    }

    #[test]
    fn load_state_rejects_mismatched_kinds_and_unfitted_targets() {
        // Stateless estimators reject stateful snapshots...
        assert!(matches!(
            Standard.load_state(&EstimatorState::Kalman { taps: Vec::new() }),
            Err(StateError::Kind {
                expected: "stateless",
                ..
            })
        ));
        // ...and accept the stateless one.
        assert!(Standard.load_state(&EstimatorState::Stateless).is_ok());

        // A stateful snapshot into the wrong stateful estimator.
        let mut prev = Previous::packets(1);
        assert!(matches!(
            prev.load_state(&EstimatorState::AgedPreamble {
                history: Vec::new()
            }),
            Err(StateError::Kind {
                expected: "previous",
                ..
            })
        ));

        // A fitted-Kalman snapshot into an unfitted Kalman.
        let train: Vec<FirFilter> = (0..20).map(|k| cir(1.0 + 0.02 * k as f64)).collect();
        let mut fitted = Kalman::ar(1);
        fitted.fit(&TrainingContext::new(&train));
        let state = fitted.save_state();
        assert!(matches!(
            Kalman::ar(1).load_state(&state),
            Err(StateError::Unfitted {
                estimator: "Kalman"
            })
        ));

        // A history deeper than the lag cannot be loaded.
        let deep = EstimatorState::Previous {
            history: vec![cir(1.0), cir(2.0)],
        };
        assert!(matches!(
            Previous::packets(1).load_state(&deep),
            Err(StateError::Dimension { .. })
        ));
    }

    #[test]
    fn vvd_state_pins_the_model_key() {
        let ds = tiny_vvd_dataset();
        let cfg = tiny_vvd_config();
        let source = FixedSource(ds.clone());
        let pool = VvdModelPool::new(&cfg, &source);
        let mut vvd = Vvd::new(VvdVariant::Current);
        vvd.fit(&TrainingContext::new(&[]).with_vvd(&pool));
        let state = vvd.save_state();
        match &state {
            EstimatorState::Vvd { key: Some(_) } => {}
            other => panic!("fitted VVD state must carry a key, got {other:?}"),
        }

        // Same training provenance: the key matches and loading succeeds.
        let mut same = Vvd::new(VvdVariant::Current);
        same.fit(&TrainingContext::new(&[]).with_vvd(&pool));
        same.load_state(&state).unwrap();

        // Different provenance (different config seed): typed mismatch.
        let mut cfg2 = cfg;
        cfg2.seed = cfg.seed.wrapping_add(1);
        let pool2 = VvdModelPool::new(&cfg2, &source);
        let mut other = Vvd::new(VvdVariant::Current);
        other.fit(&TrainingContext::new(&[]).with_vvd(&pool2));
        assert!(matches!(
            other.load_state(&state),
            Err(StateError::ModelKey { .. })
        ));
        // An unfitted VVD mismatches a fitted snapshot the same way.
        assert!(matches!(
            Vvd::new(VvdVariant::Current).load_state(&state),
            Err(StateError::ModelKey { .. })
        ));
    }

    #[test]
    fn estimators_are_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let boxed: Vec<BoxedEstimator> = vec![
            Box::new(Standard),
            Box::new(GroundTruth),
            Box::new(Preamble::genie()),
            Box::new(Previous::packets(1)),
            Box::new(Kalman::ar(5)),
            Box::new(Vvd::new(VvdVariant::Current)),
            Box::new(Fallback::new(Box::new(Standard), Box::new(GroundTruth))),
            Box::new(AgedPreamble::packets(3)),
            Box::new(Inactive),
        ];
        assert_send(&boxed);
        assert_eq!(boxed.len(), 9);
    }
}
