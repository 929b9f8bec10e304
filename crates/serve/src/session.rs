//! Link sessions: the unit of state the serving engine multiplexes.
//!
//! One [`LinkSession`] is one tracked radio link — a fitted
//! [`ChannelEstimator`](vvd_estimation::ChannelEstimator) streaming the
//! packets of its campaign's test set in transmission order through the
//! offline pipeline's own [`PacketStep`], but split into the two halves the
//! engine interleaves across sessions:
//!
//! 1. [`LinkSession::prepare`] — take the due packet's [`PacketScan`]
//!    (received waveform and preamble LS estimate, synthesized once per
//!    serve by the engine's scan cache and shared by every session of the
//!    same scenario and test set) and run the estimator's
//!    [`plan`](vvd_estimation::ChannelEstimator::plan), which either
//!    settles the estimate or returns the NN forward pass it needs;
//! 2. [`LinkSession::complete`] — hand a planned pass's batch-computed
//!    output to [`finish`](vvd_estimation::ChannelEstimator::finish), then
//!    run the step: decode, score, observe.
//!
//! Between the two halves the engine's planner coalesces all sessions'
//! forward passes into per-model `predict_batch` calls.  Because batched
//! prediction is bit-identical to per-image prediction and sessions share
//! no mutable state, every session's trace is bit-identical to running
//! that session alone through `vvd_testbed::stream::stream_estimators` —
//! regardless of how many other sessions were in flight, in which order
//! packets arrived, or how many shards the store ran on.

use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use std::sync::Arc;
use vvd_core::VvdModel;
use vvd_dsp::FirFilter;
use vvd_estimation::estimator::{BoxedEstimator, Step};
use vvd_estimation::FrameSource;
use vvd_testbed::stream::{EstimatorTrace, PacketScan, PacketStep};
use vvd_testbed::{Campaign, SetCombination};
use vvd_vision::DepthImage;

/// Declarative description of one link session of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Scenario spec string of the link's environment (sessions with equal
    /// specs share one generated campaign).
    pub scenario: String,
    /// Estimator spec string (anything the
    /// [`EstimatorRegistry`](vvd_estimation::EstimatorRegistry) builds).
    pub estimator: String,
    /// Packet arrival period in engine ticks (≥ 1).
    pub interval_ticks: u64,
    /// Tick of the first packet arrival.
    pub offset_ticks: u64,
    /// Index of the campaign set combination the session streams
    /// (`< EvalConfig::n_combinations`).
    pub combination: usize,
}

impl SessionSpec {
    /// A session over the given scenario and estimator specs, with one
    /// packet per tick starting at tick 0 on combination 0.
    pub fn new(scenario: impl Into<String>, estimator: impl Into<String>) -> Self {
        SessionSpec {
            scenario: scenario.into(),
            estimator: estimator.into(),
            interval_ticks: 1,
            offset_ticks: 0,
            combination: 0,
        }
    }

    /// Sets the arrival period in ticks.
    pub fn every(mut self, ticks: u64) -> Self {
        self.interval_ticks = ticks;
        self
    }

    /// Sets the first-arrival tick.
    pub fn offset(mut self, ticks: u64) -> Self {
        self.offset_ticks = ticks;
        self
    }

    /// Sets the set-combination index the session streams.
    pub fn combination(mut self, index: usize) -> Self {
        self.combination = index;
        self
    }
}

/// Everything [`LinkSession::prepare`] computed for the due packet, handed
/// through the planner to [`LinkSession::complete`].
struct PendingPacket {
    /// Present iff the packet is scored or the estimator wants preamble
    /// observations (the regeneration policy of the offline core).
    scan: Option<PacketScan>,
    /// The estimator's first phase, for scored packets.
    planned: Option<Step>,
    /// The batch-computed output of a planned forward pass, injected by
    /// the planner.
    prediction: Option<FirFilter>,
}

/// One live link session: a fitted estimator plus its streaming cursor and
/// accumulated trace.
pub struct LinkSession {
    id: usize,
    scenario: String,
    label: String,
    campaign: Arc<Campaign>,
    combination: SetCombination,
    estimator: BoxedEstimator,
    score_from: usize,
    interval: u64,
    next_due: u64,
    cursor: usize,
    pending: Option<PendingPacket>,
    trace: EstimatorTrace,
}

impl LinkSession {
    /// Wires up a session from its fitted estimator and shared campaign.
    ///
    /// The estimator must already be fitted on the combination's training
    /// sets (the [`LoadGenerator`](crate::LoadGenerator) does this, sharing
    /// trainings through one model cache so that same-provenance sessions
    /// hold `Arc`-clones of one network).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        scenario: String,
        label: String,
        campaign: Arc<Campaign>,
        combination: SetCombination,
        estimator: BoxedEstimator,
        score_from: usize,
        interval: u64,
        offset: u64,
    ) -> Self {
        LinkSession {
            id,
            scenario,
            label: label.clone(),
            campaign,
            combination,
            estimator,
            score_from,
            interval: interval.max(1),
            next_due: offset,
            cursor: 0,
            pending: None,
            trace: EstimatorTrace::new(label),
        }
    }

    /// The session's workload-wide identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The scenario spec the session's campaign was generated from.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The label the session's results are reported under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of test packets this session streams in total.
    pub fn total_packets(&self) -> usize {
        self.campaign.set(self.combination.test).packets.len()
    }

    /// `true` once every test packet has been streamed.
    pub fn finished(&self) -> bool {
        self.cursor >= self.total_packets()
    }

    /// The tick of the session's next packet arrival (meaningless once
    /// [`finished`](Self::finished)).
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// `true` when a packet of this session is due at `tick`.
    pub fn due(&self, tick: u64) -> bool {
        !self.finished() && self.next_due <= tick
    }

    /// `true` when [`prepare`](Self::prepare) ran and
    /// [`complete`](Self::complete) has not yet consumed its output.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The streaming position `(cursor, next_due)` the session will hold
    /// *after* its pending packet (if any) commits.
    ///
    /// [`complete`](Self::complete) advances the cursor by exactly one and
    /// the due tick by exactly one interval, so mid-tick — after the
    /// prepare phase has set every due session's pending flag — the next
    /// tick's due set is fully determined by this projection.  That is the
    /// lookahead the tick pipeline plans its prefetch from.
    pub(crate) fn position_after_commit(&self) -> (usize, u64) {
        if self.pending.is_some() {
            (self.cursor + 1, self.next_due + self.interval)
        } else {
            (self.cursor, self.next_due)
        }
    }

    /// Position of the next packet to stream (the number streamed so far).
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// `true` when packet `k` needs a [`PacketScan`]: the exact condition
    /// [`prepare`](Self::prepare) takes one under, so the engine only
    /// synthesizes scans that will be consumed.
    pub(crate) fn needs_scan(&self, k: usize) -> bool {
        PacketStep::new(&self.campaign, self.combination.test, self.score_from)
            .needs_scan(k, self.estimator.wants_preamble_observations())
    }

    /// The session's stream: its `Arc`-shared campaign and the test set it
    /// streams.  Sessions of one scenario and test set consume the same
    /// scans.
    pub(crate) fn stream(&self) -> (&Arc<Campaign>, usize) {
        (&self.campaign, self.combination.test)
    }

    /// The accumulated trace (borrowed; see
    /// [`into_trace`](Self::into_trace) for the owned form).
    pub fn trace(&self) -> &EstimatorTrace {
        &self.trace
    }

    /// Consumes the session, returning its trace.
    pub fn into_trace(self) -> EstimatorTrace {
        self.trace
    }

    /// Snapshots the session's streaming state (cursor, next-due tick,
    /// accumulated trace, estimator state) as a [`SessionCheckpoint`].
    ///
    /// Only valid at a tick boundary: a session holding a
    /// prepared-but-uncompleted packet cannot be snapshotted (the pending
    /// half-state is deliberately not serializable).
    pub(crate) fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        if self.pending.is_some() {
            return Err(CheckpointError::MidTick { session: self.id });
        }
        Ok(SessionCheckpoint {
            id: self.id,
            scenario: self.scenario.clone(),
            label: self.label.clone(),
            interval: self.interval,
            next_due: self.next_due,
            cursor: self.cursor,
            estimator: self.estimator.save_state(),
            trace: self.trace.clone(),
        })
    }

    /// Restores a freshly built (and freshly *fitted*) session to the
    /// checkpointed streaming position.
    ///
    /// The checkpoint carries only streaming state; the fit products
    /// (Kalman AR coefficients, VVD weights) were already re-derived by
    /// the load generator — deterministically, or rehydrated through the
    /// model cache — before this runs.  The identity fields pin that the
    /// rebuilt session really is the checkpointed one.
    pub(crate) fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        let mismatch = |context: String| CheckpointError::SessionMismatch {
            session: ckpt.id,
            context,
        };
        if self.id != ckpt.id {
            return Err(mismatch(format!("id {} in the rebuilt workload", self.id)));
        }
        if self.scenario != ckpt.scenario {
            return Err(mismatch(format!(
                "scenario {:?} vs checkpointed {:?}",
                self.scenario, ckpt.scenario
            )));
        }
        if self.label != ckpt.label || self.trace.label != ckpt.trace.label {
            return Err(mismatch(format!(
                "label {:?} vs checkpointed {:?}",
                self.label, ckpt.label
            )));
        }
        if self.interval != ckpt.interval {
            return Err(mismatch(format!(
                "interval {} vs checkpointed {}",
                self.interval, ckpt.interval
            )));
        }
        if ckpt.cursor > self.total_packets() {
            return Err(mismatch(format!(
                "cursor {} beyond the campaign's {} test packets",
                ckpt.cursor,
                self.total_packets()
            )));
        }
        self.estimator
            .load_state(&ckpt.estimator)
            .map_err(|error| CheckpointError::State {
                session: ckpt.id,
                error,
            })?;
        self.next_due = ckpt.next_due;
        self.cursor = ckpt.cursor;
        self.trace = ckpt.trace.clone();
        Ok(())
    }

    /// Phase 1 of serving the due packet: take its scan and run the
    /// estimator's `plan`.
    ///
    /// `scan` is the due packet's [`PacketScan`] (the engine hands out its
    /// cache's shared copy); it is kept only when the packet needs one —
    /// it is scored, or the estimator consumes preamble observations.
    ///
    /// # Panics
    /// Panics when no packet is due (the engine only calls this for due
    /// sessions), when a pending packet was never completed, or when a
    /// packet that needs a scan comes without the right one.
    pub fn prepare(&mut self, tick: u64, scan: Option<PacketScan>) {
        assert!(self.due(tick), "prepare() without a due packet");
        assert!(
            self.pending.is_none(),
            "prepare() with an unconsumed pending packet"
        );
        let k = self.cursor;
        let step = PacketStep::new(&self.campaign, self.combination.test, self.score_from);
        let scan = step
            .needs_scan(k, self.estimator.wants_preamble_observations())
            .then(|| {
                scan.filter(|scan| scan.packet() == k)
                    .expect("prepare() needs the due packet's scan")
            });
        // Unscored (warm-up) packets are only observed, never estimated,
        // exactly as offline.
        let planned = match &scan {
            Some(scan) if step.scored(k) => Some(self.estimator.plan(&step.request(scan))),
            _ => None,
        };
        self.pending = Some(PendingPacket {
            scan,
            planned,
            prediction: None,
        });
    }

    /// The pending forward pass, as `(model, input image)` — what the
    /// planner groups by [`VvdModel::key`] into batched forward passes.
    pub(crate) fn pending_plan(&self) -> Option<(&VvdModel, &DepthImage)> {
        match self.pending.as_ref()?.planned.as_ref()? {
            Step::NeedsVvd(plan) => {
                let test_set = self.campaign.set(self.combination.test);
                Some((&plan.model, test_set.frame(plan.frame_index)))
            }
            Step::Done(_) => None,
        }
    }

    /// Hands the session the batch-computed output of its pending plan.
    ///
    /// # Panics
    /// Panics when no forward pass is pending — predictions must match
    /// plans one-to-one.
    pub(crate) fn inject_prediction(&mut self, prediction: FirFilter) {
        let pending = self
            .pending
            .as_mut()
            .expect("inject_prediction() without a pending packet");
        assert!(
            matches!(pending.planned, Some(Step::NeedsVvd(_))),
            "inject_prediction() without a pending plan"
        );
        pending.prediction = Some(prediction);
    }

    /// Phase 2 of serving the due packet: finish a planned estimate with
    /// the injected prediction, then decode, score and observe through the
    /// offline pipeline's [`PacketStep`] — which is what makes serve traces
    /// equal to [`stream_estimators`] ones.
    ///
    /// [`stream_estimators`]: vvd_testbed::stream::stream_estimators
    ///
    /// # Panics
    /// Panics when [`prepare`](Self::prepare) has not run for this packet,
    /// or a planned forward pass received no prediction.
    pub fn complete(&mut self) {
        let PendingPacket {
            scan,
            planned,
            prediction,
        } = self
            .pending
            .take()
            .expect("complete() without a prepared packet");
        let step = PacketStep::new(&self.campaign, self.combination.test, self.score_from);
        step.run(
            self.cursor,
            scan.as_ref(),
            self.estimator.as_mut(),
            &mut self.trace,
            |estimator, request| match planned.expect("scored packets are planned") {
                Step::Done(estimate) => estimate,
                Step::NeedsVvd(_) => estimator.finish(
                    request,
                    prediction.expect("the planner injects every planned forward pass"),
                ),
            },
        );
        self.cursor += 1;
        self.next_due += self.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_every_knob() {
        let spec = SessionSpec::new("paper", "ground-truth")
            .every(3)
            .offset(7)
            .combination(1);
        assert_eq!(spec.scenario, "paper");
        assert_eq!(spec.estimator, "ground-truth");
        assert_eq!(spec.interval_ticks, 3);
        assert_eq!(spec.offset_ticks, 7);
        assert_eq!(spec.combination, 1);
    }
}
