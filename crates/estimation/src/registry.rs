//! Pluggable estimator registry and the spec-string grammar.
//!
//! The registry builds boxed
//! [`ChannelEstimator`](crate::ChannelEstimator)s from a [`Technique`] or
//! from a parsable *spec string*, so new evaluation scenarios (a new AR
//! order, a new staleness lag, a new fallback chain) need zero harness
//! edits:
//!
//! ```text
//! standard                      IEEE 802.15.4 decoding, no equalization
//! ground-truth                  perfect full-packet LS estimate
//! preamble                      SHR-based LS, gated on preamble detection
//! preamble:genie                SHR-based LS, always-detected preamble
//! previous:<N>ms                perfect estimate from N ms ago (N ≥ 100,
//!                               multiple of the 100 ms packet period)
//! kalman:ar=<p>                 Kalman filter over an AR(p) tap model
//! vvd:current                   VVD at the synchronised frame
//! vvd:future33ms                VVD predicting 33.3 ms ahead
//! vvd:future100ms               VVD predicting 100 ms ahead
//! fallback:<primary>,<spec>     primary when available, else <spec>
//! ```
//!
//! In `fallback` the primary spec must not contain a comma; the secondary
//! may be any spec, so chains nest to the right:
//! `fallback:preamble,fallback:kalman:ar=5,vvd:current`.
//!
//! Custom estimators register a factory under a new head name with
//! [`EstimatorRegistry::register`]; see `examples/custom_estimator.rs`.

use crate::estimator::{
    BoxedEstimator, Fallback, GroundTruth, Kalman, Preamble, Previous, Standard, Vvd,
};
use crate::techniques::Technique;
use std::collections::BTreeMap;
use std::fmt;
use vvd_core::VvdVariant;

/// Milliseconds between two packets (the paper transmits at 10 Hz).
pub const PACKET_PERIOD_MS: usize = 100;

/// A spec string failed to parse or referenced an unknown estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    spec: String,
    reason: String,
}

impl SpecError {
    /// Creates an error describing why `spec` was rejected (public so
    /// custom factories can report their own parse failures).
    pub fn new(spec: &str, reason: impl Into<String>) -> Self {
        SpecError {
            spec: spec.to_string(),
            reason: reason.into(),
        }
    }

    /// The offending spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid estimator spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// A factory building an estimator from the argument part of a spec string
/// (everything after the first `:`; empty when there is none).
pub type EstimatorFactory =
    Box<dyn Fn(&EstimatorRegistry, &str) -> Result<BoxedEstimator, SpecError> + Send + Sync>;

/// Builds boxed channel estimators by name.
///
/// [`EstimatorRegistry::new`] pre-registers a factory per built-in
/// estimator family; [`EstimatorRegistry::register`] adds (or overrides)
/// one.
pub struct EstimatorRegistry {
    factories: BTreeMap<String, EstimatorFactory>,
}

impl EstimatorRegistry {
    /// A registry with every built-in estimator family registered.
    pub fn new() -> Self {
        let mut registry = EstimatorRegistry {
            factories: BTreeMap::new(),
        };
        registry.register("standard", |_, args| {
            expect_no_args("standard", args)?;
            Ok(Box::new(Standard))
        });
        registry.register("ground-truth", |_, args| {
            expect_no_args("ground-truth", args)?;
            Ok(Box::new(GroundTruth))
        });
        registry.register("preamble", |_, args| match args {
            "" => Ok(Box::new(Preamble::detected()) as BoxedEstimator),
            "genie" => Ok(Box::new(Preamble::genie())),
            other => Err(SpecError::new(
                &format!("preamble:{other}"),
                "expected `preamble` or `preamble:genie`",
            )),
        });
        registry.register("previous", |_, args| {
            let spec = format!("previous:{args}");
            let ms: usize = args
                .strip_suffix("ms")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| SpecError::new(&spec, "expected `previous:<N>ms`"))?;
            if ms == 0 || !ms.is_multiple_of(PACKET_PERIOD_MS) {
                return Err(SpecError::new(
                    &spec,
                    format!("the lag must be a positive multiple of the {PACKET_PERIOD_MS} ms packet period"),
                ));
            }
            Ok(Box::new(Previous::packets(ms / PACKET_PERIOD_MS)))
        });
        registry.register("kalman", |_, args| {
            let spec = format!("kalman:{args}");
            let order: usize = args
                .strip_prefix("ar=")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| SpecError::new(&spec, "expected `kalman:ar=<order>`"))?;
            if order == 0 {
                return Err(SpecError::new(&spec, "the AR order must be at least 1"));
            }
            Ok(Box::new(Kalman::ar(order)))
        });
        registry.register("vvd", |_, args| {
            let variant = match args {
                "current" => VvdVariant::Current,
                "future33ms" => VvdVariant::Future33ms,
                "future100ms" => VvdVariant::Future100ms,
                other => {
                    return Err(SpecError::new(
                        &format!("vvd:{other}"),
                        "expected `vvd:current`, `vvd:future33ms` or `vvd:future100ms`",
                    ))
                }
            };
            Ok(Box::new(Vvd::new(variant)))
        });
        registry.register("fallback", |registry, args| {
            let spec = format!("fallback:{args}");
            let (primary, secondary) = args.split_once(',').ok_or_else(|| {
                SpecError::new(&spec, "expected `fallback:<primary>,<secondary>`")
            })?;
            Ok(Box::new(Fallback::new(
                registry.build(primary)?,
                registry.build(secondary)?,
            )))
        });
        registry
    }

    /// Registers (or overrides) a factory under a head name.  The factory
    /// receives the registry itself (for recursive specs) and the argument
    /// part of the spec string.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&EstimatorRegistry, &str) -> Result<BoxedEstimator, SpecError>
            + Send
            + Sync
            + 'static,
    {
        self.factories.insert(name.to_string(), Box::new(factory));
    }

    /// The registered head names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Builds an estimator from a spec string.
    pub fn build(&self, spec: &str) -> Result<BoxedEstimator, SpecError> {
        let spec = spec.trim();
        let (head, args) = match spec.split_once(':') {
            Some((head, args)) => (head, args),
            None => (spec, ""),
        };
        let factory = self.factories.get(head).ok_or_else(|| {
            SpecError::new(
                spec,
                format!(
                    "unknown estimator `{head}` (registered: {})",
                    self.names().join(", ")
                ),
            )
        })?;
        factory(self, args)
    }

    /// Builds the estimator of a canonical paper technique.
    pub fn technique(&self, technique: Technique) -> BoxedEstimator {
        self.build(technique.spec_str())
            .expect("canonical technique specs always parse")
    }
}

impl Default for EstimatorRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn expect_no_args(head: &str, args: &str) -> Result<(), SpecError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(SpecError::new(
            &format!("{head}:{args}"),
            format!("`{head}` takes no arguments"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{Estimate, EstimateRequest, FrameSource, PacketObservation, Step};
    use vvd_dsp::{Complex, FirFilter};
    use vvd_vision::DepthImage;

    #[test]
    fn every_canonical_technique_builds() {
        let registry = EstimatorRegistry::new();
        for technique in Technique::ALL {
            let _ = registry.technique(technique);
        }
    }

    #[test]
    fn arbitrary_orders_and_lags_parse() {
        let registry = EstimatorRegistry::new();
        assert!(registry.build("kalman:ar=7").is_ok());
        assert!(registry.build("previous:1500ms").is_ok());
        assert!(registry.build("fallback:preamble,vvd:current").is_ok());
        // Right-nested fallback chains.
        assert!(registry
            .build("fallback:preamble,fallback:kalman:ar=5,vvd:current")
            .is_ok());
        // Whitespace around the spec is tolerated.
        assert!(registry.build("  standard  ").is_ok());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let registry = EstimatorRegistry::new();
        for bad in [
            "kalman",
            "kalman:ar=0",
            "kalman:ar=x",
            "previous:0ms",
            "previous:150ms",
            "previous:5",
            "vvd",
            "vvd:later",
            "fallback:preamble",
            "nonsense",
            "standard:loud",
            "preamble:maybe",
        ] {
            let err = match registry.build(bad) {
                Err(err) => err,
                Ok(_) => panic!("`{bad}` should be rejected"),
            };
            assert!(
                !err.to_string().is_empty() && !err.spec().is_empty(),
                "{bad} should produce a descriptive error"
            );
        }
        // Unknown names list the registered ones.
        let err = match registry.build("nonsense") {
            Err(err) => err,
            Ok(_) => panic!("`nonsense` should be rejected"),
        };
        assert!(err.to_string().contains("standard"));
    }

    #[test]
    fn custom_estimators_can_be_registered_and_composed() {
        struct Fixed(FirFilter);
        impl crate::estimator::ChannelEstimator for Fixed {
            fn plan(&mut self, _req: &EstimateRequest<'_>) -> Step {
                Step::Done(Estimate::aligned(self.0.clone()))
            }
        }

        let mut registry = EstimatorRegistry::new();
        registry.register("fixed", |_, args| {
            let gain: f64 = args
                .parse()
                .map_err(|_| SpecError::new(&format!("fixed:{args}"), "expected `fixed:<gain>`"))?;
            Ok(Box::new(Fixed(FirFilter::from_taps(&[Complex::new(
                gain, 0.0,
            )]))))
        });

        struct NoFrames;
        impl FrameSource for NoFrames {
            fn frame(&self, _index: usize) -> &DepthImage {
                unreachable!()
            }
            fn n_frames(&self) -> usize {
                0
            }
        }
        let perfect = FirFilter::from_taps(&[Complex::ONE]);
        let frames = NoFrames;
        let req = EstimateRequest {
            packet_index: 0,
            perfect_cir: &perfect,
            preamble_estimate: None,
            preamble_detected: false,
            frame_index: 0,
            frames: &frames,
        };

        // Standalone.
        let mut custom = registry.build("fixed:0.25").unwrap();
        match custom.estimate(&req) {
            Estimate::Ready { cir, .. } => assert_eq!(cir.taps()[0], Complex::new(0.25, 0.0)),
            other => panic!("unexpected estimate {other:?}"),
        }

        // Composed through the generic fallback combinator.
        let mut combined = registry.build("fallback:preamble,fixed:2.0").unwrap();
        combined.observe(&PacketObservation {
            perfect_cir: &perfect,
            aligned_cir: &perfect,
            preamble_estimate: None,
        });
        match combined.estimate(&req) {
            Estimate::Ready { cir, .. } => assert_eq!(cir.taps()[0], Complex::new(2.0, 0.0)),
            other => panic!("unexpected estimate {other:?}"),
        }
    }

    #[test]
    fn camera_dependence_classification_over_all_techniques() {
        // Table-driven: which built estimators depend on informative camera
        // frames (the VVD family and the combinator that can delegate to
        // it) — used by scenario sweeps to annotate estimator × scenario
        // cells on camera-blind scenarios (`rician:…`, `rayleigh:…`).
        let table = [
            (Technique::StandardDecoding, false),
            (Technique::GroundTruth, false),
            (Technique::PreambleBased, false),
            (Technique::PreambleBasedGenie, false),
            (Technique::Previous100ms, false),
            (Technique::Previous500ms, false),
            (Technique::KalmanAr1, false),
            (Technique::KalmanAr5, false),
            (Technique::KalmanAr20, false),
            (Technique::VvdCurrent, true),
            (Technique::VvdFuture33ms, true),
            (Technique::VvdFuture100ms, true),
            (Technique::PreambleVvdCombined, true),
            (Technique::PreambleKalmanCombined, false),
        ];
        assert_eq!(table.len(), Technique::ALL.len());
        let registry = EstimatorRegistry::new();
        for (technique, uses_camera) in table {
            assert!(Technique::ALL.contains(&technique));
            assert_eq!(
                registry.technique(technique).uses_camera(),
                uses_camera,
                "uses_camera({technique})"
            );
        }
        // Nesting propagates through fallback chains.
        assert!(registry
            .build("fallback:preamble,fallback:kalman:ar=5,vvd:current")
            .unwrap()
            .uses_camera());
        assert!(!registry
            .build("fallback:preamble,kalman:ar=5")
            .unwrap()
            .uses_camera());
    }

    #[test]
    fn registered_names_are_listed() {
        let registry = EstimatorRegistry::new();
        let names = registry.names();
        for expected in [
            "standard",
            "ground-truth",
            "preamble",
            "previous",
            "kalman",
            "vvd",
            "fallback",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
