//! Serve-vs-sequential golden: every session served by the sharded,
//! batched `vvd-serve` engine must produce a trace **bit-identical** to
//! running that session alone through the offline streaming pipeline
//! (`vvd_testbed::stream::stream_estimators`) — at shard counts 1, 2
//! and 8, over a mixed-scenario campaign with heterogeneous arrival
//! schedules, with VVD heads whose forward passes the engine batches
//! across sessions.  The engine's shared scan cache must synthesize each
//! `(stream, packet)` exactly once per serve, whatever the shard count or
//! pipeline mode, and hold nothing once the run drains.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vvd::core::VvdVariant;
use vvd::estimation::estimator::VvdModelPool;
use vvd::estimation::{preamble_estimate, EstimatorRegistry, Technique};
use vvd::serve::{
    serve, LoadGenerator, ScanCounters, ServeEngine, ServeOptions, ServeReport, SessionSpec,
    Workload,
};
use vvd::testbed::stream::{
    stream_estimators, training_cirs, CombinationDatasets, EstimatorTrace, LabeledEstimator,
    StreamOptions,
};
use vvd::testbed::{combinations_for, Campaign, EvalConfig};

fn golden_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 24;
    cfg.kalman_warmup_packets = 4;
    cfg.max_vvd_training_samples = 40;
    cfg
}

/// The harness label of an estimator spec (same policy as the serving
/// layer and the offline `evaluate_specs`).
fn label_of(spec: &str) -> String {
    spec.parse::<Technique>()
        .map(|t| t.label().to_string())
        .unwrap_or_else(|_| spec.trim().to_string())
}

/// The sequential reference: the session's estimator streamed alone
/// through the offline pipeline over the same campaign and combination.
fn sequential_reference(
    cfg: &EvalConfig,
    campaigns: &BTreeMap<String, Arc<Campaign>>,
    spec: &SessionSpec,
) -> EstimatorTrace {
    let campaign = &campaigns[&spec.scenario];
    let combination = combinations_for(cfg.n_sets, cfg.n_combinations)[spec.combination].clone();
    let cirs = training_cirs(campaign, &combination);
    let source = CombinationDatasets::new(campaign, &combination);
    let pool = VvdModelPool::new(&cfg.vvd, &source);
    let registry = EstimatorRegistry::new();
    let estimator = registry.build(&spec.estimator).expect("spec is valid");
    stream_estimators(
        campaign,
        &combination,
        vec![LabeledEstimator::new(label_of(&spec.estimator), estimator)],
        &cirs,
        &pool,
        &StreamOptions {
            score_from: cfg.kalman_warmup_packets,
            parallel: false,
        },
    )
    .remove(0)
}

/// Serves `workload` to completion, also returning the engine's scan
/// counters.
fn serve_counted(workload: Workload, options: &ServeOptions) -> (ServeReport, ScanCounters) {
    let mut engine = ServeEngine::new(workload, options);
    while engine.step_tick() {}
    let counters = engine.scan_counters();
    (engine.finish(), counters)
}

/// The scans a serve of `specs` needs, derived from the specs and the
/// campaign records: packet `k` of a session's stream (its scenario and
/// test set) is scanned iff it is scored (`k >= score_from`) or the
/// session's estimator wants preamble observations.  Each distinct
/// `(stream, packet)` counts once, however many sessions consume it.
fn distinct_scans(
    cfg: &EvalConfig,
    campaigns: &BTreeMap<String, Arc<Campaign>>,
    specs: &[SessionSpec],
) -> u64 {
    let registry = EstimatorRegistry::new();
    let combinations = combinations_for(cfg.n_sets, cfg.n_combinations);
    let mut scanned = BTreeSet::new();
    for spec in specs {
        let test = combinations[spec.combination].test;
        let packets = campaigns[&spec.scenario].set(test).packets.len();
        let wants_preamble = registry
            .build(&spec.estimator)
            .expect("spec is valid")
            .wants_preamble_observations();
        for k in (0..packets).filter(|&k| k >= cfg.kalman_warmup_packets || wants_preamble) {
            scanned.insert((spec.scenario.clone(), test, k));
        }
    }
    scanned.len() as u64
}

fn generator_over(cfg: EvalConfig, campaigns: &BTreeMap<String, Arc<Campaign>>) -> LoadGenerator {
    let mut generator = LoadGenerator::new(cfg);
    for (spec, campaign) in campaigns {
        generator = generator.with_campaign(spec.clone(), Arc::clone(campaign));
    }
    generator
}

fn assert_traces_bit_identical(served: &EstimatorTrace, reference: &EstimatorTrace, what: &str) {
    assert_eq!(served.label, reference.label, "{what}: label");
    assert_eq!(served.scored, reference.scored, "{what}: scored outcomes");
    assert_eq!(
        served.per_packet, reference.per_packet,
        "{what}: per-packet outcomes"
    );
    assert_eq!(
        served.estimates.len(),
        reference.estimates.len(),
        "{what}: estimate count"
    );
    for (i, (a, b)) in served
        .estimates
        .iter()
        .zip(&reference.estimates)
        .enumerate()
    {
        assert_eq!(a.taps(), b.taps(), "{what}: estimate {i}");
    }
    for (i, (a, b)) in served.truths.iter().zip(&reference.truths).enumerate() {
        assert_eq!(a.taps(), b.taps(), "{what}: truth {i}");
    }
}

#[test]
fn serve_matches_the_sequential_pipeline_at_shard_counts_1_2_and_8() {
    let cfg = golden_config();
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "ground-truth",
        "previous:100ms",
        "vvd:current",
        "fallback:preamble,vvd:current",
        "kalman:ar=2",
        "standard",
    ];
    // 8 sessions over a mixed campaign with heterogeneous arrivals; the
    // VVD sessions of each scenario share one trained network.
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| {
            SessionSpec::new(scenarios[i % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect();

    // Generate each distinct campaign once and share it between the serve
    // runs and the sequential references (exactly what the load generator
    // would have produced itself).
    let mut campaigns: BTreeMap<String, Arc<Campaign>> = BTreeMap::new();
    for scenario in scenarios {
        campaigns.insert(
            scenario.to_string(),
            Arc::new(Campaign::generate_spec(&cfg, scenario).unwrap()),
        );
    }

    let references: Vec<EstimatorTrace> = specs
        .iter()
        .map(|spec| sequential_reference(&cfg, &campaigns, spec))
        .collect();

    let scans = distinct_scans(&cfg, &campaigns, &specs);
    let mut digests = Vec::new();
    for shards in [1usize, 2, 8] {
        let workload = generator_over(cfg, &campaigns).build(&specs).unwrap();
        let (report, counters) = serve_counted(
            workload,
            &ServeOptions {
                shards,
                ..ServeOptions::default()
            },
        );
        assert_eq!(counters.synthesized, scans, "shards={shards}: {counters:?}");
        assert_eq!(
            counters.resident, 0,
            "shards={shards}: a drained run holds no scans"
        );

        assert_eq!(report.traces.len(), specs.len());
        for ((trace, reference), spec) in report.traces.iter().zip(&references).zip(&specs) {
            assert_traces_bit_identical(
                trace,
                reference,
                &format!(
                    "shards={shards} session `{}`/`{}`",
                    spec.scenario, spec.estimator
                ),
            );
        }
        digests.push(report.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "shard counts 1/2/8 must digest identically: {digests:?}"
    );
}

#[test]
fn batched_inference_issues_fewer_forward_calls_than_packets_served() {
    let cfg = golden_config();
    // Eight synchronised sessions over one campaign, all resolving to the
    // *same* trained VVD network (the pure head and the fallback's inner
    // head share training provenance through the workload's model cache).
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| {
            SessionSpec::new(
                "paper",
                if i % 2 == 0 {
                    "vvd:current"
                } else {
                    "fallback:preamble,vvd:current"
                },
            )
        })
        .collect();
    let campaign = Arc::new(Campaign::generate_spec(&cfg, "paper").unwrap());
    let workload = LoadGenerator::new(cfg)
        .with_campaign("paper", Arc::clone(&campaign))
        .build(&specs)
        .unwrap();
    let report = serve(
        workload,
        &ServeOptions {
            shards: 2,
            ..ServeOptions::default()
        },
    );

    // One training, shared by all eight sessions.
    assert_eq!(report.model_cache.misses, 1, "{}", report.model_cache);
    assert!(report.model_cache.hits >= 7);

    // Every tick coalesces the eight same-model plans into one forward
    // call: occupancy is the full session count, and the engine issued
    // far fewer NN calls than it served packets.
    assert!(report.packets_served > 0);
    assert!(
        report.batches.batch_calls < report.packets_served,
        "batched inference must issue fewer NN forward calls ({}) than packets served ({})",
        report.batches.batch_calls,
        report.packets_served,
    );
    assert!(
        report.batch_occupancy() > 1.0,
        "batch occupancy {} must exceed 1",
        report.batch_occupancy()
    );
    // Exactly the forward passes whose output is used, and no others: a
    // pure-VVD session needs one per scored packet with a lagged frame, a
    // fallback session only those whose preamble primary defers (missed
    // preamble or failed LS fit).  The digest cannot see a pass that was
    // planned and thrown away; this count does.
    let combination = &combinations_for(cfg.n_sets, cfg.n_combinations)[0];
    let lag = VvdVariant::Current.image_lag_frames();
    let taps = cfg.equalizer.channel_taps;
    let vvd_packets: Vec<_> = campaign
        .set(combination.test)
        .packets
        .iter()
        .skip(cfg.kalman_warmup_packets)
        .filter(|record| record.frame_index >= lag)
        .collect();
    let preamble_defers = vvd_packets
        .iter()
        .filter(|record| {
            let (tx, received) = campaign.received_waveform(combination.test, record.index);
            !record.preamble_detected || preamble_estimate(&tx, received.as_slice(), taps).is_err()
        })
        .count();
    let sessions_of_each = (specs.len() / 2) as u64;
    assert_eq!(
        report.batches.images,
        sessions_of_each * (vvd_packets.len() + preamble_defers) as u64,
        "{} scored VVD packets, {preamble_defers} of them with a deferring preamble",
        vvd_packets.len()
    );
    assert!(report.batches.max_batch >= specs.len() / 2);

    // And batching is invisible in the results: the serve trace matches
    // the sequential pipeline for every session.
    let mut campaigns = BTreeMap::new();
    campaigns.insert("paper".to_string(), campaign);
    for (trace, spec) in report.traces.iter().zip(&specs) {
        let reference = sequential_reference(&cfg, &campaigns, spec);
        assert_traces_bit_identical(trace, &reference, &spec.estimator);
    }
}

#[test]
fn scan_cache_synthesizes_each_stream_packet_once_at_any_shard_count_and_pipeline_mode() {
    let mut cfg = golden_config();
    cfg.n_combinations = 2;
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "ground-truth",
        "previous:100ms",
        "kalman:ar=2",
        "standard",
        "preamble",
        "fallback:preamble,ground-truth",
    ];
    // 12 sessions on four streams (two scenarios x two test sets), with
    // heterogeneous arrivals, so a stream's sessions reach a packet on
    // different ticks and the cache must hold it for the slowest one.
    let specs: Vec<SessionSpec> = (0..12)
        .map(|i| {
            SessionSpec::new(scenarios[i % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
                .combination((i / 2) % 2)
        })
        .collect();
    let campaigns: BTreeMap<String, Arc<Campaign>> = scenarios
        .iter()
        .map(|s| {
            (
                s.to_string(),
                Arc::new(Campaign::generate_spec(&cfg, s).unwrap()),
            )
        })
        .collect();
    let scans = distinct_scans(&cfg, &campaigns, &specs);
    // Four streams, each scored from the warm-up on.
    let scored = cfg.packets_per_set - cfg.kalman_warmup_packets;
    assert_eq!(scans, 4 * scored as u64);
    let consumed = specs.len() * scored;

    let mut digests = BTreeSet::new();
    for pipeline in [false, true] {
        for shards in [1usize, 2, 8] {
            let workload = generator_over(cfg, &campaigns).build(&specs).unwrap();
            let (report, counters) = serve_counted(workload, &ServeOptions { shards, pipeline });
            let what = format!("shards={shards} pipeline={pipeline}: {counters:?}");
            assert_eq!(counters.synthesized, scans, "{what}");
            assert!(
                (counters.synthesized as usize) < consumed,
                "sessions share scans: {what}"
            );
            assert_eq!(counters.resident, 0, "{what}");
            assert!(
                counters.peak_resident > 0 && counters.peak_resident as u64 <= scans,
                "{what}"
            );
            digests.insert(report.digest());
        }
    }
    assert_eq!(digests.len(), 1, "every mode digests identically");
}

#[test]
fn bypass_sessions_sharing_a_scan_match_the_sequential_pipeline() {
    // Several `standard` (Bypass) sessions and a `ground-truth` session on
    // one stream: the Bypass decodes of a packet share one scan and so one
    // lazily computed synchronisation offset, computed by whichever shard
    // reaches it first.  Two sessions arrive on the same ticks, so at 2 and
    // 8 shards they can race for it.
    let cfg = golden_config();
    let specs = vec![
        SessionSpec::new("paper", "standard"),
        SessionSpec::new("paper", "standard"),
        SessionSpec::new("paper", "ground-truth"),
        SessionSpec::new("paper", "standard").every(2).offset(1),
    ];
    let mut campaigns = BTreeMap::new();
    campaigns.insert(
        "paper".to_string(),
        Arc::new(Campaign::generate_spec(&cfg, "paper").unwrap()),
    );
    let references: Vec<EstimatorTrace> = specs
        .iter()
        .map(|spec| sequential_reference(&cfg, &campaigns, spec))
        .collect();
    let scans = distinct_scans(&cfg, &campaigns, &specs);
    assert_eq!(
        scans,
        (cfg.packets_per_set - cfg.kalman_warmup_packets) as u64
    );
    for shards in [1usize, 2, 8] {
        let workload = generator_over(cfg, &campaigns).build(&specs).unwrap();
        let (report, counters) = serve_counted(
            workload,
            &ServeOptions {
                shards,
                ..ServeOptions::default()
            },
        );
        assert_eq!(counters.synthesized, scans, "shards={shards}");
        assert_eq!(counters.resident, 0, "shards={shards}");
        for ((trace, reference), spec) in report.traces.iter().zip(&references).zip(&specs) {
            assert_traces_bit_identical(
                trace,
                reference,
                &format!("shards={shards} session `{}`", spec.estimator),
            );
        }
    }
}
