//! Pipeline golden: the double-buffered tick pipeline (`VVD_PIPELINE`) is
//! **pure scheduling** — every digest is bit-identical with the pipeline
//! on or off, at shard counts 1/2/8, across a checkpoint/resume cut that
//! switches pipeline modes mid-run, and across loopback clusters of 1, 2
//! and 4 workers.
//!
//! The pipeline overlaps the synthesis of tick T+1's first-touch packet
//! scans (waveform regeneration + preamble least-squares) with tick T's
//! batched inference, filling the engine's shared scan cache one tick
//! early; a scan is keyed by its stream and packet, so correctness never
//! depends on the lookahead being right — only speed does.

use std::collections::BTreeMap;
use std::sync::Arc;
use vvd::net::{serve_cluster, ClusterOptions, WorkerBackend};
use vvd::serve::{
    serve, EngineCheckpoint, LoadGenerator, ServeEngine, ServeOptions, SessionSpec, Workload,
};
use vvd::testbed::{Campaign, EvalConfig};

fn golden_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 24;
    cfg.kalman_warmup_packets = 4;
    cfg.max_vvd_training_samples = 40;
    cfg
}

/// Mixed workload with VVD heads (batched inference to overlap against)
/// and fallback chains (sessions whose regen need is data-dependent), over
/// two scenarios with heterogeneous arrivals.
fn golden_specs() -> Vec<SessionSpec> {
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "vvd:current",
        "fallback:preamble,vvd:current",
        "previous:100ms",
        "kalman:ar=2",
        "standard",
        "preamble",
    ];
    (0..8)
        .map(|i| {
            SessionSpec::new(scenarios[(i / 2) % 2], estimators[i % estimators.len()])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect()
}

fn golden_campaigns() -> BTreeMap<String, Arc<Campaign>> {
    let cfg = golden_config();
    ["paper", "rician:k=6,doppler=30"]
        .into_iter()
        .map(|s| {
            (
                s.to_string(),
                Arc::new(Campaign::generate_spec(&cfg, s).expect("scenario is valid")),
            )
        })
        .collect()
}

fn build_workload(campaigns: &BTreeMap<String, Arc<Campaign>>) -> Workload {
    let mut generator = LoadGenerator::new(golden_config());
    for (spec, campaign) in campaigns {
        generator = generator.with_campaign(spec.clone(), Arc::clone(campaign));
    }
    generator.build(&golden_specs()).expect("specs are valid")
}

fn options(shards: usize, pipeline: bool) -> ServeOptions {
    ServeOptions { shards, pipeline }
}

#[test]
fn pipeline_on_and_off_digest_identically_at_shard_counts_1_2_and_8() {
    let campaigns = golden_campaigns();
    let reference = serve(build_workload(&campaigns), &options(1, false));
    assert_eq!(
        reference.phases.window,
        std::time::Duration::ZERO,
        "pipeline-off runs record no overlap window"
    );

    for shards in [1usize, 2, 8] {
        for pipeline in [false, true] {
            let report = serve(build_workload(&campaigns), &options(shards, pipeline));
            assert_eq!(
                report.digest(),
                reference.digest(),
                "digest diverged at shards={shards} pipeline={pipeline}"
            );
            assert_eq!(report.ticks, reference.ticks);
            assert_eq!(report.packets_streamed, reference.packets_streamed);
            // Trace equality is stronger than the digest: every scored
            // outcome and every estimate bit.
            for (served, base) in report.traces.iter().zip(&reference.traces) {
                assert_eq!(served.scored, base.scored);
                assert_eq!(served.per_packet, base.per_packet);
                for (a, b) in served.estimates.iter().zip(&base.estimates) {
                    assert_eq!(a.taps(), b.taps());
                }
            }
            if pipeline {
                // The pipeline ran: phase accounting is live and sane.
                assert!(report.phases.window > std::time::Duration::ZERO);
                assert!((0.0..=100.0).contains(&report.phases.overlap_pct()));
            }
        }
    }
}

#[test]
fn checkpoint_cut_that_switches_pipeline_modes_matches_the_uninterrupted_digest() {
    let campaigns = golden_campaigns();
    let reference = serve(build_workload(&campaigns), &options(2, false));
    let total_ticks = reference.ticks;
    assert!(total_ticks > 2, "campaign too small to split");

    // Cut mid-run with the pipeline in one mode and resume in the other —
    // both directions.  The scan cache is transient (never
    // checkpointed, refilled after resume), so the cut cannot leak
    // pipeline state across the boundary.
    for (before, after) in [(true, false), (false, true), (true, true)] {
        let mut engine = ServeEngine::new(build_workload(&campaigns), &options(2, before));
        engine.run_ticks(total_ticks / 2);
        let frame = engine
            .checkpoint()
            .expect("tick boundaries always checkpoint")
            .to_frame();
        drop(engine);

        let checkpoint = EngineCheckpoint::from_frame(&frame).expect("own frame decodes");
        let mut resumed =
            ServeEngine::resume(build_workload(&campaigns), &options(5, after), &checkpoint)
                .expect("own checkpoint resumes");
        while !resumed.finished() {
            resumed.run_ticks(1);
        }
        let report = resumed.finish();
        assert_eq!(
            report.digest(),
            reference.digest(),
            "digest diverged across a pipeline={before} -> pipeline={after} cut"
        );
    }
}

#[test]
fn loopback_clusters_of_1_2_and_4_workers_digest_identically_either_way() {
    let cfg = golden_config();
    let specs = golden_specs();
    let reference = serve(
        LoadGenerator::new(cfg)
            .build(&specs)
            .expect("specs are valid"),
        &options(1, false),
    );

    for workers in [1usize, 2, 4] {
        for pipeline in [false, true] {
            let report = serve_cluster(
                &cfg,
                &specs,
                &ClusterOptions {
                    workers,
                    shards: 2,
                    granularity: 3,
                    cache_dir: None,
                    backend: WorkerBackend::Loopback,
                    checkpoints: false,
                    pipeline,
                    fault: None,
                },
            )
            .expect("cluster serve succeeds");
            assert_eq!(
                report.digest(),
                reference.digest(),
                "digest diverged at workers={workers} pipeline={pipeline}"
            );
        }
    }
}
