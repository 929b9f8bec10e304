//! The traced run: the same serve, plus each layer's public functions
//! timed from outside, so a change can be traced to the layer that moved
//! an end-to-end number.  Layer names are the crates'.

use crate::stats::{median, ms, Ledger, Metrics, Tracer};
use crate::workload::{check_serves, work_dir, WorkloadDef};
use crate::workload::{nproc, serve_options, serve_timed, set_up, Prepared, ServeRun, TickTrace};
use std::collections::BTreeSet;
use std::time::Instant;
use vvd_core::VvdVariant;
use vvd_estimation::{
    decode_with_reference, preamble_estimate, EstimatorRegistry, ModelCache, VvdModelPool,
};
use vvd_net::message::CheckpointFrame;
use vvd_net::{serve_cluster_detailed, ClusterOptions, Message, WorkerBackend};
use vvd_phy::{DecodeOutcome, Receiver};
use vvd_serve::{EngineCheckpoint, ServeEngine, ServeReport};
use vvd_testbed::stream::CombinationDatasets;
use vvd_testbed::{combinations_for, EvalConfig};

/// Calls per checkpoint/codec probe at the mid-run tick boundary.
const PROBE_CALLS: usize = 10;

/// Passes over the workload's distinct packets in the layer replays.
const REPLAY_PASSES: usize = 3;

/// Least wall time spent timing one NN batch size.
const PREDICT_SECONDS: f64 = 0.3;

pub fn run(
    def: &WorkloadDef,
    cfg: &EvalConfig,
    seconds: f64,
    ledger: &mut Ledger,
    m: &mut Metrics,
) {
    let mut tracer = Tracer::new();
    let prepared = set_up(def, cfg);

    // Untraced and traced serves, interleaved so ambient load hits both.
    let mut plain: Vec<ServeRun> = Vec::new();
    let mut traced: Vec<ServeRun> = Vec::new();
    // The first traced serve's report: its traces give the call counts.
    let mut report: Option<ServeReport> = None;
    let mut probe = CheckpointProbe::default();
    let start = Instant::now();
    loop {
        let pair = Instant::now();
        let (run, untraced_report) = serve_timed(prepared.rebuild(), None);
        let mid = untraced_report.ticks / 2;
        drop(untraced_report);
        plain.push(run);
        let mut hook = |engine: &ServeEngine, tracer: &mut Tracer| probe.run(engine, tracer);
        let (run, traced_report) = serve_timed(
            prepared.rebuild(),
            Some(TickTrace {
                tracer: &mut tracer,
                probe_at: mid,
                probe: &mut hook,
            }),
        );
        traced.push(run);
        report.get_or_insert(traced_report);
        if traced.len() >= 2
            && start.elapsed().as_secs_f64() + pair.elapsed().as_secs_f64() > seconds
        {
            break;
        }
    }
    let report = report.expect("at least one traced serve ran");
    let runs: Vec<&ServeRun> = plain.iter().chain(&traced).collect();
    check_serves(def, cfg, &runs, ledger);
    let (attempted, failed) = probe.snapshots;
    ledger.count("checkpoint snapshots", attempted, failed);
    let (attempted, failed) = probe.round_trips;
    ledger.count(
        "checkpoint frame and message round trips",
        attempted,
        failed,
    );

    let counts = replay_layers(cfg, &prepared, &report, &mut tracer, ledger);
    let nn = predict_costs(cfg, &prepared, &report, &mut tracer, ledger);
    let cluster = run_cluster(def, cfg, &prepared, report.digest(), &mut tracer, ledger);

    // --- testbed ---------------------------------------------------------
    let campaign_ms: f64 = prepared.campaign_times.iter().map(|d| ms(*d)).sum();
    m.put(
        "testbed.campaign_ms",
        campaign_ms,
        "ms",
        &format!("Campaign::generate_spec x{}", prepared.campaign_times.len()),
    );
    m.put(
        "testbed.waveform_calls",
        counts.regenerations as f64,
        "count",
        "regenerations one serve performs",
    );
    m.put(
        "testbed.waveform_distinct",
        counts.distinct as f64,
        "count",
        "distinct (scenario, set, packet) among them",
    );

    // --- estimation ------------------------------------------------------
    m.put(
        "estimation.fit_ms",
        ms(prepared.build_time),
        "ms",
        "LoadGenerator::build, campaigns prebuilt",
    );
    let cache = prepared.build_cache;
    m.put(
        "estimation.cache_misses",
        cache.misses as f64,
        "count",
        "trainings in the in-process build",
    );
    m.put(
        "estimation.cache_hits",
        cache.hits as f64,
        "count",
        "memory hits in the in-process build",
    );

    // --- replayed per-packet calls: testbed, estimation, phy -------------
    for (name, span, what) in [
        (
            "testbed.waveform_us",
            "testbed.waveform",
            "Campaign::received_waveform",
        ),
        (
            "estimation.preamble_ls_us",
            "estimation.preamble_ls",
            "ls::preamble_estimate",
        ),
        (
            "estimation.decode_ref_us",
            "estimation.decode_ref",
            "decode::decode_with_reference",
        ),
        ("phy.sync_us", "phy.sync", "Receiver::synchronize"),
        ("phy.decode_us", "phy.decode", "Receiver::decode_standard"),
        (
            "phy.decode_aligned_us",
            "phy.decode_aligned",
            "Receiver::decode_aligned",
        ),
    ] {
        let (v, n) = tracer.mean_us(span);
        m.put(name, v, "us", &format!("mean of {n} {what} calls"));
    }

    // --- nn --------------------------------------------------------------
    m.put(
        "nn.predict_us_per_image_b1",
        nn.b1_us,
        "us",
        &format!(
            "VvdModel::predict_batch, batch 1, median of {} calls",
            nn.b1_calls
        ),
    );
    let bmax_basis = if report.batches.max_batch == 0 {
        "batch 1: this workload runs no forward pass"
    } else {
        "the serve's largest batch"
    };
    m.put(
        "nn.predict_us_per_image_bmax",
        nn.bmax_us,
        "us",
        &format!(
            "batch {} ({bmax_basis}), median of {} calls",
            nn.bmax, nn.bmax_calls
        ),
    );

    // --- serve -----------------------------------------------------------
    let (tick_ms, n) = tracer.median_ms("serve.tick");
    m.put(
        "serve.tick_ms",
        tick_ms,
        "ms",
        &format!(
            "median of {n} step_tick spans over {} traced serves",
            traced.len()
        ),
    );
    m.put(
        "serve.ticks",
        report.ticks as f64,
        "count",
        "ticks per serve",
    );
    m.put(
        "serve.dsp_ms",
        report.phases.dsp_ms(),
        "ms",
        "ServeReport phases: prepare + complete",
    );
    m.put(
        "serve.infer_ms",
        report.phases.infer_ms(),
        "ms",
        "ServeReport phases: batched inference",
    );
    m.put(
        "serve.overlap_pct",
        report.phases.overlap_pct(),
        "%",
        "next-tick synthesis hidden behind infer+commit",
    );
    let b = &report.batches;
    m.put(
        "serve.forward_calls",
        b.batch_calls as f64,
        "count",
        "predict_batch calls",
    );
    m.put("serve.images", b.images as f64, "count", "images predicted");
    m.put(
        "serve.occupancy",
        b.occupancy(),
        "img/call",
        &format!("{} images / {} calls", b.images, b.batch_calls),
    );
    m.put(
        "serve.max_batch",
        b.max_batch as f64,
        "count",
        "largest batch",
    );

    // --- checkpoint ------------------------------------------------------
    for (name, span, what) in [
        (
            "checkpoint.snapshot_ms",
            "checkpoint.snapshot",
            "ServeEngine::checkpoint",
        ),
        (
            "checkpoint.encode_ms",
            "checkpoint.encode",
            "EngineCheckpoint::to_frame",
        ),
        (
            "checkpoint.decode_ms",
            "checkpoint.decode",
            "EngineCheckpoint::from_frame",
        ),
        (
            "net.msg_encode_ms",
            "net.msg_encode",
            "Message::encode_payload",
        ),
        (
            "net.msg_decode_ms",
            "net.msg_decode",
            "Message::decode_payload",
        ),
    ] {
        let (v, n) = tracer.median_ms(span);
        m.put(
            name,
            v,
            "ms",
            &format!("median of {n} {what} calls at tick {}", probe.tick),
        );
    }
    m.put(
        "checkpoint.frame_bytes",
        probe.frame_bytes as f64,
        "bytes",
        "one mid-run checkpoint frame",
    );

    // --- net -------------------------------------------------------------
    if let Some(c) = &cluster {
        m.put(
            "net.cluster_wall_ms",
            c.wall_ms,
            "ms",
            "serve_cluster_detailed, 2 self-exec workers, checkpoints on, 1 tick per barrier",
        );
        m.put(
            "net.barrier_rounds",
            c.barrier_rounds as f64,
            "count",
            "the most ticks any worker ran (one tick per barrier)",
        );
        m.put(
            "net.worker_ticks",
            c.worker_ticks as f64,
            "count",
            &format!("ticks summed over workers: {:?}", c.per_worker_ticks),
        );
        m.put(
            "estimation.disk_hits",
            c.disk_hits as f64,
            "count",
            "shared disk model-cache hits in the cluster run",
        );
    }

    // --- attribution -----------------------------------------------------
    let shards = nproc();
    let serve_ms = median(&traced.iter().map(|r| ms(r.wall)).collect::<Vec<_>>());
    let plain_ms = median(&plain.iter().map(|r| ms(r.wall)).collect::<Vec<_>>());
    let us = |span| tracer.mean_us(span).0;
    let parts = [
        (
            "waveform",
            us("testbed.waveform") * counts.regenerations as f64,
        ),
        (
            "preamble_ls",
            us("estimation.preamble_ls") * counts.regenerations as f64,
        ),
        (
            "decode_ref",
            us("estimation.decode_ref") * counts.reference_decodes as f64,
        ),
        (
            "sync+decode",
            (us("phy.sync") + us("phy.decode")) * counts.standard_decodes as f64,
        ),
        ("nn", nn.occupancy_us * b.images as f64),
    ];
    let attributed_ms: f64 = parts.iter().map(|(_, us)| us / 1e3).sum();
    let breakdown: Vec<String> = parts
        .iter()
        .map(|(name, us)| format!("{name} {:.0}", us / 1e3))
        .collect();
    m.put(
        "trace.attributed_pct",
        100.0 * attributed_ms / (serve_ms * shards as f64),
        "%",
        &format!(
            "{attributed_ms:.0} ms of calls [{}] / ({serve_ms:.0} ms serve wall x {shards} shards)",
            breakdown.join(", ")
        ),
    );
    m.put(
        "trace.overhead_pct",
        100.0 * (serve_ms - plain_ms) / plain_ms,
        "%",
        &format!(
            "median traced serve {serve_ms:.0} ms vs untraced {plain_ms:.0} ms, {} pairs",
            traced.len()
        ),
    );

    let path = work_dir().join(format!("trace-{}-{}.jsonl", def.name, cfg.seed));
    match std::fs::create_dir_all(work_dir()).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

/// Checkpoint and wire codec costs, measured on a live engine at a tick
/// boundary mid-run.
#[derive(Default)]
struct CheckpointProbe {
    tick: u64,
    frame_bytes: usize,
    /// `ServeEngine::checkpoint` calls, and how many failed.
    snapshots: (u64, u64),
    /// Frame and message round trips, and how many changed the bytes.
    round_trips: (u64, u64),
}

impl CheckpointProbe {
    fn run(&mut self, engine: &ServeEngine, tracer: &mut Tracer) {
        self.tick = engine.ticks();
        let id = tracer.open("checkpoint.probe", None);
        let root = Some(id);
        let mut snapshot = None;
        for _ in 0..PROBE_CALLS {
            self.snapshots.0 += 1;
            match tracer.span("checkpoint.snapshot", root, || engine.checkpoint()) {
                Ok(c) => snapshot = Some(c),
                Err(e) => {
                    println!("checkpoint failed: {e}");
                    self.snapshots.1 += 1;
                }
            }
        }
        if let Some(snapshot) = snapshot {
            let mut frame = Vec::new();
            for _ in 0..PROBE_CALLS {
                frame = tracer.span("checkpoint.encode", root, || snapshot.to_frame());
            }
            self.frame_bytes = frame.len();
            let mut decoded = None;
            for _ in 0..PROBE_CALLS {
                decoded = Some(tracer.span("checkpoint.decode", root, || {
                    EngineCheckpoint::from_frame(&frame)
                }));
            }
            let frame_ok = matches!(decoded, Some(Ok(d)) if d.to_frame() == frame);

            let message = Message::CheckpointFrame(CheckpointFrame { frame });
            let mut payload = Vec::new();
            for _ in 0..PROBE_CALLS {
                payload = tracer.span("net.msg_encode", root, || message.encode_payload());
            }
            let mut back = None;
            for _ in 0..PROBE_CALLS {
                back = Some(tracer.span("net.msg_decode", root, || {
                    Message::decode_payload(message.kind(), &payload)
                }));
            }
            let message_ok = matches!(back, Some(Ok(b)) if b == message);
            self.round_trips.0 += 2;
            self.round_trips.1 += u64::from(!frame_ok) + u64::from(!message_ok);
        }
        tracer.close(id);
    }
}

/// How often one serve calls each replayed function.
struct CallCounts {
    /// Waveform regenerations (each followed by a preamble LS fit).
    regenerations: usize,
    distinct: usize,
    /// Decodes against an estimate (`decode_with_reference`).
    reference_decodes: usize,
    /// Standard decodes (sync + `decode_standard`).
    standard_decodes: usize,
}

/// `true` for the outcome a session records for a packet lost outright.
fn is_lost(o: &DecodeOutcome) -> bool {
    !o.crc_ok && o.chip_count > 0 && o.chip_errors == o.chip_count
}

/// Replays the per-packet DSP of one serve over the workload's own
/// distinct packets, timing each call, and counts how often the serve
/// made each call.
fn replay_layers(
    cfg: &EvalConfig,
    prepared: &Prepared,
    report: &ServeReport,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> CallCounts {
    let registry = EstimatorRegistry::new();
    let combos = combinations_for(cfg.n_sets, cfg.n_combinations);
    let mut distinct = BTreeSet::new();
    let mut counts = CallCounts {
        regenerations: 0,
        distinct: 0,
        reference_decodes: 0,
        standard_decodes: 0,
    };
    for ((spec, trace), session) in prepared
        .specs
        .iter()
        .zip(&report.traces)
        .zip(&report.sessions)
    {
        // A session regenerates every scored packet, and its warm-up
        // packets too when the estimator observes preamble estimates.
        let wants_preamble = registry
            .build(&spec.estimator)
            .expect("workload specs are valid")
            .wants_preamble_observations();
        let scored_from = session.packets_streamed - trace.per_packet.len();
        let first = if wants_preamble { 0 } else { scored_from };
        counts.regenerations += session.packets_streamed - first;
        let scenario = prepared
            .campaigns
            .iter()
            .position(|(name, _)| *name == spec.scenario)
            .expect("every session's campaign was generated");
        let set = combos[spec.combination].test;
        distinct.extend((first..session.packets_streamed).map(|k| (scenario, set, k)));
        let lost = trace.scored.iter().filter(|o| is_lost(o)).count();
        counts.reference_decodes += trace.estimates.len();
        // A reference decode can itself come out lost (a zero estimate), so
        // this difference is a floor at zero, not an exact count.
        counts.standard_decodes += trace
            .scored
            .len()
            .saturating_sub(trace.estimates.len() + lost);
    }
    counts.distinct = distinct.len();

    let receiver = Receiver::new(cfg.phy);
    let taps = cfg.equalizer.channel_taps;
    let mut resynced = true;
    let root = tracer.open("replay", None);
    for _ in 0..REPLAY_PASSES {
        for &(scenario, set, k) in &distinct {
            let campaign = &prepared.campaigns[scenario].1;
            let record = &campaign.set(set).packets[k];
            let (tx, rx) = tracer.span("testbed.waveform", Some(root), || {
                campaign.received_waveform(set, record.index)
            });
            let pre = tracer.span("estimation.preamble_ls", Some(root), || {
                preamble_estimate(&tx, rx.as_slice(), taps).ok()
            });
            let sync = tracer.span("phy.sync", Some(root), || {
                receiver.synchronize(rx.as_slice(), &tx)
            });
            resynced &= sync.preamble_detected == record.preamble_detected;
            tracer.span("phy.decode", Some(root), || {
                receiver.decode_standard(&rx.as_slice()[sync.offset..], &tx)
            });
            tracer.span("phy.decode_aligned", Some(root), || {
                receiver.decode_aligned(rx.as_slice(), &tx)
            });
            tracer.span("estimation.decode_ref", Some(root), || {
                decode_with_reference(
                    &receiver,
                    &tx,
                    rx.as_slice(),
                    &record.perfect_cir,
                    pre.as_ref(),
                    &cfg.equalizer,
                )
            });
        }
    }
    tracer.close(root);
    ledger.gate(
        "replayed packets synchronize as they did when generated",
        resynced,
    );
    counts
}

struct PredictCosts {
    b1_us: f64,
    b1_calls: usize,
    bmax: usize,
    bmax_us: f64,
    bmax_calls: usize,
    /// Per-image cost at the serve's mean batch size (for attribution).
    occupancy_us: f64,
}

/// Per-image `predict_batch` cost at batch 1, at the serve's mean batch
/// and at its largest, on the model and test frames of the workload's
/// first scenario.  A workload that runs no CNN is measured on the model
/// a VVD session over the same campaign would use.
fn predict_costs(
    cfg: &EvalConfig,
    prepared: &Prepared,
    report: &ServeReport,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> PredictCosts {
    let campaign = &prepared.campaigns[0].1;
    let combination = &combinations_for(cfg.n_sets, cfg.n_combinations)[0];
    let source = CombinationDatasets::new(campaign, combination);
    let cache = ModelCache::new();
    let pool = VvdModelPool::with_cache(&cfg.vvd, &source, &cache);
    let model = pool.model(VvdVariant::Current);
    let bmax = report.batches.max_batch.max(1);
    let bocc = (report.batches.occupancy().round() as usize).clamp(1, bmax);
    let frames: Vec<_> = campaign
        .set(combination.test)
        .frames
        .iter()
        .map(|f| &f.image)
        .cycle()
        .take(bmax)
        .collect();

    let mut time = |name: &'static str, batch: usize| -> (f64, usize) {
        let start = Instant::now();
        let mut calls = 0;
        while calls < 5 || start.elapsed().as_secs_f64() < PREDICT_SECONDS {
            tracer.span(name, None, || {
                model.predict_batch(frames[..batch].iter().copied())
            });
            calls += 1;
        }
        let (per_call_ms, n) = tracer.median_ms(name);
        (per_call_ms * 1e3 / batch as f64, n)
    };
    let (b1_us, b1_calls) = time("nn.predict_b1", 1);
    let (occupancy_us, _) = time("nn.predict_bocc", bocc);
    let (bmax_us, bmax_calls) = time("nn.predict_bmax", bmax);

    let batched = model.predict_batch(frames.iter().copied());
    let single: Vec<_> = frames.iter().map(|f| model.predict_cir(f)).collect();
    ledger.gate(
        "batched prediction equals per-image prediction",
        batched == single,
    );
    PredictCosts {
        b1_us,
        b1_calls,
        bmax,
        bmax_us,
        bmax_calls,
        occupancy_us,
    }
}

struct ClusterCosts {
    wall_ms: f64,
    barrier_rounds: u64,
    worker_ticks: u64,
    per_worker_ticks: Vec<u64>,
    disk_hits: u64,
}

/// Serves the workload on two self-exec worker processes sharing a disk
/// model cache, with a checkpoint frame on every one-tick barrier, and
/// checks the merged result against the in-process one.
fn run_cluster(
    def: &WorkloadDef,
    cfg: &EvalConfig,
    prepared: &Prepared,
    in_process_digest: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<ClusterCosts> {
    let workers = 2;
    let cache_dir = work_dir().join(format!("cluster-cache-{}", std::process::id()));
    let options = ClusterOptions {
        workers,
        shards: vvd_dsp::per_process_worker_budget(workers),
        granularity: 1,
        cache_dir: Some(cache_dir.clone()),
        backend: WorkerBackend::SelfExec,
        checkpoints: true,
        pipeline: serve_options().pipeline,
        fault: None,
    };
    let result = tracer.span("net.cluster", None, || {
        serve_cluster_detailed(cfg, &prepared.specs, &options)
    });
    let (wall_ms, _) = tracer.median_ms("net.cluster");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            println!("cluster serve failed: {e}");
            ledger.count("cluster serves", 1, 1);
            return None;
        }
    };
    ledger.count("cluster serves", 1, 0);
    ledger.gate(
        "cluster digest equals the in-process digest",
        run.report.digest() == in_process_digest,
    );
    let cache = run.report.model_cache;
    ledger.gate(
        &format!(
            "cluster trains no more models ({}) than in-process ({})",
            cache.misses, prepared.build_cache.misses
        ),
        cache.misses <= prepared.build_cache.misses,
    );
    if def.runs_vvd() {
        ledger.gate(
            &format!(
                "cluster loads models from the shared disk cache ({} hits)",
                cache.disk_hits
            ),
            cache.disk_hits > 0,
        );
    }
    let per_worker_ticks: Vec<u64> = run.per_worker.iter().map(|w| w.ticks).collect();
    Some(ClusterCosts {
        wall_ms,
        barrier_rounds: per_worker_ticks.iter().copied().max().unwrap_or(0),
        worker_ticks: per_worker_ticks.iter().sum(),
        per_worker_ticks,
        disk_hits: cache.disk_hits,
    })
}
