//! The benchmark's workloads, their set-up and one timed serve loop.
//!
//! Every workload is 64 link sessions over the serve bench's two scenarios
//! at the `tiny` campaign scale; they differ only in the estimator mix,
//! which decides which layers a packet passes through (see README.md for
//! why each was chosen and what each layer change should move).

use crate::stats::{ms, Ledger, Tracer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vvd_estimation::{ModelCache, ModelCacheStats};
use vvd_serve::{
    mixed_session_specs, BatchCounters, LoadGenerator, ServeEngine, ServeOptions, ServeReport,
};
use vvd_serve::{SessionSpec, Workload};
use vvd_testbed::{Campaign, EvalConfig};

/// Concurrent link sessions per workload.
pub const SESSIONS: usize = 64;

/// The serve bench's two radio environments.
pub const SCENARIOS: [&str; 2] = ["paper", "rician:k=6,doppler=30"];

/// Ticks served, untimed, on a freshly built workload before timing
/// starts.  By tick 40 every session is past its warm-up packets, so the
/// steady-state batch sizes (and their GEMM autotune sweeps) have run.
pub const WARMUP_TICKS: u64 = 40;

pub struct WorkloadDef {
    pub name: &'static str,
    pub estimators: &'static [&'static str],
    /// Serve digest at the default seed ([`EvalConfig::tiny`]'s).
    pub pinned_digest: u64,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "mixed",
        estimators: &[
            "vvd:current",
            "fallback:preamble,vvd:current",
            "kalman:ar=5",
            "previous:100ms",
            "ground-truth",
            "preamble",
        ],
        pinned_digest: 0x523c_a76f_46b6_87c7,
    },
    WorkloadDef {
        name: "vvd_heavy",
        estimators: &["vvd:current"],
        pinned_digest: 0x778f_b3e5_82ca_7c85,
    },
    WorkloadDef {
        name: "dsp_only",
        estimators: &["preamble", "ground-truth", "previous:100ms", "kalman:ar=5"],
        pinned_digest: 0x8768_983e_592f_f405,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The serve bench's campaign configuration, re-seeded.
pub fn config(seed: u64) -> EvalConfig {
    let mut cfg = EvalConfig::tiny();
    cfg.n_combinations = cfg.n_combinations.min(2);
    cfg.seed = seed;
    cfg
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// In-process serving: one shard per core, the engine's default pipeline.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: nproc(),
        ..ServeOptions::default()
    }
}

impl WorkloadDef {
    pub fn specs(&self) -> Vec<SessionSpec> {
        mixed_session_specs(SESSIONS, &SCENARIOS, self.estimators)
    }

    /// Whether any session runs the CNN.
    pub fn runs_vvd(&self) -> bool {
        self.estimators.iter().any(|e| e.contains("vvd"))
    }
}

/// Scratch directory inside the checkout (spans, model caches).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// A set-up workload: the generator holds the campaigns, so rebuilding
/// the sessions for another timed serve skips campaign generation.
pub struct Prepared {
    generator: LoadGenerator,
    pub specs: Vec<SessionSpec>,
    pub campaigns: Vec<(String, Arc<Campaign>)>,
    /// Model-cache counters right after the build (trainings and hits).
    pub build_cache: ModelCacheStats,
    /// Wall time of each `Campaign::generate_spec` call.
    pub campaign_times: Vec<Duration>,
    /// Wall time of `LoadGenerator::build` (fit and CNN training).
    pub build_time: Duration,
    /// Wall time of the whole set-up, warm-up included.
    pub total: Duration,
    /// Disk layer of the rebuilds' model caches: the first rebuild trains
    /// and publishes there, later ones load instead of training again.
    model_dir: PathBuf,
}

/// Generates the campaigns, builds (fits) the workload and serves its
/// first [`WARMUP_TICKS`] ticks untimed, so lazy first-use work (GEMM
/// autotune sweeps, first-touch allocation) is charged here.
pub fn set_up(def: &WorkloadDef, cfg: &EvalConfig) -> Prepared {
    let start = Instant::now();
    let mut generator = LoadGenerator::new(*cfg);
    let mut campaign_times = Vec::new();
    for scenario in SCENARIOS {
        let t = Instant::now();
        let campaign = Campaign::generate_spec(cfg, scenario).expect("scenario specs are valid");
        campaign_times.push(t.elapsed());
        generator = generator.with_campaign(scenario, Arc::new(campaign));
    }
    let specs = def.specs();
    let t = Instant::now();
    let workload = generator.build(&specs).expect("workload specs are valid");
    let build_time = t.elapsed();
    let build_cache = workload.cache.stats();
    let campaigns = workload.campaigns.clone();
    let mut engine = ServeEngine::new(workload, &serve_options());
    engine.run_ticks(WARMUP_TICKS);
    drop(engine);
    Prepared {
        generator,
        specs,
        campaigns,
        build_cache,
        campaign_times,
        build_time,
        total: start.elapsed(),
        model_dir: work_dir().join(format!("models-{}", std::process::id())),
    }
}

impl Prepared {
    /// A fresh copy of the workload: campaigns reused, sessions fitted
    /// again, models loaded from the disk layer once published there.
    pub fn rebuild(&self) -> Workload {
        let assigned: Vec<(usize, SessionSpec)> = self.specs.iter().cloned().enumerate().collect();
        let cache = ModelCache::new().with_disk_dir(&self.model_dir);
        self.generator
            .build_assigned(&assigned, cache)
            .expect("workload specs are valid")
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.model_dir);
    }
}

/// What one timed serve leaves behind.  The report itself, with every
/// session's trace, is returned beside it and dropped by callers that do
/// not need it, so a run's memory does not grow with its number of serves.
pub struct ServeRun {
    /// Wall time of the `step_tick` loop, from the first call until the
    /// workload drained.
    pub wall: Duration,
    /// Wall time of each `step_tick` call, in milliseconds.
    pub ticks_ms: Vec<f64>,
    pub digest: u64,
    pub packets_streamed: u64,
    pub packets_served: u64,
    pub batches: BatchCounters,
    /// Packet error rate over every scored packet of every session.
    pub per_mean: f64,
}

impl ServeRun {
    pub fn pkt_per_s(&self) -> f64 {
        self.packets_streamed as f64 / self.wall.as_secs_f64()
    }
}

/// The traced form of a serve: a span per tick under one span for the
/// serve, and a probe run once, at tick boundary `probe_at`, whose own
/// wall time is left out of the serve wall.
pub struct TickTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub probe_at: u64,
    pub probe: &'a mut dyn FnMut(&ServeEngine, &mut Tracer),
}

/// Serves `workload` to completion, timing every tick.
pub fn serve_timed(workload: Workload, mut trace: Option<TickTrace>) -> (ServeRun, ServeReport) {
    let mut engine = ServeEngine::new(workload, &serve_options());
    let mut ticks_ms = Vec::new();
    let mut excluded = Duration::ZERO;
    let root = trace.as_mut().map(|t| t.tracer.open("serve.run", None));
    let start = Instant::now();
    while !engine.finished() {
        if let Some(t) = trace.as_mut().filter(|t| t.probe_at == engine.ticks()) {
            let probe = Instant::now();
            (t.probe)(&engine, t.tracer);
            excluded += probe.elapsed();
        }
        let tick = Instant::now();
        match trace.as_mut() {
            Some(t) => t.tracer.span("serve.tick", root, || engine.step_tick()),
            None => engine.step_tick(),
        };
        ticks_ms.push(ms(tick.elapsed()));
    }
    let wall = start.elapsed() - excluded;
    if let (Some(t), Some(root)) = (trace, root) {
        t.tracer.close(root);
    }
    let report = engine.finish();
    let (errors, scored) = report.traces.iter().fold((0, 0), |(e, n), t| {
        (
            e + t.scored.iter().filter(|o| o.is_packet_error()).count(),
            n + t.scored.len(),
        )
    });
    let run = ServeRun {
        wall,
        ticks_ms,
        digest: report.digest(),
        packets_streamed: report.packets_streamed,
        packets_served: report.packets_served,
        batches: report.batches,
        per_mean: errors as f64 / scored.max(1) as f64,
    };
    (run, report)
}

/// Correctness gates on a run's timed serves, plus packet accounting.
pub fn check_serves(def: &WorkloadDef, cfg: &EvalConfig, runs: &[&ServeRun], ledger: &mut Ledger) {
    let expected = (SESSIONS * cfg.packets_per_set) as u64;
    for run in runs {
        let streamed = run.packets_streamed;
        ledger.count("packets streamed", expected, expected.abs_diff(streamed));
    }
    let digest = runs[0].digest;
    println!("digest {digest:016x}");
    ledger.gate(
        "every serve of the run has the same digest",
        runs.iter().all(|r| r.digest == digest),
    );
    if cfg.seed == EvalConfig::tiny().seed {
        ledger.gate(
            &format!("digest equals the pinned {:016x}", def.pinned_digest),
            digest == def.pinned_digest,
        );
    }
    let batches = &runs[0].batches;
    if def.runs_vvd() {
        ledger.gate(
            &format!("batch occupancy {:.2} > 1", batches.occupancy()),
            batches.occupancy() > 1.0,
        );
    } else {
        ledger.gate(
            &format!("{} forward calls == 0", batches.batch_calls),
            batches.batch_calls == 0,
        );
    }
}
