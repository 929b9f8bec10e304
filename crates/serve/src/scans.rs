//! The engine's transient scan cache: every packet is synthesized once per
//! serve, however many sessions consume it.
//!
//! A [`PacketScan`] (regenerated frame and received waveform, preamble LS
//! fit, lazily the synchronisation offset) is a pure function of the
//! immutable campaign, the test set and the packet position — nothing a
//! session's estimator does can change it.  Sessions that stream the same
//! test set of the same scenario (one *stream*) therefore need the same
//! scans, and a workload usually has far more sessions than streams.  The
//! cache keys scans by `(stream, packet)`:
//!
//! 1. **fill** — before each prepare phase the engine collects the packets
//!    its due sessions need ([`ScanCache::jobs`]: deduplicated, resident
//!    ones skipped) and synthesizes them on `shards` scope threads
//!    ([`fill`]); the tick pipeline runs the same routine one tick early
//!    ([`spawn_fill`] / [`join_fill`]);
//! 2. **share** — prepare hands each due session an `Arc` clone
//!    ([`ScanCache::get`]);
//! 3. **evict** — after the complete phase every packet that all of a
//!    stream's sessions have passed is dropped ([`ScanCache::evict`]);
//!    sessions only move forward, so no packet is ever synthesized twice.
//!
//! The cache is engine state, never checkpointed and never sent on the
//! wire: a resumed engine starts empty and refills on demand, and the
//! counters ([`ScanCounters`]) are observability only.

use crate::store::SessionStore;
use crate::timing::Stopwatch;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;
use vvd_testbed::{Campaign, PacketScan};

/// Counters of an engine's scan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Scans synthesized so far: one per distinct `(stream, packet)` the
    /// run has needed, at any shard count, with the pipeline on or off.
    pub synthesized: u64,
    /// Scans held right now.
    pub resident: usize,
    /// The most scans held at once.
    pub peak_resident: usize,
}

/// The sessions of one `(scenario, test set)` pair and their scans.
struct Stream {
    campaign: Arc<Campaign>,
    set: usize,
    /// Store indices of the stream's sessions.
    sessions: Vec<usize>,
    /// Resident scans, by packet position.
    scans: BTreeMap<usize, PacketScan>,
}

/// The scans an engine's sessions share, keyed by stream and packet.
pub(crate) struct ScanCache {
    streams: Vec<Stream>,
    /// Stream index of each session, in store order.
    stream_of: Vec<usize>,
    counters: ScanCounters,
}

/// One packet to synthesize: everything [`PacketScan::new`] needs, with no
/// borrow of a session or of the cache.
pub(crate) struct ScanJob {
    stream: usize,
    packet: usize,
    campaign: Arc<Campaign>,
    set: usize,
}

/// Synthesized scans, tagged with their stream.
pub(crate) type Filled = Vec<(usize, PacketScan)>;

impl ScanCache {
    /// An empty cache over the store's streams.
    pub(crate) fn new(store: &SessionStore) -> Self {
        let mut keys: BTreeMap<(&str, usize), usize> = BTreeMap::new();
        let mut streams: Vec<Stream> = Vec::new();
        let mut stream_of = Vec::with_capacity(store.len());
        for (idx, session) in store.sessions().iter().enumerate() {
            let (campaign, set) = session.stream();
            let stream = *keys.entry((session.scenario(), set)).or_insert_with(|| {
                streams.push(Stream {
                    campaign: Arc::clone(campaign),
                    set,
                    sessions: Vec::new(),
                    scans: BTreeMap::new(),
                });
                streams.len() - 1
            });
            streams[stream].sessions.push(idx);
            stream_of.push(stream);
        }
        ScanCache {
            streams,
            stream_of,
            counters: ScanCounters::default(),
        }
    }

    /// The jobs that make `wanted` — `(session index, packet)` pairs —
    /// resident: one per distinct `(stream, packet)` not already held, in
    /// `(stream, packet)` order.
    pub(crate) fn jobs(&self, wanted: impl IntoIterator<Item = (usize, usize)>) -> Vec<ScanJob> {
        let missing: BTreeSet<(usize, usize)> = wanted
            .into_iter()
            .map(|(idx, packet)| (self.stream_of[idx], packet))
            .filter(|(stream, packet)| !self.streams[*stream].scans.contains_key(packet))
            .collect();
        missing
            .into_iter()
            .map(|(stream, packet)| ScanJob {
                stream,
                packet,
                campaign: Arc::clone(&self.streams[stream].campaign),
                set: self.streams[stream].set,
            })
            .collect()
    }

    /// Makes synthesized scans resident.
    pub(crate) fn insert(&mut self, filled: Filled) {
        for (stream, scan) in filled {
            self.streams[stream].scans.insert(scan.packet(), scan);
            self.counters.synthesized += 1;
            self.counters.resident += 1;
        }
        self.counters.peak_resident = self.counters.peak_resident.max(self.counters.resident);
    }

    /// The resident scan of packet `packet` of session `idx`'s stream.
    pub(crate) fn get(&self, idx: usize, packet: usize) -> Option<PacketScan> {
        self.streams[self.stream_of[idx]]
            .scans
            .get(&packet)
            .cloned()
    }

    /// Drops every scan that all of its stream's sessions have passed.
    pub(crate) fn evict(&mut self, store: &SessionStore) {
        let sessions = store.sessions();
        for stream in &mut self.streams {
            let Some(passed) = stream.sessions.iter().map(|&i| sessions[i].cursor()).min() else {
                continue;
            };
            let kept = stream.scans.split_off(&passed);
            self.counters.resident -= stream.scans.len();
            stream.scans = kept;
        }
    }

    /// The cache's counters.
    pub(crate) fn counters(&self) -> ScanCounters {
        self.counters
    }
}

/// Synthesizes `jobs` on up to `threads` scope threads and waits for them.
pub(crate) fn fill(jobs: Vec<ScanJob>, threads: usize) -> Filled {
    if threads <= 1 || jobs.len() <= 1 {
        return run_jobs(jobs).0;
    }
    std::thread::scope(|scope| join_fill(spawn_fill(scope, jobs, threads)).0)
}

/// Starts synthesizing `jobs` on up to `threads` threads of `scope`, in
/// contiguous chunks.
pub(crate) fn spawn_fill<'scope>(
    scope: &'scope Scope<'scope, '_>,
    mut jobs: Vec<ScanJob>,
    threads: usize,
) -> Vec<ScopedJoinHandle<'scope, (Filled, Duration)>> {
    let threads = threads.min(jobs.len()).max(1);
    let chunk_size = jobs.len().div_ceil(threads).max(1);
    let mut handles = Vec::with_capacity(threads);
    while !jobs.is_empty() {
        let rest = jobs.split_off(chunk_size.min(jobs.len()));
        let chunk = std::mem::replace(&mut jobs, rest);
        handles.push(scope.spawn(move || run_jobs(chunk)));
    }
    handles
}

/// Joins [`spawn_fill`]'s threads: the scans in job order, and the longest
/// thread's busy time.
pub(crate) fn join_fill(
    handles: Vec<ScopedJoinHandle<'_, (Filled, Duration)>>,
) -> (Filled, Duration) {
    let mut filled = Vec::new();
    let mut busy = Duration::ZERO;
    for handle in handles {
        let (chunk, chunk_busy) = handle.join().expect("scan fill worker panicked");
        filled.extend(chunk);
        busy = busy.max(chunk_busy);
    }
    (filled, busy)
}

/// Runs a chunk of jobs on the calling thread, returning the scans and the
/// chunk's busy time.
fn run_jobs(jobs: Vec<ScanJob>) -> (Filled, Duration) {
    let sw = Stopwatch::start();
    let filled = jobs
        .into_iter()
        .map(|job| {
            let scan = PacketScan::new(&job.campaign, job.set, job.packet);
            (job.stream, scan)
        })
        .collect();
    (filled, sw.elapsed())
}
