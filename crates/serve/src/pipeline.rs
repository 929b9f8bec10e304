//! The double-buffered tick pipeline: scanning tick T+1's packets while
//! tick T's batch infers.
//!
//! A serve tick interleaves two very different workloads: the packet scan
//! — waveform regeneration + preamble LS (DSP-bound, per session) — and
//! the coalesced `predict_batch` forward passes (GEMM-bound).  They run
//! back-to-back in the plain engine even though the *next* tick's scans
//! depend on nothing the current tick's inference computes.  This module overlaps
//! them:
//!
//! 1. After the prepare phase, every due session holds a pending packet,
//!    so each session's post-commit streaming position — and therefore
//!    the next tick and its due set — is fully determined
//!    ([`plan_jobs`]).  Only sessions whose next packet actually needs
//!    a scan get a job.
//! 2. While the engine runs inference + commit, scope threads run the
//!    jobs ([`run_jobs`]): each computes one packet's estimator-independent
//!    [`PacketScan`] from `Arc`-shared immutable campaign data — jobs never
//!    borrow a session, so they cannot race the commit phase's mutations.
//! 3. At the tick's rendezvous the engine joins the threads and stashes
//!    the scans; the next prepare consumes them in tick order.
//!
//! **Determinism:** only complete scans cross the buffer, each the output
//! of the *same* [`PacketScan::new`] the inline path runs on the same
//! immutable inputs — so every byte is identical whether a scan was
//! prefetched, recomputed, or the pipeline was off.  The pipeline
//! golden/property tests pin digests across pipeline on/off, every shard
//! count and every cluster size.

use crate::store::SessionStore;
use crate::timing::Stopwatch;
use std::sync::Arc;
use std::time::Duration;
use vvd_testbed::{Campaign, PacketScan};

/// One prefetchable packet scan: everything needed to scan a session's
/// next packet off-thread, with no borrow of the session.
pub(crate) struct ScanJob {
    /// Index of the session in the store (id order).
    pub session_idx: usize,
    /// The packet (cursor) index being scanned.
    pub packet: usize,
    /// The session's `Arc`-shared immutable campaign.
    pub campaign: Arc<Campaign>,
    /// The campaign set the session streams.
    pub set: usize,
}

/// The scans of one tick's prefetch, waiting for their tick to start.
pub(crate) struct PrefetchBuffer {
    /// The tick the scans were computed for.
    pub tick: u64,
    /// `(session index, scan)` pairs, one per executed job.
    pub items: Vec<(usize, PacketScan)>,
}

/// Plans the next tick's scan jobs, mid-tick.
///
/// Must run after the prepare phase (every due session pending) and
/// before any commit: at that point each session's post-commit position
/// is a pure projection ([`position_after_commit`]), so the next tick —
/// the minimum projected due tick over unfinished sessions — and its due
/// set are exact, not heuristic.  Returns `None` when the workload will
/// be drained or no due session needs a scan.
///
/// [`position_after_commit`]: crate::session::LinkSession::position_after_commit
pub(crate) fn plan_jobs(store: &SessionStore) -> Option<(u64, Vec<ScanJob>)> {
    let mut next_tick = u64::MAX;
    for session in store.sessions() {
        let (cursor, due) = session.position_after_commit();
        if cursor < session.total_packets() {
            next_tick = next_tick.min(due);
        }
    }
    if next_tick == u64::MAX {
        return None;
    }
    let jobs: Vec<ScanJob> = store
        .sessions()
        .iter()
        .enumerate()
        .filter_map(|(session_idx, session)| {
            let (cursor, due) = session.position_after_commit();
            if cursor < session.total_packets() && due <= next_tick && session.needs_scan(cursor) {
                let (campaign, set) = session.scan_inputs();
                Some(ScanJob {
                    session_idx,
                    packet: cursor,
                    campaign,
                    set,
                })
            } else {
                None
            }
        })
        .collect();
    if jobs.is_empty() {
        return None;
    }
    Some((next_tick, jobs))
}

/// Runs a chunk of scan jobs on the calling thread, returning the scans
/// plus the chunk's busy time (for the overlap accounting).
pub(crate) fn run_jobs(jobs: Vec<ScanJob>) -> (Vec<(usize, PacketScan)>, Duration) {
    let sw = Stopwatch::start();
    let items = jobs
        .into_iter()
        .map(|job| {
            let scan = PacketScan::new(&job.campaign, job.set, job.packet);
            (job.session_idx, scan)
        })
        .collect();
    (items, sw.elapsed())
}
