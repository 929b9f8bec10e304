//! The double-buffered tick pipeline: filling tick T+1's scans while
//! tick T's batch infers.
//!
//! A serve tick interleaves two very different workloads: packet scans —
//! waveform regeneration + preamble LS (DSP-bound) — and the coalesced
//! `predict_batch` forward passes (GEMM-bound).  The engine's scan cache
//! (`crate::scans`) already synthesizes each packet only once per serve,
//! on its first touch; this module moves those first touches off the
//! critical path:
//!
//! 1. After the prepare phase, every due session holds a pending packet,
//!    so each session's post-commit streaming position — and therefore
//!    the next tick and its due set — is fully determined
//!    ([`plan_jobs`]).  Only packets that some next-due session needs and
//!    the cache does not yet hold become jobs.
//! 2. While the engine runs inference + commit, scope threads run the
//!    jobs through the cache's own fill routine: each computes one
//!    packet's [`PacketScan`](vvd_testbed::PacketScan) from `Arc`-shared
//!    immutable campaign data — jobs never borrow a session, so they
//!    cannot race the commit phase's mutations.
//! 3. At the tick's rendezvous the engine joins the threads and makes the
//!    scans resident; the next tick's fill pass then finds nothing left to
//!    synthesize.
//!
//! **Determinism:** a prefetched scan is the output of the *same*
//! `PacketScan::new` the fill pass would have run on the same immutable
//! inputs, so every byte is identical whether a scan was prefetched or the
//! pipeline was off — and so is the number of scans synthesized.  The
//! pipeline golden/property tests pin digests across pipeline on/off,
//! every shard count and every cluster size.

use crate::scans::{ScanCache, ScanJob};
use crate::store::SessionStore;

/// Plans the next tick's scan jobs, mid-tick.
///
/// Must run after the prepare phase (every due session pending) and
/// before any commit: at that point each session's post-commit position
/// is a pure projection ([`position_after_commit`]), so the next tick —
/// the minimum projected due tick over unfinished sessions — and its due
/// set are exact, not heuristic.  Returns `None` when the workload will
/// be drained or every scan the next tick needs is already resident.
///
/// [`position_after_commit`]: crate::session::LinkSession::position_after_commit
pub(crate) fn plan_jobs(store: &SessionStore, scans: &ScanCache) -> Option<Vec<ScanJob>> {
    let next_tick = store
        .sessions()
        .iter()
        .filter_map(|session| {
            let (cursor, due) = session.position_after_commit();
            (cursor < session.total_packets()).then_some(due)
        })
        .min()?;
    let wanted = store
        .sessions()
        .iter()
        .enumerate()
        .filter_map(|(idx, session)| {
            let (cursor, due) = session.position_after_commit();
            (cursor < session.total_packets() && due <= next_tick && session.needs_scan(cursor))
                .then_some((idx, cursor))
        });
    let jobs = scans.jobs(wanted);
    (!jobs.is_empty()).then_some(jobs)
}
