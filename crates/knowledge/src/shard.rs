//! One source's shard: everything the service has learned about a site.
//!
//! A [`SourceShard`] holds four stores behind a single reader-writer lock:
//!
//! * a **response cache** — exact request → response replays,
//! * **drained regions** — selections whose full match set (in system
//!   order) is known, from which answers to *subsumed* requests are
//!   synthesized without contacting the site,
//! * **page runs** — partially-drained selections accumulating contiguous
//!   pages until the run completes and is promoted to a drained region,
//! * a **result cache** — exact top-k output streams keyed by
//!   `(selection, rank, tie, strategy)`, replayed to warm sessions.
//!
//! Every store is guarded by the shard's **epoch**, which only moves under
//! the shard's write lock: [`SourceShard::invalidate`] bumps it and drops
//! every entry in the same critical section, so the stores only ever hold
//! knowledge about the current snapshot and nothing stale lingers for a
//! lookup to scan past. A paid response is recorded only if the epoch it
//! was fetched under is still current when the recording takes the lock
//! ([`SourceShard::record_response`]), so an answer that raced a data
//! change is dropped instead of being replayed as current.

use crate::key::{RequestKey, ResultKey};
use parking_lot::RwLock;
use qrs_types::{Ledger, Query, Tuple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached (or synthesized) answer to one restricted-interface request.
///
/// `more` carries the overflow/`has_more` bit: for top-k and page requests
/// it reconstructs the underflow/valid/overflow trichotomy via
/// `QueryResponse::new(tuples, more)`, for `ORDER BY` pages it is the
/// `has_more` flag verbatim.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// Returned tuples, in the order the site produced (or would produce)
    /// them.
    pub tuples: Vec<Arc<Tuple>>,
    /// Overflow / has-more bit.
    pub more: bool,
    /// `true` when the answer was synthesized from a drained region rather
    /// than replayed from an exact recording.
    pub synthesized: bool,
}

/// One fully-drained selection: the complete match set in system order.
#[derive(Debug, Clone)]
struct DrainedRun {
    query: Query,
    tuples: Vec<Arc<Tuple>>,
}

/// A selection being drained page by page. Pages must arrive contiguously
/// from 0; the run is promoted to a [`DrainedRun`] when a page reports no
/// further matches.
#[derive(Debug, Clone)]
struct PageRun {
    query: Query,
    k: usize,
    tuples: Vec<Arc<Tuple>>,
    pages_seen: usize,
}

/// One cached exact output stream. `items` holds `(tuple, score bits)` in
/// emission order; `exhausted` records that the stream ended after
/// `items.len()` emissions (so a replay can report exhaustion without
/// re-running the strategy).
#[derive(Debug, Clone, Default)]
pub struct ResultEntry {
    /// Emitted tuples with the bit pattern of their score, in order.
    pub items: Vec<(Arc<Tuple>, u64)>,
    /// The stream is known to end after `items.len()` tuples.
    pub exhausted: bool,
    /// What the sealing run paid-or-saved end to end — what a session
    /// replaying this exhausted stream avoids spending. Zero until sealed.
    pub full: Ledger,
}

/// The four stores. Everything in them describes the current epoch's
/// snapshot: invalidation empties them under the same write lock that
/// bumps the epoch.
#[derive(Debug, Default)]
struct ShardInner {
    responses: HashMap<RequestKey, CachedResponse>,
    drained: HashMap<String, DrainedRun>,
    page_runs: HashMap<String, PageRun>,
    results: HashMap<ResultKey, ResultEntry>,
}

/// Point-in-time statistics for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Current epoch (number of invalidations so far).
    pub epoch: u64,
    /// Highest source mutation sequence number observed
    /// ([`SourceShard::observe_watermark`]); 0 until a mutation-aware
    /// client reports one.
    pub watermark: u64,
    /// Requests answered from an exact cached response.
    pub hits: u64,
    /// Requests answered by synthesis from a drained region.
    pub synthesized: u64,
    /// Requests the shard could not answer.
    pub misses: u64,
    /// Result-cache lookups that found a live entry.
    pub result_hits: u64,
    /// Live exact-response entries.
    pub responses: u64,
    /// Live drained regions.
    pub drained: u64,
    /// Live cached result streams.
    pub results: u64,
}

/// Everything learned about one source, behind one lock + one epoch.
///
/// The hot path ([`lookup_response`](SourceShard::lookup_response)) takes
/// the lock in read mode only; recordings, result-stream extensions and
/// invalidation take it in write mode.
#[derive(Debug, Default)]
pub struct SourceShard {
    epoch: AtomicU64,
    /// Highest source mutation sequence number any client has reported.
    /// Advancing it bumps the epoch — data change invalidates knowledge
    /// automatically, no manual `invalidate` call required.
    watermark: AtomicU64,
    hits: AtomicU64,
    synthesized: AtomicU64,
    misses: AtomicU64,
    result_hits: AtomicU64,
    inner: RwLock<ShardInner>,
}

impl SourceShard {
    /// A fresh, empty shard at epoch 0.
    pub fn new() -> Self {
        SourceShard::default()
    }

    /// Current epoch. Any knowledge consumer holding derived state should
    /// compare against the epoch it derived under; a request forwarded to
    /// the site should capture it before the call and hand it to
    /// [`record_response`](SourceShard::record_response).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the epoch and drop every entry recorded so far, in one write
    /// critical section: no lookup can see a half-invalidated shard, and
    /// the memory of the older snapshot is reclaimed at once. Returns the
    /// new epoch.
    pub fn invalidate(&self) -> u64 {
        let mut inner = self.inner.write();
        *inner = ShardInner::default();
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The highest source mutation sequence number observed so far.
    #[inline]
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Report the source's current mutation sequence number. If `seq`
    /// advances the recorded watermark, everything in the shard describes
    /// an older snapshot and the epoch is bumped — by exactly one thread,
    /// however many gates race the same advance (the CAS loser observes
    /// the new watermark and does nothing). Returns whether this call
    /// advanced it.
    pub fn observe_watermark(&self, seq: u64) -> bool {
        let advanced = self
            .watermark
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (seq > w).then_some(seq)
            })
            .is_ok();
        if advanced {
            self.invalidate();
        }
        advanced
    }

    /// Try to answer a request from knowledge. Returns an exact replay when
    /// one was recorded under the current epoch, else — for top-k and
    /// system-ranking page requests — an answer synthesized from a drained
    /// region that subsumes `q`. `ORDER BY` requests are only ever replayed
    /// exactly (a drained region fixes system order, not attribute order).
    ///
    /// `k` must be the site's advertised page size; synthesis mirrors the
    /// site's own semantics (skip `page·k` matches, return up to `k`, set
    /// the more-bit iff a further match exists).
    pub fn lookup_response(&self, key: &RequestKey, q: &Query, k: usize) -> Option<CachedResponse> {
        let inner = self.inner.read();
        if let Some(e) = inner.responses.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(e.clone());
        }
        let page = match key {
            RequestKey::TopK { .. } => 0,
            RequestKey::Page { page, .. } => *page,
            RequestKey::Ordered { .. } => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if k > 0 {
            for run in inner.drained.values() {
                if !q.is_subsumed_by(&run.query) {
                    continue;
                }
                let skip = page * k;
                let mut out = Vec::with_capacity(k);
                let mut seen = 0usize;
                let mut more = false;
                for t in &run.tuples {
                    if !q.matches(t) {
                        continue;
                    }
                    if seen >= skip {
                        if out.len() == k {
                            more = true;
                            break;
                        }
                        out.push(Arc::clone(t));
                    }
                    seen += 1;
                }
                self.synthesized.fetch_add(1, Ordering::Relaxed);
                return Some(CachedResponse {
                    tuples: out,
                    more,
                    synthesized: true,
                });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Record the site's answer to one paid request, fetched while the
    /// shard was at `epoch`. Caches the exact response and grows the
    /// drained map: a non-overflowing top-k answer *is* the full match set
    /// of its selection, and a contiguous page run is promoted once its
    /// final page arrives.
    ///
    /// Dropped when `epoch` is no longer current: the source changed while
    /// the request was in flight, so the answer may describe the older
    /// snapshot and must not be replayed as current.
    pub fn record_response(
        &self,
        epoch: u64,
        key: RequestKey,
        q: &Query,
        k: usize,
        tuples: &[Arc<Tuple>],
        more: bool,
    ) {
        let mut inner = self.inner.write();
        if self.epoch() != epoch {
            return;
        }
        match &key {
            RequestKey::TopK { sel } => {
                if !more {
                    let run = DrainedRun {
                        query: q.clone(),
                        tuples: tuples.to_vec(),
                    };
                    inner.drained.insert(sel.clone(), run);
                }
            }
            RequestKey::Page { sel, page } => {
                let fresh = || PageRun {
                    query: q.clone(),
                    k,
                    tuples: Vec::new(),
                    pages_seen: 0,
                };
                let run = inner.page_runs.entry(sel.clone()).or_insert_with(fresh);
                if run.k != k {
                    // Re-keyed run: restart from scratch.
                    *run = fresh();
                }
                if *page == run.pages_seen {
                    run.tuples.extend(tuples.iter().cloned());
                    run.pages_seen += 1;
                    if !more {
                        let done = inner.page_runs.remove(sel).expect("run just touched");
                        let run = DrainedRun {
                            query: done.query,
                            tuples: done.tuples,
                        };
                        inner.drained.insert(sel.clone(), run);
                    }
                }
            }
            RequestKey::Ordered { .. } => {}
        }
        let response = CachedResponse {
            tuples: tuples.to_vec(),
            more,
            synthesized: false,
        };
        inner.responses.insert(key, response);
    }

    /// Look up a cached exact result stream recorded under the current
    /// epoch. Returns a clone (tuples are `Arc`-shared, so this is cheap).
    pub fn lookup_result(&self, key: &ResultKey) -> Option<ResultEntry> {
        let inner = self.inner.read();
        let e = inner.results.get(key)?;
        if e.items.is_empty() && !e.exhausted {
            return None;
        }
        self.result_hits.fetch_add(1, Ordering::Relaxed);
        Some(e.clone())
    }

    /// Append the `index`-th emission of a result stream. The append is
    /// accepted only when it is contiguous (`index` equals the entry's
    /// current length under the current epoch) — concurrent sessions racing
    /// on the same stream therefore converge on one consistent prefix
    /// instead of interleaving.
    pub fn extend_result(&self, key: &ResultKey, index: usize, tuple: Arc<Tuple>, score_bits: u64) {
        let mut inner = self.inner.write();
        let e = inner.results.entry(key.clone()).or_default();
        if !e.exhausted && e.items.len() == index {
            e.items.push((tuple, score_bits));
        }
    }

    /// Mark a result stream as complete after `len` emissions, recording
    /// what the sealing run cost end to end (`full`, paid and saved
    /// combined) so fully-replayed sessions can attribute their savings.
    /// Ignored unless the entry's recorded prefix has exactly that length
    /// (a shorter racing prefix must not be sealed early).
    pub fn mark_result_exhausted(&self, key: &ResultKey, len: usize, full: Ledger) {
        let mut inner = self.inner.write();
        let e = inner.results.entry(key.clone()).or_default();
        if e.items.len() == len {
            e.exhausted = true;
            e.full = full;
        }
    }

    /// Does a live drained region subsume `q` (i.e. could the shard answer
    /// any top-k/page request over `q` without spending)?
    pub fn covers(&self, q: &Query) -> bool {
        let inner = self.inner.read();
        inner.drained.values().any(|r| q.is_subsumed_by(&r.query))
    }

    /// Point-in-time statistics (live-entry counts are read under the
    /// read lock; hit/miss counters are relaxed atomics).
    pub fn stats(&self) -> ShardStats {
        let inner = self.inner.read();
        ShardStats {
            epoch: self.epoch(),
            watermark: self.watermark(),
            hits: self.hits.load(Ordering::Relaxed),
            synthesized: self.synthesized.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            responses: inner.responses.len() as u64,
            drained: inner.drained.len() as u64,
            results: inner.results.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval, TupleId};

    fn t(id: u32, v: f64) -> Arc<Tuple> {
        Arc::new(Tuple::new(TupleId(id), vec![v], vec![]))
    }

    fn sel(lo: f64, hi: f64) -> Query {
        Query::all().and_range(AttrId(0), Interval::closed(lo, hi))
    }

    #[test]
    fn exact_replay_roundtrips() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        let tuples = vec![t(1, 3.0), t(2, 7.0)];
        assert!(s.lookup_response(&key, &q, 2).is_none());
        s.record_response(s.epoch(), key.clone(), &q, 2, &tuples, true);
        let hit = s.lookup_response(&key, &q, 2).expect("recorded");
        assert!(!hit.synthesized);
        assert!(hit.more);
        assert_eq!(hit.tuples.len(), 2);
        assert_eq!(hit.tuples[0].id, TupleId(1));
    }

    #[test]
    fn non_overflow_topk_drains_and_synthesizes_subsumed() {
        let s = SourceShard::new();
        let wide = sel(0.0, 10.0);
        // Valid (non-overflow) answer: these three are ALL matches of `wide`.
        let all = vec![t(1, 1.0), t(2, 5.0), t(3, 9.0)];
        s.record_response(s.epoch(), RequestKey::top_k(&wide), &wide, 5, &all, false);
        assert!(s.covers(&sel(2.0, 6.0)));
        // Narrower selection, k = 1: first match is t2, one more exists.
        let narrow = sel(2.0, 9.5);
        let r = s
            .lookup_response(&RequestKey::top_k(&narrow), &narrow, 1)
            .expect("synthesized");
        assert!(r.synthesized);
        assert!(r.more);
        assert_eq!(r.tuples.len(), 1);
        assert_eq!(r.tuples[0].id, TupleId(2));
        // Page 1 of the same narrow selection: the second match, no more.
        let r = s
            .lookup_response(&RequestKey::page(&narrow, 1), &narrow, 1)
            .expect("synthesized page");
        assert_eq!(r.tuples[0].id, TupleId(3));
        assert!(!r.more);
        // A selection escaping the drained region is a miss.
        assert!(s
            .lookup_response(&RequestKey::top_k(&sel(2.0, 20.0)), &sel(2.0, 20.0), 1)
            .is_none());
    }

    #[test]
    fn page_run_promotes_on_final_page() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 0),
            &q,
            2,
            &[t(1, 1.0), t(2, 2.0)],
            true,
        );
        assert!(!s.covers(&q));
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 1),
            &q,
            2,
            &[t(3, 3.0)],
            false,
        );
        assert!(s.covers(&q));
        let narrow = sel(1.5, 10.0);
        let r = s
            .lookup_response(&RequestKey::top_k(&narrow), &narrow, 5)
            .expect("drained via pages");
        assert_eq!(
            r.tuples.iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(!r.more);
    }

    #[test]
    fn out_of_order_pages_do_not_poison_the_run() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        // Page 1 before page 0: cached exactly, but no run accumulates.
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 1),
            &q,
            2,
            &[t(3, 3.0)],
            false,
        );
        assert!(!s.covers(&q));
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 0),
            &q,
            2,
            &[t(1, 1.0), t(2, 2.0)],
            true,
        );
        assert!(!s.covers(&q));
        // Now the contiguous tail arrives and the run completes.
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 1),
            &q,
            2,
            &[t(3, 3.0)],
            false,
        );
        assert!(s.covers(&q));
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        s.record_response(s.epoch(), key.clone(), &q, 2, &[t(1, 1.0)], false);
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            tie: 0,
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, t(1, 1.0), 0);
        assert!(s.lookup_response(&key, &q, 2).is_some());
        assert!(s.lookup_result(&rk).is_some());
        assert!(s.covers(&q));
        let e = s.invalidate();
        assert_eq!(e, 1);
        assert_eq!(s.epoch(), 1);
        assert!(s.lookup_response(&key, &q, 2).is_none());
        assert!(s.lookup_result(&rk).is_none());
        assert!(!s.covers(&q));
        let st = s.stats();
        assert_eq!(st.responses, 0);
        assert_eq!(st.drained, 0);
        assert_eq!(st.results, 0);
    }

    #[test]
    fn invalidate_empties_every_store() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        s.record_response(s.epoch(), RequestKey::top_k(&q), &q, 2, &[t(1, 1.0)], false);
        // An unfinished page run: only the run map holds it.
        s.record_response(
            s.epoch(),
            RequestKey::page(&q, 0),
            &q,
            1,
            &[t(1, 1.0)],
            true,
        );
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            tie: 0,
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, t(1, 1.0), 0);
        {
            let inner = s.inner.read();
            assert!(!inner.responses.is_empty() && !inner.drained.is_empty());
            assert!(!inner.page_runs.is_empty() && !inner.results.is_empty());
        }
        s.invalidate();
        let inner = s.inner.read();
        assert!(inner.responses.is_empty());
        assert!(inner.drained.is_empty());
        assert!(inner.page_runs.is_empty());
        assert!(inner.results.is_empty());
    }

    #[test]
    fn watermark_advance_bumps_the_epoch_once() {
        let s = SourceShard::new();
        let q = sel(0.0, 10.0);
        let key = RequestKey::top_k(&q);
        s.record_response(s.epoch(), key.clone(), &q, 2, &[t(1, 1.0)], false);
        // Reporting the current (pristine) watermark changes nothing.
        assert!(!s.observe_watermark(0));
        assert_eq!(s.epoch(), 0);
        assert!(s.lookup_response(&key, &q, 2).is_some());
        // The source mutated: first reporter invalidates, the rest no-op.
        assert!(s.observe_watermark(3));
        assert!(!s.observe_watermark(3));
        assert!(!s.observe_watermark(2), "watermarks never regress");
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.watermark(), 3);
        assert!(s.lookup_response(&key, &q, 2).is_none());
        let st = s.stats();
        assert_eq!(st.watermark, 3);

        // Many threads racing the same advance bump the epoch exactly once.
        let s = std::sync::Arc::new(SourceShard::new());
        let advances: usize = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || s.observe_watermark(7))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(advances, 1);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn result_stream_appends_are_contiguous_only() {
        let s = SourceShard::new();
        let rk = ResultKey {
            sel: "s".into(),
            rank: "r".into(),
            tie: 0,
            strategy: "a".into(),
        };
        s.extend_result(&rk, 0, t(1, 1.0), 10);
        s.extend_result(&rk, 2, t(9, 9.0), 90); // gap: dropped
        s.extend_result(&rk, 1, t(2, 2.0), 20);
        let e = s.lookup_result(&rk).expect("live");
        assert_eq!(e.items.len(), 2);
        assert_eq!(e.items[1].0.id, TupleId(2));
        assert!(!e.exhausted);
        s.mark_result_exhausted(&rk, 1, Ledger::new(7, 7)); // wrong length: ignored
        assert!(!s.lookup_result(&rk).unwrap().exhausted);
        s.mark_result_exhausted(&rk, 2, Ledger::new(7, 9));
        let sealed = s.lookup_result(&rk).unwrap();
        assert!(sealed.exhausted);
        assert_eq!(sealed.full.queries, 7);
        assert_eq!(sealed.full.cost_units, 9);
        // Sealed streams reject further appends.
        s.extend_result(&rk, 2, t(3, 3.0), 30);
        assert_eq!(s.lookup_result(&rk).unwrap().items.len(), 2);
    }

    #[test]
    fn ordered_requests_replay_exactly_but_never_synthesize() {
        let s = SourceShard::new();
        let wide = sel(0.0, 10.0);
        s.record_response(
            s.epoch(),
            RequestKey::top_k(&wide),
            &wide,
            5,
            &[t(1, 1.0), t(2, 5.0)],
            false,
        );
        let narrow = sel(0.0, 6.0);
        let ok = RequestKey::ordered(&narrow, AttrId(0), qrs_types::Direction::Asc, 0);
        assert!(s.lookup_response(&ok, &narrow, 5).is_none());
        s.record_response(s.epoch(), ok.clone(), &narrow, 5, &[t(1, 1.0)], true);
        let r = s.lookup_response(&ok, &narrow, 5).expect("exact ordered");
        assert!(r.more);
        assert_eq!(r.tuples.len(), 1);
    }
}
