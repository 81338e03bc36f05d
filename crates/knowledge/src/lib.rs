//! # qrs-knowledge
//!
//! The cross-session **knowledge plane**: a concurrent, sharded store of
//! everything the reranking service has already *paid* to learn about each
//! source, so overlapping sessions stop re-buying it.
//!
//! The paper's premise (§3.1.1) is that third-party queries against a
//! hidden database are the scarce resource; a reranking *service* amortizes
//! them across users by remembering query history. This crate is that
//! memory, organized for many concurrent tenants:
//!
//! * [`KnowledgePlane`] — the top-level handle. Source names hash to one of
//!   a fixed set of **stripes**, each an independently-locked map of
//!   shards, so shard lookup never funnels through a global lock and the
//!   hot path (existing shard, read-mode) takes exactly one striped read
//!   lock plus the shard's own read lock.
//! * [`SourceShard`] — per-source knowledge: an exact **response cache**,
//!   **drained regions** (selections whose complete match set in system
//!   order is known, from which subsumed requests are synthesized for
//!   free), **page runs** (drains in progress), **learned result streams**
//!   (exact top-k outputs keyed by `(selection, rank, tie, strategy)`).
//! * **Epoch invalidation** — every shard carries a generation counter.
//!   Invalidation bumps it and drops every entry in one write critical
//!   section, so a shard holds knowledge of the current snapshot only; a
//!   paid response is recorded only if the epoch it was fetched under is
//!   still current.
//!
//! The crate is std-only (the workspace's `parking_lot` is the offline
//! shim over `std::sync`) and depends only on `qrs-types`; `qrs-core`'s
//! `KnowledgeGate` adapts it to the `SearchInterface` request path and
//! `qrs-service` wires it into sessions and federation.

#![deny(missing_docs)]

pub mod key;
pub mod shard;

pub use key::{query_key, RequestKey, ResultKey};
pub use shard::{CachedResponse, ResultEntry, ShardStats, SourceShard};

use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Number of independently-locked stripes in the plane's shard map. Shard
/// *contents* have their own locks; these stripes only guard name → shard
/// resolution, so a small fixed power of two is plenty.
const STRIPES: usize = 16;

/// Aggregated statistics across every shard in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneStats {
    /// Number of source shards.
    pub sources: u64,
    /// Exact response-cache hits, summed over shards.
    pub hits: u64,
    /// Synthesized answers, summed over shards.
    pub synthesized: u64,
    /// Misses, summed over shards.
    pub misses: u64,
    /// Result-stream replays served, summed over shards.
    pub result_hits: u64,
}

/// The service-wide knowledge plane: one shard per source, striped so
/// concurrent sessions over different sources never contend on a global
/// lock.
///
/// Cloneable by `Arc`: `RerankService` instances and `FederatedSession`s
/// share one plane by cloning the same `Arc<KnowledgePlane>`.
#[derive(Debug)]
pub struct KnowledgePlane {
    stripes: Box<[Stripe]>,
}

/// One lock stripe of the source map.
type Stripe = RwLock<HashMap<String, Arc<SourceShard>>>;

impl Default for KnowledgePlane {
    fn default() -> Self {
        KnowledgePlane::new()
    }
}

impl KnowledgePlane {
    /// An empty plane.
    pub fn new() -> Self {
        let stripes = (0..STRIPES)
            .map(|_| RwLock::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        KnowledgePlane { stripes }
    }

    fn stripe(&self, source: &str) -> &Stripe {
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        &self.stripes[(h.finish() as usize) % STRIPES]
    }

    /// The shard for `source`, created empty on first use.
    pub fn shard(&self, source: &str) -> Arc<SourceShard> {
        let stripe = self.stripe(source);
        if let Some(s) = stripe.read().get(source) {
            return Arc::clone(s);
        }
        let mut w = stripe.write();
        Arc::clone(
            w.entry(source.to_string())
                .or_insert_with(|| Arc::new(SourceShard::new())),
        )
    }

    /// The shard for `source`, if one exists.
    pub fn get(&self, source: &str) -> Option<Arc<SourceShard>> {
        self.stripe(source).read().get(source).cloned()
    }

    /// Bump `source`'s epoch, invalidating all knowledge recorded about it.
    /// A no-op (returning `None`) when the source has no shard yet.
    pub fn invalidate(&self, source: &str) -> Option<u64> {
        self.get(source).map(|s| s.invalidate())
    }

    /// Invalidate every source in the plane.
    pub fn invalidate_all(&self) {
        for stripe in self.stripes.iter() {
            for shard in stripe.read().values() {
                shard.invalidate();
            }
        }
    }

    /// Names of every source with a shard, sorted for determinism.
    pub fn sources(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .stripes
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        out.sort();
        out
    }

    /// Aggregated hit/miss statistics across all shards.
    pub fn stats(&self) -> PlaneStats {
        let mut out = PlaneStats::default();
        for stripe in self.stripes.iter() {
            for shard in stripe.read().values() {
                let s = shard.stats();
                out.sources += 1;
                out.hits += s.hits;
                out.synthesized += s.synthesized;
                out.misses += s.misses;
                out.result_hits += s.result_hits;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval, Query, Tuple, TupleId};
    use std::thread;

    #[test]
    fn shards_are_per_source_and_stable() {
        let plane = KnowledgePlane::new();
        let a1 = plane.shard("aggregator");
        let a2 = plane.shard("aggregator");
        let b = plane.shard("storefront");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!Arc::ptr_eq(&a1, &b));
        assert_eq!(plane.sources(), vec!["aggregator", "storefront"]);
        assert!(plane.get("missing").is_none());
        assert_eq!(plane.invalidate("missing"), None);
        assert_eq!(plane.invalidate("aggregator"), Some(1));
        assert_eq!(a1.epoch(), 1);
        assert_eq!(b.epoch(), 0);
        plane.invalidate_all();
        assert_eq!(a1.epoch(), 2);
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn concurrent_first_touch_yields_one_shard() {
        let plane = Arc::new(KnowledgePlane::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&plane);
                thread::spawn(move || p.shard("contended"))
            })
            .collect();
        let shards: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for s in &shards[1..] {
            assert!(Arc::ptr_eq(&shards[0], s));
        }
        assert_eq!(plane.stats().sources, 1);
    }

    #[test]
    fn plane_stats_aggregate_over_shards() {
        let plane = KnowledgePlane::new();
        let q = Query::all().and_range(AttrId(0), Interval::closed(0.0, 1.0));
        let key = RequestKey::top_k(&q);
        let s = plane.shard("site");
        assert!(s.lookup_response(&key, &q, 2).is_none()); // miss
        s.record_response(
            s.epoch(),
            key.clone(),
            &q,
            2,
            &[Arc::new(Tuple::new(TupleId(0), vec![0.5], vec![]))],
            false,
        );
        assert!(s.lookup_response(&key, &q, 2).is_some()); // hit
        let ps = plane.stats();
        assert_eq!(ps.sources, 1);
        assert_eq!(ps.hits, 1);
        assert_eq!(ps.misses, 1);
    }
}
