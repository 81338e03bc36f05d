//! The adversarial query-answering mechanism from the proof of Theorem 1.
//!
//! The theorem: for any `n > 1` there is a database of `n` tuples such that
//! finding the top-ranked tuple on an attribute through a top-`k` interface
//! takes at least `n/k` queries. The proof constructs the database *lazily*
//! while answering: it keeps a min-query-threshold `vq`; whenever the
//! reranker probes down to the domain minimum, the adversary materializes
//! `k` fresh tuples squeezed into `((v0+vq)/2, vq)` and halves `vq`, so
//! there is always a yet-unseen smaller tuple until all `n` are spent.
//!
//! [`AdversaryServer`] makes that mechanism executable: reranking algorithms
//! run against it unmodified, and the integration tests assert the `n/k`
//! lower bound empirically.

use crate::interface::SearchInterface;
use parking_lot::Mutex;
use qrs_types::value::cmp_f64;
use qrs_types::{
    meter, Endpoint, Ledger, OrdinalAttr, Query, QueryResponse, Schema, ServerError, Tuple, TupleId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct AdversaryState {
    /// Min-query-threshold `vq` from the proof.
    vq: f64,
    /// Tuples materialized so far, unordered.
    materialized: Vec<Arc<Tuple>>,
    next_id: u32,
}

/// A 1D hidden database that adversarially delays revealing its minimum.
#[derive(Debug)]
pub struct AdversaryServer {
    schema: Arc<Schema>,
    v0: f64,
    n: usize,
    k: usize,
    counter: AtomicU64,
    state: Mutex<AdversaryState>,
}

impl AdversaryServer {
    /// Adversary over one attribute with domain `[v0, v_inf]`, budget of `n`
    /// tuples, interface limit `k`.
    pub fn new(v0: f64, v_inf: f64, n: usize, k: usize) -> Self {
        assert!(v0 < v_inf);
        assert!(n >= 1 && k >= 1);
        AdversaryServer {
            schema: Arc::new(Schema::new(vec![OrdinalAttr::new("A", v0, v_inf)], vec![])),
            v0,
            n,
            k,
            counter: AtomicU64::new(0),
            state: Mutex::new(AdversaryState {
                vq: v_inf,
                materialized: Vec::new(),
                next_id: 0,
            }),
        }
    }

    /// Tuples materialized so far (tests compare the algorithm's answer
    /// against this once the budget is spent).
    pub fn materialized(&self) -> Vec<Arc<Tuple>> {
        self.state.lock().materialized.clone()
    }

    /// True once all `n` tuples exist and the database is frozen.
    pub fn is_frozen(&self) -> bool {
        self.state.lock().materialized.len() >= self.n
    }

    /// The current true minimum value (only meaningful to the test harness).
    pub fn current_min(&self) -> Option<f64> {
        let st = self.state.lock();
        st.materialized
            .iter()
            .map(|t| t.ord(qrs_types::AttrId(0)))
            .min_by(|a, b| cmp_f64(*a, *b))
    }

    /// Lower bound of the query interval, with "reaches the domain minimum"
    /// detection.
    fn query_lower(&self, q: &Query) -> (f64, bool) {
        let iv = q.interval(qrs_types::AttrId(0));
        match iv.lo {
            Endpoint::Unbounded => (self.v0, true),
            Endpoint::Open(v) => (v, v <= self.v0),
            Endpoint::Closed(v) => (v, v <= self.v0),
        }
    }

    fn upper_value(&self, q: &Query) -> f64 {
        let iv = q.interval(qrs_types::AttrId(0));
        match iv.hi {
            Endpoint::Unbounded => f64::INFINITY,
            Endpoint::Open(v) | Endpoint::Closed(v) => v,
        }
    }
}

impl SearchInterface for AdversaryServer {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        self.counter.fetch_add(1, Ordering::Relaxed);
        meter::record_paid(Ledger::new(1, 1));
        let attr = qrs_types::AttrId(0);
        let iv = q.interval(attr);
        let mut st = self.state.lock();
        let frozen = st.materialized.len() >= self.n;
        let (lo, reaches_min) = self.query_lower(q);

        if frozen || !reaches_min {
            // Answer faithfully from the materialized set.
            if !reaches_min {
                st.vq = if st.vq < lo { st.vq } else { lo };
            }
            let mut matches: Vec<Arc<Tuple>> = st
                .materialized
                .iter()
                .filter(|t| iv.contains(t.ord(attr)) && q.matches(t))
                .cloned()
                .collect();
            matches.sort_by(|a, b| cmp_f64(a.ord(attr), b.ord(attr)));
            let overflow = matches.len() > self.k;
            matches.truncate(self.k);
            return Ok(QueryResponse::new(matches, overflow));
        }

        // The probe reaches the domain minimum: serve known matches and pad
        // with fresh tuples squeezed under vq.
        let upper = self.upper_value(q).min(st.vq);
        let mut out: Vec<Arc<Tuple>> = st
            .materialized
            .iter()
            .filter(|t| iv.contains(t.ord(attr)))
            .cloned()
            .collect();
        out.sort_by(|a, b| cmp_f64(a.ord(attr), b.ord(attr)));
        out.truncate(self.k);

        if out.len() < self.k && upper > self.v0 {
            let fresh_lo = (self.v0 + upper) / 2.0;
            let want = (self.k - out.len()).min(self.n - st.materialized.len());
            for i in 0..want {
                // Strictly inside (fresh_lo, upper), descending so later
                // tuples are smaller.
                let frac = (i as f64 + 1.0) / (want as f64 + 1.0);
                let v = upper - (upper - fresh_lo) * frac;
                let t = Arc::new(Tuple::new(TupleId(st.next_id), vec![v], vec![]));
                st.next_id += 1;
                st.materialized.push(Arc::clone(&t));
                if iv.contains(v) {
                    out.push(t);
                }
            }
            st.vq = fresh_lo;
            out.sort_by(|a, b| cmp_f64(a.ord(attr), b.ord(attr)));
        }

        let exhausted = st.materialized.len() >= self.n;
        // While un-frozen, a min-reaching probe always claims overflow: "there
        // may be more below".
        let overflow = if exhausted {
            out.len() >= self.k
                && st
                    .materialized
                    .iter()
                    .filter(|t| iv.contains(t.ord(attr)))
                    .count()
                    > self.k
        } else {
            true
        };
        Ok(QueryResponse::new(out, overflow))
    }

    fn queries_issued(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::{AttrId, Interval};

    #[test]
    fn keeps_materializing_below_previous_answers() {
        let adv = AdversaryServer::new(0.0, 1.0, 20, 2);
        let r1 = adv.query(&Query::all()).unwrap();
        assert!(r1.is_overflow());
        let min1 = r1
            .tuples
            .iter()
            .map(|t| t.ord(AttrId(0)))
            .fold(f64::INFINITY, f64::min);
        // Probe below the smallest seen value — fresh, smaller tuples appear.
        let r2 = adv
            .query(&Query::all().and_range(AttrId(0), Interval::open(0.0, min1)))
            .unwrap();
        assert!(r2.is_overflow());
        let min2 = r2
            .tuples
            .iter()
            .map(|t| t.ord(AttrId(0)))
            .fold(f64::INFINITY, f64::min);
        assert!(min2 < min1);
    }

    #[test]
    fn probes_above_domain_min_reveal_nothing_new() {
        let adv = AdversaryServer::new(0.0, 1.0, 20, 2);
        let r1 = adv.query(&Query::all()).unwrap();
        let count_before = adv.materialized().len();
        // A probe with a positive lower bound only replays history.
        let r2 = adv
            .query(&Query::all().and_range(AttrId(0), Interval::open(0.5, 1.0)))
            .unwrap();
        assert_eq!(adv.materialized().len(), count_before);
        for t in &r2.tuples {
            assert!(r1.tuples.iter().any(|u| u.id == t.id));
        }
    }

    #[test]
    fn takes_at_least_n_over_k_probes_to_freeze() {
        let (n, k) = (40, 4);
        let adv = AdversaryServer::new(0.0, 1.0, n, k);
        let mut probes = 0;
        while !adv.is_frozen() {
            // The strongest possible probe: straight to the domain minimum.
            let hi = adv.current_min().unwrap_or(1.0);
            adv.query(&Query::all().and_range(AttrId(0), Interval::open(0.0, hi)))
                .unwrap();
            probes += 1;
            assert!(probes <= n, "adversary failed to freeze");
        }
        assert!(probes >= n / k, "froze after only {probes} probes");
    }

    #[test]
    fn frozen_database_answers_faithfully() {
        let (n, k) = (8, 4);
        let adv = AdversaryServer::new(0.0, 1.0, n, k);
        while !adv.is_frozen() {
            let hi = adv.current_min().unwrap_or(1.0);
            adv.query(&Query::all().and_range(AttrId(0), Interval::open(0.0, hi)))
                .unwrap();
        }
        let all = adv.materialized();
        assert_eq!(all.len(), n);
        // A query below the true minimum underflows now.
        let true_min = adv.current_min().unwrap();
        let r = adv
            .query(&Query::all().and_range(AttrId(0), Interval::open(0.0, true_min)))
            .unwrap();
        assert!(r.is_underflow());
    }
}
