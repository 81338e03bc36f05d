//! Theorem 1, executed: against the adversarial server, *every* 1D strategy
//! must spend at least `n/k` queries before it can certify the top-1 — and
//! the answer it certifies must be correct.

use query_reranking::core::one_d::primitives::{next_above, OneDSpec};
use query_reranking::core::{OneDStrategy, RerankParams, StateHandle};
use query_reranking::server::{AdversaryServer, SearchInterface};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{AttrId, Direction, Query};

fn run(n: usize, k: usize, strategy: OneDStrategy) {
    let adv = AdversaryServer::new(0.0, 1.0, n, k);
    let st = StateHandle::new(adv.schema(), RerankParams::paper_defaults(n, k));
    let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
    let t = next_above(&adv, &st, &spec, strategy, f64::NEG_INFINITY, None)
        .unwrap()
        .expect("the adversary materializes at least one tuple");
    // Correctness: the certified top-1 really is the minimum of the
    // (now fully materialized) database.
    let all = adv.materialized();
    let min = all
        .iter()
        .map(|u| u.ord(AttrId(0)))
        .min_by(|a, b| cmp_f64(*a, *b))
        .unwrap();
    assert_eq!(
        t.ord(AttrId(0)),
        min,
        "{}: wrong top-1 against adversary",
        strategy.label()
    );
    // The lower bound: at least n/k queries.
    let bound = (n / k) as u64;
    assert!(
        adv.queries_issued() >= bound,
        "{}: certified with {} queries < n/k = {bound}",
        strategy.label(),
        adv.queries_issued()
    );
}

#[test]
fn all_strategies_pay_the_lower_bound_k1() {
    for s in OneDStrategy::ALL {
        run(60, 1, s);
    }
}

#[test]
fn all_strategies_pay_the_lower_bound_k5() {
    for s in OneDStrategy::ALL {
        run(200, 5, s);
    }
}

#[test]
fn all_strategies_pay_the_lower_bound_k10() {
    for s in OneDStrategy::ALL {
        run(400, 10, s);
    }
}

#[test]
fn adversary_forces_full_materialization() {
    // Certifying the top-1 requires seeing essentially all n tuples.
    let (n, k) = (150, 3);
    let adv = AdversaryServer::new(0.0, 1.0, n, k);
    let st = StateHandle::new(adv.schema(), RerankParams::paper_defaults(n, k));
    let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
    next_above(
        &adv,
        &st,
        &spec,
        OneDStrategy::Baseline,
        f64::NEG_INFINITY,
        None,
    )
    .unwrap()
    .unwrap();
    assert!(
        adv.is_frozen(),
        "algorithm certified before the adversary ran dry"
    );
}
