//! §5 "Point Predicates": ranking attributes whose search interface accepts
//! only `Ai = v`. The paper's guidance — 1D enumerates values in preference
//! order, and TA-over-1D handles the MD case — exercised end to end.

use query_reranking::core::md::ta::{SortedAccess, TaCursor};
use query_reranking::core::{OneDStrategy, RerankParams, StateHandle};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{
    AttrId, CatAttr, Dataset, Direction, OrdinalAttr, Query, Schema, Tuple, TupleId,
};
use std::sync::Arc;

/// A catalog where "condition grade" is point-only (like a dropdown filter)
/// and price is a normal range attribute.
fn catalog(n: u32, seed: u64) -> Dataset {
    let schema = Schema::new(
        vec![
            OrdinalAttr::point_only("grade", vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            OrdinalAttr::new("price", 0.0, 1000.0),
        ],
        vec![CatAttr::new("c", 3)],
    );
    // Deterministic pseudo-random values from the seed.
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let tuples = (0..n)
        .map(|i| {
            let grade = (next() * 5.0).floor().min(4.0) + 1.0;
            let price = (next() * 1000.0 * 4.0).round() / 4.0;
            Tuple::new(TupleId(i), vec![grade, price], vec![i % 3])
        })
        .collect();
    Dataset::new(schema, tuples).unwrap()
}

#[test]
fn md_rank_over_point_only_attribute_via_ta() {
    let data = catalog(300, 9001);
    // Prefer high grade, low price.
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::new(vec![
        (AttrId(0), Direction::Desc, 100.0),
        (AttrId(1), Direction::Asc, 1.0),
    ]));
    let mut want: Vec<f64> = data.tuples().iter().map(|t| rank.score(t)).collect();
    want.sort_by(|a, b| cmp_f64(*a, *b));
    want.truncate(12);

    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(77), 8);
    let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(300, 8));
    let mut ta = TaCursor::new(
        Arc::clone(&rank),
        Query::all(),
        SortedAccess::OneD(OneDStrategy::Rerank),
        server.schema(),
    );
    let got: Vec<f64> = ta
        .top_h(&server, &st, 12)
        .unwrap()
        .iter()
        .map(|t| rank.score(t))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn one_d_point_only_with_filter_both_directions() {
    let data = catalog(200, 9003);
    let sel = Query::all().and_cat(query_reranking::types::CatPredicate::eq(
        query_reranking::types::CatId(0),
        1,
    ));
    for dir in [Direction::Asc, Direction::Desc] {
        let mut want: Vec<(f64, u32)> = data
            .tuples()
            .iter()
            .filter(|t| sel.matches(t))
            .map(|t| (dir.normalize(t.ord(AttrId(0))), t.id.0))
            .collect();
        want.sort_by(|a, b| cmp_f64(a.0, b.0).then(a.1.cmp(&b.1)));

        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(3), 6);
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(200, 6));
        let mut cur = query_reranking::core::OneDCursor::over(
            AttrId(0),
            dir,
            sel.clone(),
            OneDStrategy::Rerank,
        );
        let mut got = Vec::new();
        while let Some(t) = cur.next(&server, &st).unwrap() {
            got.push((dir.normalize(t.ord(AttrId(0))), t.id.0));
            assert!(got.len() <= want.len(), "stream overran");
        }
        assert_eq!(got, want, "{dir:?}");
    }
}
