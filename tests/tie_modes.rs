//! The two tie-handling modes: on duplicate-free data the paper's
//! general-positioning semantics must coincide exactly with the §5-exact
//! machinery — and cost no more.

use query_reranking::core::md::cursor::MdTie;
use query_reranking::core::{
    MdCursor, MdOptions, OneDCursor, OneDSpec, OneDStrategy, RerankParams, StateHandle, TiePolicy,
};
use query_reranking::datagen::synthetic::{discrete_grid, uniform};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::types::{AttrId, Direction, Query};
use std::sync::Arc;

#[test]
fn md_gp_equals_exact_on_distinct_data() {
    let data = uniform(300, 2, 1, 5001);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]));
    let run = |tie: MdTie| -> (Vec<u32>, u64) {
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(31), 5);
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(300, 5));
        let mut cur = MdCursor::with_tie(
            Arc::clone(&rank),
            Query::all(),
            MdOptions::rerank(),
            server.schema(),
            tie,
        );
        let mut ids = Vec::new();
        for _ in 0..20 {
            match cur.next(&server, &st).unwrap() {
                Some(t) => ids.push(t.id.0),
                None => break,
            }
        }
        (ids, server.queries_issued())
    };
    let (exact_ids, exact_cost) = run(MdTie::Exact);
    let (gp_ids, gp_cost) = run(MdTie::GeneralPositioning);
    assert_eq!(exact_ids, gp_ids);
    assert!(
        gp_cost <= exact_cost,
        "GP mode cost {gp_cost} exceeds exact mode {exact_cost}"
    );
}

#[test]
fn md_gp_skips_ties_exact_does_not() {
    // On a coarse grid, GP mode's 2-way splits drop value-sharing tuples:
    // that is the documented general-positioning behavior, and Exact mode
    // must not exhibit it.
    let data = discrete_grid(150, 2, 3, 5003);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let total = data.len();
    let run = |tie: MdTie| -> usize {
        let server = SimServer::new(data.clone(), SystemRank::pseudo_random(33), 40);
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(150, 40));
        let mut cur = MdCursor::with_tie(
            Arc::clone(&rank),
            Query::all(),
            MdOptions::binary(),
            server.schema(),
            tie,
        );
        let mut n = 0;
        while cur.next(&server, &st).unwrap().is_some() {
            n += 1;
            assert!(n <= total, "emitted more tuples than exist");
        }
        n
    };
    assert_eq!(run(MdTie::Exact), total);
    assert!(run(MdTie::GeneralPositioning) < total);
}

#[test]
fn one_d_assume_distinct_emits_one_per_value() {
    let data = discrete_grid(200, 2, 4, 5005);
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(35), 10);
    let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(200, 10));
    let mut cur = OneDCursor::new(
        OneDSpec::new(AttrId(0), Direction::Asc, Query::all()),
        OneDStrategy::Binary,
        TiePolicy::AssumeDistinct,
    );
    let mut values = Vec::new();
    while let Some(t) = cur.next(&server, &st).unwrap() {
        values.push(t.ord(AttrId(0)));
        assert!(values.len() <= 4, "more emissions than distinct values");
    }
    // Exactly one representative per distinct value, in order.
    assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0]);
}
