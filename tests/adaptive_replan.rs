//! Properties of the closed-loop adaptive planner: a mid-flight strategy
//! switch must be *invisible* in the result stream (byte-identical to the
//! dense oracle — ids AND score bit patterns), *cheaper* than riding the
//! mispriced plan, and *exactly accounted* (the `Replanned` event's spend
//! snapshot plus the post-switch charges reconcile to the session ledger
//! to the last unit). A run whose advertised prices are honest must never
//! switch. Datasets derive from `QRS_TEST_SEED` and the service layer
//! honors `QRS_EXEC_THREADS`, so CI sweeps both.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::knowledge::KnowledgePlane;
use query_reranking::obs::{EventKind, ObsHandle, Recorder};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{SearchInterface, SimServer, SystemRank};
use query_reranking::service::{AdaptiveConfig, Algorithm, RerankService};
use query_reranking::types::{AttrId, CostModel, Dataset, Query};
use std::sync::Arc;

const N: usize = 300;
const K: usize = 5;
/// Pull well past one page so the switch happens with rows still owed.
const HORIZON: usize = 40;

fn seeded(base: u64) -> u64 {
    let env: u64 = std::env::var("QRS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    base ^ env.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn rank2() -> Arc<dyn RankFn> {
    Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.7)]))
}

/// A site whose public price list went stale: ranges are advertised as
/// ruinous (50 units) and `ORDER BY` as free, so the static planner picks
/// `ta-order-by` — but the *billing* model charges 60 per ordered page and
/// 1 per range probe, the exact inverse. No paging, so the only feasible
/// alternate is the md cursor.
fn drifted_server(data: Dataset, seed: u64) -> SimServer {
    SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K)
        .with_order_by(vec![AttrId(0), AttrId(1)])
        .with_advertised_cost(CostModel::flat().with_range_cost(50))
        .with_cost_model(CostModel::flat().with_ordered_cost(60))
}

/// Dense oracle: the top-`h` (id, score-bits) stream for `sel` under `rank`.
fn oracle(data: &Dataset, sel: &Query, rank: &Arc<dyn RankFn>, h: usize) -> Vec<(u32, u64)> {
    let scorer = Arc::clone(rank);
    data.rank_by(sel, move |t| scorer.score(t))
        .iter()
        .take(h)
        .map(|t| (t.id.0, rank.score(t).to_bits()))
        .collect()
}

/// The headline property: on the drifted site, an adaptive `Auto` session
/// (1) plans `ta-order-by` off the advertised lie, (2) trips the
/// divergence ratio once billing reveals the real prices, (3) switches to
/// the md cursor mid-flight, and the user-visible stream is byte-identical
/// to the dense oracle — while a static twin riding the mispriced plan to
/// the same horizon pays strictly more.
#[test]
fn divergence_switch_is_byte_identical_to_oracle_and_strictly_cheaper() {
    let seed = seeded(0xADA1) | 1;
    let data = uniform(N, 2, 1, seed);
    let want = oracle(&data, &Query::all(), &rank2(), HORIZON);

    // Static twin: same lying site, adaptive off — rides ta-order-by.
    let static_server = Arc::new(drifted_server(data.clone(), seed));
    let static_svc = RerankService::new(Arc::clone(&static_server) as Arc<dyn SearchInterface>, N);
    let mut s = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let static_plan = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .plan()
        .unwrap();
    assert!(
        matches!(static_plan.algorithm, Algorithm::Ta(_)),
        "the advertised lie must bait the static planner onto TA, got {:?}",
        static_plan.algorithm
    );
    let static_stream: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    assert_eq!(static_stream, want, "static twin must still be exact");
    assert_eq!(s.strategy_switches(), 0);
    let static_cost = s.cost_units_spent();
    drop(s);

    // Adaptive session on an identical twin server, once without and once
    // with a (cold) knowledge plane: the session's prefix skip swallows the
    // replacement strategy's re-derived rows either way.
    for with_plane in [false, true] {
        let server = Arc::new(drifted_server(data.clone(), seed));
        let mut svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
            .with_adaptive(AdaptiveConfig::enabled())
            .with_observer(ObsHandle::for_site("drifted"));
        if with_plane {
            svc = svc.with_knowledge(Arc::new(KnowledgePlane::new()), "drifted");
        }
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let mut got = Vec::new();
        while let Some(hit) = s.next().unwrap() {
            got.push((hit.tuple.id.0, hit.score.to_bits()));
            if got.len() == HORIZON {
                break;
            }
        }
        assert_eq!(got, want, "switched stream diverged from the dense oracle");
        assert_eq!(s.strategy_switches(), 1, "exactly one mid-flight switch");
        assert_eq!(
            s.strategy_name(),
            "md-rerank",
            "the only feasible alternate is the md cursor"
        );
        let adaptive_cost = s.cost_units_spent();
        assert_eq!(s.cost_units_spent(), server.cost_units_issued());
        let stats = s.stats();
        assert_eq!(stats.strategy_switches, 1);
        drop(s);

        assert!(
            adaptive_cost < static_cost,
            "switching must beat riding the mispriced plan: {adaptive_cost} vs {static_cost}"
        );

        // The switch surfaced everywhere it should: the service ledger, the
        // metrics registry, and the fleet monitor's per-strategy rows.
        assert_eq!(svc.stats().strategy_switches, 1);
        assert_eq!(svc.observer().metrics().unwrap().replans, 1);
        let report = svc.monitor_report();
        assert_eq!(report.switches_total(), 1);
        let origin = report
            .rows
            .iter()
            .find(|r| r.strategy == "ta-order-by")
            .expect("origin strategy row");
        assert_eq!(origin.switches, 1, "switch counted on the origin row");
        assert!(
            report.rows.iter().any(|r| r.strategy == "md-rerank"),
            "destination row created for post-switch charges"
        );
    }
}

/// Ledger conservation across the switch: the `Replanned` event snapshots
/// the spend at the moment of switching, and that snapshot plus the
/// post-switch `RequestCharged` deltas must equal the session's final
/// ledger exactly — no charge is lost or double-counted by the handover.
#[test]
fn replanned_event_conserves_the_ledger_across_the_switch() {
    let seed = seeded(0xADA2) | 1;
    let data = uniform(N, 2, 1, seed);
    let server = Arc::new(drifted_server(data, seed));
    let recorder = Arc::new(Recorder::with_capacity(4096));
    let obs = ObsHandle::builder("drifted")
        .subscriber(Arc::clone(&recorder) as _)
        .build();
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
        .with_adaptive(AdaptiveConfig::enabled())
        .with_observer(obs);
    let mut s = svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let hits = s.try_top(HORIZON).unwrap();
    assert_eq!(hits.len(), HORIZON);
    assert_eq!(s.strategy_switches(), 1);
    let final_q = s.queries_spent();
    let final_c = s.cost_units_spent();
    drop(s);

    // Replay the recorder in emission order: charges before the Replanned
    // event must sum to its snapshot; charges after must make up the rest.
    let mut pre = (0u64, 0u64);
    let mut post = (0u64, 0u64);
    let mut switch: Option<(u64, u64, u64)> = None;
    for e in recorder.events() {
        match &e.kind {
            EventKind::RequestCharged {
                queries,
                cost_units,
                ..
            } => {
                let side = if switch.is_none() {
                    &mut pre
                } else {
                    &mut post
                };
                side.0 += queries;
                side.1 += cost_units;
            }
            EventKind::Replanned {
                from_strategy,
                to_strategy,
                at_emitted,
                queries_spent,
                cost_units_spent,
            } => {
                assert!(switch.is_none(), "at most one switch per session");
                assert_eq!(from_strategy, "ta-order-by");
                assert_eq!(to_strategy, "md-rerank");
                assert!(*at_emitted > 0, "min_spend implies rows were emitted");
                switch = Some((*at_emitted, *queries_spent, *cost_units_spent));
            }
            _ => {}
        }
    }
    let (_, snap_q, snap_c) = switch.expect("the drifted site must trip a switch");
    assert_eq!(snap_q, pre.0, "snapshot != charges before the switch");
    assert_eq!(snap_c, pre.1);
    assert_eq!(snap_q + post.0, final_q, "pre + post != final raw ledger");
    assert_eq!(snap_c + post.1, final_c, "pre + post != final cost ledger");
    assert!(
        post.1 > 0,
        "the replacement strategy must have paid something"
    );
}

/// An honest site never trips the trigger: with the advertised model equal
/// to the billing model, a calibration-warmed adaptive session runs to the
/// same horizon with zero switches and a stream byte-identical to the
/// static configuration.
#[test]
fn honest_prices_never_switch() {
    let seed = seeded(0xADA3) | 1;
    let data = uniform(N, 2, 1, seed);
    let honest = |data: Dataset| {
        SimServer::new(data, SystemRank::pseudo_random(seed ^ 0x33), K)
            .with_order_by(vec![AttrId(0), AttrId(1)])
            .with_cost_model(CostModel::flat().with_ordered_cost(2).with_range_cost(2))
    };

    let static_server = Arc::new(honest(data.clone()));
    let static_svc = RerankService::new(Arc::clone(&static_server) as Arc<dyn SearchInterface>, N);
    let mut s = static_svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let want: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    drop(s);

    let server = Arc::new(honest(data));
    let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
        .with_adaptive(AdaptiveConfig::enabled());
    // Warm the calibration store: static heuristics may honestly over- or
    // under-shoot a cold estimate, but one observed session teaches the
    // store the real ratio, after which predictions track billing.
    let mut warm = svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let _ = warm.try_top(HORIZON).unwrap();
    drop(warm);

    let mut s = svc
        .session(Query::all(), rank2())
        .horizon(HORIZON)
        .open()
        .unwrap();
    let got: Vec<(u32, u64)> = s
        .try_top(HORIZON)
        .unwrap()
        .iter()
        .map(|h| (h.tuple.id.0, h.score.to_bits()))
        .collect();
    assert_eq!(s.strategy_switches(), 0, "honest prices must never switch");
    assert_eq!(got, want, "adaptive run diverged from the static stream");
    drop(s);
    assert_eq!(svc.stats().strategy_switches, 0);

    // The store did learn — snapshots expose the trained families.
    assert!(
        !svc.calibration().snapshot().is_empty(),
        "warm-up must train at least one strategy family"
    );
}

/// The off switches hold: `disabled()` (the default) and
/// `without_replan()` both pin the session to its planned strategy on the
/// drifted site — calibration may still learn, but nothing switches.
#[test]
fn replanning_can_be_opted_out() {
    let seed = seeded(0xADA4) | 1;
    let data = uniform(N, 2, 1, seed);
    for cfg in [
        AdaptiveConfig::disabled(),
        AdaptiveConfig::enabled().without_replan(),
    ] {
        let server = Arc::new(drifted_server(data.clone(), seed));
        let svc = RerankService::new(Arc::clone(&server) as Arc<dyn SearchInterface>, N)
            .with_adaptive(cfg);
        let mut s = svc
            .session(Query::all(), rank2())
            .horizon(HORIZON)
            .open()
            .unwrap();
        let hits = s.try_top(HORIZON).unwrap();
        assert_eq!(hits.len(), HORIZON);
        assert_eq!(s.strategy_switches(), 0);
        assert_eq!(s.strategy_name(), "ta-order-by");
        drop(s);
        assert_eq!(svc.stats().strategy_switches, 0);
    }
}
