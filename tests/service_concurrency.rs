//! The "as a service" layer under concurrent use: multiple user sessions on
//! shared state must stay exact, budgets must bind, per-session attribution
//! must not bleed across sessions, and knowledge must accumulate. Sessions
//! of one service wait on the site side by side — no service-wide lock is
//! held across a site call — and a state rebuild in the middle of a step
//! disturbs neither stream.

use query_reranking::core::MdOptions;
use query_reranking::datagen::synthetic::uniform;
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::server::{
    Capabilities, LatencyServer, SearchInterface, SimServer, SystemClock, SystemRank,
};
use query_reranking::service::{Algorithm, ProfileStore, RerankService};
use query_reranking::types::value::cmp_f64;
use query_reranking::types::{
    AttrId, CatId, CatPredicate, Dataset, Query, QueryResponse, RerankError, Schema, ServerError,
    TupleId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

fn service(data: &Dataset, k: usize) -> RerankService {
    let server = SimServer::new(data.clone(), SystemRank::pseudo_random(77), k);
    RerankService::new(Arc::new(server), data.len())
}

#[test]
fn concurrent_sessions_stay_exact() {
    let data = uniform(400, 2, 1, 3001);
    let site = || {
        Arc::new(SimServer::new(
            data.clone(),
            SystemRank::pseudo_random(77),
            5,
        ))
    };
    // Two inputs: the bare in-process site, and the same site behind a
    // 1 ms wall-clock latency, so the four sessions' steps overlap while
    // they wait on it.
    let fast = site();
    let slow = site();
    let inputs: Vec<(&str, Arc<dyn SearchInterface>, Arc<SimServer>)> = vec![
        (
            "in-process",
            Arc::clone(&fast) as Arc<dyn SearchInterface>,
            fast,
        ),
        (
            "1 ms latency",
            Arc::new(LatencyServer::new(
                Arc::clone(&slow) as Arc<dyn SearchInterface>,
                Arc::new(SystemClock::new()),
                1,
            )),
            slow,
        ),
    ];
    let data = Arc::new(data);
    for (label, server, counter) in inputs {
        let svc = Arc::new(RerankService::new(server, data.len()));
        let spent = std::thread::scope(|scope| {
            let users: Vec<_> = (0..4u32)
                .map(|code| {
                    let svc = Arc::clone(&svc);
                    let data = Arc::clone(&data);
                    scope.spawn(move || {
                        let sel = Query::all().and_cat(CatPredicate::eq(CatId(0), code));
                        let rank = LinearRank::asc(vec![
                            (AttrId(0), 1.0 + f64::from(code)),
                            (AttrId(1), 1.0),
                        ]);
                        let want: Vec<f64> = {
                            let mut v: Vec<f64> = data
                                .tuples()
                                .iter()
                                .filter(|t| sel.matches(t))
                                .map(|t| rank.score(t))
                                .collect();
                            v.sort_by(|a, b| cmp_f64(*a, *b));
                            v.truncate(8);
                            v
                        };
                        let mut s = svc
                            .session(sel, Arc::new(rank))
                            .algorithm(Algorithm::Md(MdOptions::rerank()))
                            .open()
                            .unwrap();
                        let (hits, err) = s.top(8);
                        assert!(err.is_none(), "{label} user {code}: {err:?}");
                        let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
                        assert_eq!(got, want, "{label} user {code}");
                        (s.queries_spent(), s.cost_units_spent())
                    })
                })
                .collect();
            users
                .into_iter()
                .map(|u| u.join().unwrap())
                .fold((0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1))
        });
        assert_eq!(svc.stats().sessions_started, 4);
        assert!(svc.stats().tuples_emitted >= 16);
        assert_eq!(
            spent,
            (counter.queries_issued(), counter.cost_units_issued()),
            "{label}: session ledgers must partition the site's counters"
        );
    }
}

/// A site that holds each caller inside `query()` until a second caller
/// is inside too — or until `timeout`, after which it lets everyone
/// through and remembers that the rendezvous never happened. Two
/// sessions of one service can only meet here if no service-wide lock
/// is held across site calls.
struct Rendezvous {
    inner: Arc<SimServer>,
    /// (callers waiting inside, met, gave up).
    state: Mutex<(usize, bool, bool)>,
    arrived: Condvar,
    timeout: Duration,
}

impl Rendezvous {
    fn meet(&self) {
        let mut g = self.state.lock().unwrap();
        if g.1 || g.2 {
            return;
        }
        g.0 += 1;
        if g.0 == 2 {
            g.1 = true;
            self.arrived.notify_all();
            return;
        }
        let (mut g, _) = self
            .arrived
            .wait_timeout_while(g, self.timeout, |s| !s.1 && !s.2)
            .unwrap();
        if !g.1 {
            g.2 = true;
        }
    }

    fn met(&self) -> bool {
        self.state.lock().unwrap().1
    }
}

impl SearchInterface for Rendezvous {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        self.meet();
        self.inner.query(q)
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }
}

#[test]
fn two_sessions_of_one_service_wait_on_the_site_at_once() {
    let data = uniform(300, 2, 1, 3013);
    let site = Arc::new(Rendezvous {
        inner: Arc::new(SimServer::new(
            data.clone(),
            SystemRank::pseudo_random(5),
            5,
        )),
        state: Mutex::new((0, false, false)),
        arrived: Condvar::new(),
        timeout: Duration::from_secs(5),
    });
    let svc = RerankService::new(Arc::clone(&site) as Arc<dyn SearchInterface>, data.len());
    let ranks: [Arc<dyn RankFn>; 2] = [
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.4)])),
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.3), (AttrId(1), 1.0)])),
    ];
    std::thread::scope(|scope| {
        for rank in &ranks {
            let (svc, data) = (&svc, &data);
            scope.spawn(move || {
                let mut s = svc.session(Query::all(), Arc::clone(rank)).open().unwrap();
                let (hits, err) = s.top(5);
                assert!(err.is_none(), "{err:?}");
                let want: Vec<u32> = data
                    .rank_by(&Query::all(), |t| rank.score(t))
                    .iter()
                    .take(5)
                    .map(|t| t.id.0)
                    .collect();
                let got: Vec<u32> = hits.iter().map(|r| r.tuple.id.0).collect();
                assert_eq!(got, want);
            });
        }
    });
    assert!(
        site.met(),
        "the second session could not reach the site while the first waited on it"
    );
}

/// A site whose first query applies a write and, on another thread, opens
/// and drains a second session of the same service — all while the first
/// session's step is still inside this call. The second open sees the
/// write and rebuilds the shared state; the first step keeps the
/// generation it pinned.
struct WritesMidStep {
    inner: Arc<SimServer>,
    svc: OnceLock<Weak<RerankService>>,
    victim: TupleId,
    rank: Arc<dyn RankFn>,
    fired: AtomicBool,
    /// The second session's stream and ledger.
    second: Mutex<Option<Drained>>,
}

/// A drained session: its `(id, score bits)` stream and its
/// `(queries, cost units)` spend.
type Drained = (Vec<(u32, u64)>, (u64, u64));

impl SearchInterface for WritesMidStep {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }
    fn k(&self) -> usize {
        self.inner.k()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        if !self.fired.swap(true, Ordering::SeqCst) {
            self.inner.delete(self.victim).expect("victim is present");
            let svc = self.svc.get().and_then(Weak::upgrade).expect("service");
            let rank = Arc::clone(&self.rank);
            let (tx, rx) = mpsc::channel();
            let drain = std::thread::spawn(move || {
                let mut s = svc.session(Query::all(), rank).open().unwrap();
                let (hits, err) = s.top(10);
                assert!(err.is_none(), "{err:?}");
                let stream = hits
                    .iter()
                    .map(|r| (r.tuple.id.0, r.score.to_bits()))
                    .collect();
                let _ = tx.send((stream, (s.queries_spent(), s.cost_units_spent())));
            });
            let second = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the second session finished while the first was inside the site");
            drain.join().expect("the second session's thread");
            *self.second.lock().unwrap() = Some(second);
        }
        self.inner.query(q)
    }
    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }
    fn mutation_seq(&self) -> u64 {
        self.inner.mutation_seq()
    }
}

#[test]
fn a_rebuild_during_a_step_keeps_both_streams_exact() {
    let data = uniform(300, 2, 1, 3017);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.6)]));
    // Delete the best tuple: a stream built on pre-write knowledge would
    // still lead with it.
    let victim = data.rank_by(&Query::all(), |t| rank.score(t))[0].id;
    let inner = Arc::new(SimServer::new(data, SystemRank::pseudo_random(9), 5));
    let site = Arc::new(WritesMidStep {
        inner: Arc::clone(&inner),
        svc: OnceLock::new(),
        victim,
        rank: Arc::clone(&rank),
        fired: AtomicBool::new(false),
        second: Mutex::new(None),
    });
    let svc = Arc::new(RerankService::new(
        Arc::clone(&site) as Arc<dyn SearchInterface>,
        300,
    ));
    site.svc.set(Arc::downgrade(&svc)).expect("set once");
    let mut first = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits, err) = first.top(10);
    assert!(err.is_none(), "{err:?}");
    let first_stream: Vec<(u32, u64)> = hits
        .iter()
        .map(|r| (r.tuple.id.0, r.score.to_bits()))
        .collect();
    let (second_stream, second_spent) = site.second.lock().unwrap().take().expect("fired");
    // Every site answer either session saw came after the write, so both
    // streams answer the post-write snapshot.
    let oracle: Vec<(u32, u64)> = inner
        .dataset()
        .rank_by(&Query::all(), |t| rank.score(t))
        .iter()
        .take(10)
        .map(|t| (t.id.0, rank.score(t).to_bits()))
        .collect();
    assert!(oracle.iter().all(|&(id, _)| id != victim.0));
    assert_eq!(
        first_stream, oracle,
        "the session whose step spanned the rebuild"
    );
    assert_eq!(second_stream, oracle, "the session that rebuilt the state");
    assert_eq!(
        (
            first.queries_spent() + second_spent.0,
            first.cost_units_spent() + second_spent.1
        ),
        (inner.queries_issued(), inner.cost_units_issued()),
        "both sessions' ledgers together are the site's bill"
    );
}

#[test]
fn per_session_attribution_sums_to_the_global_counter() {
    // Interleave two sessions' Get-Nexts on one service: each session's
    // queries_spent must count only its own cursor calls, and together they
    // must account for every query the service issued.
    let data = uniform(500, 2, 1, 3011);
    let svc = service(&data, 4);
    let rank_a: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 0.3)]));
    let rank_b: Arc<dyn RankFn> =
        Arc::new(LinearRank::asc(vec![(AttrId(0), 0.2), (AttrId(1), 1.0)]));
    let mut a = svc.session(Query::all(), rank_a).open().unwrap();
    let mut b = svc.session(Query::all(), rank_b).open().unwrap();
    for _ in 0..6 {
        a.next().unwrap();
        b.next().unwrap();
    }
    assert!(a.queries_spent() > 0);
    assert!(b.queries_spent() > 0);
    assert_eq!(
        a.queries_spent() + b.queries_spent(),
        svc.queries_issued(),
        "attribution must partition the global counter"
    );
}

#[test]
fn profiles_apply_across_services() {
    let store = ProfileStore::new();
    store.register(
        "balanced",
        Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)])) as Arc<dyn RankFn>,
    );
    let rank = store.get("balanced").unwrap();
    for seed in [3003u64, 3005] {
        let data = uniform(200, 2, 1, seed);
        let svc = service(&data, 5);
        let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
        let (hits, err) = s.top(5);
        assert!(err.is_none());
        let got: Vec<f64> = hits.iter().map(|r| r.score).collect();
        let mut want: Vec<f64> = data.tuples().iter().map(|t| rank.score(t)).collect();
        want.sort_by(|a, b| cmp_f64(*a, *b));
        want.truncate(5);
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn budget_error_is_recoverable_state() {
    let data = uniform(600, 2, 1, 3007);
    let server = SimServer::new(
        data.clone(),
        SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]),
        3,
    );
    let svc = RerankService::new(Arc::new(server), 600).with_budget(4);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let mut s = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let mut saw_budget_error = false;
    for _ in 0..50 {
        match s.next() {
            Err(RerankError::BudgetExhausted { limit, .. }) => {
                saw_budget_error = true;
                assert_eq!(limit, 4);
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(Some(_)) => {}
            Ok(None) => break,
        }
    }
    assert!(saw_budget_error);
    // The service object is still usable for inspection after the error.
    assert!(svc.queries_issued() >= 4);
    let (hist, _, _) = svc.knowledge();
    assert!(hist > 0);
}

#[test]
fn warm_service_answers_repeat_queries_free() {
    let data = uniform(300, 2, 1, 3009);
    let svc = service(&data, 5);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    let mut s1 = svc.session(Query::all(), Arc::clone(&rank)).open().unwrap();
    let (hits1, err) = s1.top(5);
    assert!(err.is_none());
    let first: Vec<f64> = hits1.iter().map(|r| r.score).collect();
    drop(s1);
    let before = svc.queries_issued();
    let mut s2 = svc.session(Query::all(), rank).open().unwrap();
    let (hits2, err) = s2.top(5);
    assert!(err.is_none());
    let second: Vec<f64> = hits2.iter().map(|r| r.score).collect();
    assert_eq!(first, second);
    let spent = svc.queries_issued() - before;
    assert!(
        spent <= before / 2,
        "warm repeat cost {spent} not clearly amortized vs cold {before}"
    );
}
