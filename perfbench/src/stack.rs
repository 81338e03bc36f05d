//! The system under test, assembled from the program's public parts, and
//! the benchmark's own `SearchInterface` decorators around its site.
//!
//! * [`Site`] wraps the simulated hidden database. It injects the fixed
//!   per-query sleep that models the WAN hop and, in a traced stack, times
//!   the scan and counts calls.
//! * [`Adapter`] wraps `HttpSiteAdapter` and, in a traced stack, counts
//!   calls per method and times them.
//!
//! Both forward every `SearchInterface` method, the mutation feed
//! included, so they change no behaviour. A timed stack records nothing.

use crate::gen::{Inputs, Workload, K, N};
use crate::proxy::Proxy;
use query_reranking::edge::{EdgeConfig, EdgeHandle, EdgeServer, HttpSiteAdapter};
use query_reranking::exec::Executor;
use query_reranking::knowledge::KnowledgePlane;
use query_reranking::server::{
    Capabilities, OrderedPage, SearchInterface, SimServer, SiteProfile, SystemRank,
};
use query_reranking::service::RerankService;
use query_reranking::types::{
    AttrId, CostModel, Direction, MutationLog, Query, QueryResponse, Schema, ServerError,
};
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `cold_remote`'s fixed per-query sleep at the site: the WAN hop.
const WAN_DELAY: Duration = Duration::from_micros(500);
/// Pool workers of each edge: one per core of the reference box.
const EDGE_WORKERS: usize = 2;
/// Request/response body pairs the traced front proxy keeps for codec timing.
const CAPTURE: usize = 2_000;

/// The site's price list: a base charge plus surcharges on range
/// predicates and page turns, so cost units and queries differ.
fn metered() -> CostModel {
    CostModel::flat()
        .with_base(2)
        .with_range_cost(1)
        .with_paged_cost(3)
}

thread_local! {
    /// Nanoseconds this thread spent inside the outermost traced site
    /// decorator: what a session pull waited on the site.
    static SITE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Site time accumulated on the calling thread so far (traced stacks only).
pub fn site_ns_on_this_thread() -> u64 {
    SITE_NS.with(Cell::get)
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counters of a traced [`Site`].
#[derive(Debug, Default)]
pub struct SiteTrace {
    /// Calls that reached the database: queries, pages, ordered pages,
    /// watermark reads and feed reads.
    pub calls: AtomicU64,
    /// Time inside the database itself, sleep excluded.
    pub scan_ns: AtomicU64,
    /// Time slept as the WAN hop.
    pub delay_ns: AtomicU64,
}

/// The simulated hidden database, decorated.
pub struct Site {
    inner: Arc<SimServer>,
    delay: Duration,
    trace: Option<Arc<SiteTrace>>,
}

impl Site {
    fn call<T>(&self, charged: bool, f: impl FnOnce() -> T) -> T {
        let Some(trace) = &self.trace else {
            if charged && !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            return f();
        };
        let t0 = Instant::now();
        if charged && !self.delay.is_zero() {
            std::thread::sleep(self.delay);
            trace.delay_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        }
        let t1 = Instant::now();
        let out = f();
        trace.scan_ns.fetch_add(elapsed_ns(t1), Ordering::Relaxed);
        trace.calls.fetch_add(1, Ordering::Relaxed);
        SITE_NS.with(|c| c.set(c.get() + elapsed_ns(t0)));
        out
    }
}

impl SearchInterface for Site {
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
        self.call(true, || self.inner.query(q))
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        self.call(true, || self.inner.query_page(q, page))
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        self.call(true, || self.inner.query_ordered(q, attr, dir, page))
    }

    fn mutation_seq(&self) -> u64 {
        self.call(false, || self.inner.mutation_seq())
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.call(false, || self.inner.mutations_since(since))
    }
}

/// Counters of a traced [`Adapter`].
#[derive(Debug, Default)]
pub struct AdapterTrace {
    /// `query`, `query_page` and `query_ordered` calls.
    pub query_calls: AtomicU64,
    /// `mutation_seq` calls: one `/site/seq` round trip each.
    pub seq_polls: AtomicU64,
    /// `mutations_since` calls.
    pub feed_calls: AtomicU64,
    /// Time inside the adapter, all methods.
    pub ns: AtomicU64,
}

/// `HttpSiteAdapter`, decorated.
pub struct Adapter {
    inner: HttpSiteAdapter,
    trace: Option<Arc<AdapterTrace>>,
}

impl Adapter {
    fn call<T>(&self, count: impl Fn(&AdapterTrace) -> &AtomicU64, f: impl FnOnce() -> T) -> T {
        let Some(trace) = &self.trace else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let ns = elapsed_ns(t0);
        count(trace).fetch_add(1, Ordering::Relaxed);
        trace.ns.fetch_add(ns, Ordering::Relaxed);
        SITE_NS.with(|c| c.set(c.get() + ns));
        out
    }
}

impl SearchInterface for Adapter {
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
        self.call(|t| &t.query_calls, || self.inner.query(q))
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn cost_units_issued(&self) -> u64 {
        self.inner.cost_units_issued()
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        self.call(|t| &t.query_calls, || self.inner.query_page(q, page))
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        self.call(
            |t| &t.query_calls,
            || self.inner.query_ordered(q, attr, dir, page),
        )
    }

    fn mutation_seq(&self) -> u64 {
        self.call(|t| &t.seq_polls, || self.inner.mutation_seq())
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        self.call(|t| &t.feed_calls, || self.inner.mutations_since(since))
    }
}

/// How much of the stack to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Everything, clients reach the front service over its edge.
    Wire,
    /// Everything but the front edge: the in-process replays call the
    /// front service directly.
    InProcess,
}

/// One assembled system under test.
pub struct Stack {
    /// The hidden database (writes go here directly).
    pub sim: Arc<SimServer>,
    /// The reranking service the clients talk to.
    pub front: Arc<RerankService>,
    /// The front service's knowledge plane.
    pub plane: Arc<KnowledgePlane>,
    /// Pool the front edge and in-process batches run on.
    pub exec: Arc<Executor>,
    /// Site counters (traced stacks).
    pub site_trace: Option<Arc<SiteTrace>>,
    /// Adapter counters (traced `cold_remote` stacks).
    pub adapter_trace: Option<Arc<AdapterTrace>>,
    /// Proxy between the clients and the front edge (traced stacks).
    pub front_proxy: Option<Proxy>,
    /// Proxy between the adapter and the site edge (traced `cold_remote`).
    pub adapter_proxy: Option<Proxy>,
    front_edge: Option<EdgeHandle>,
    site_edge: Option<EdgeHandle>,
}

impl Stack {
    /// Assemble the workload's system and warm its plane.
    pub fn build(inputs: &Inputs, shape: Shape, traced: bool) -> std::io::Result<Stack> {
        let sim = Arc::new(
            SiteProfile::open_site(K)
                .build(
                    inputs.data.clone(),
                    SystemRank::pseudo_random(inputs.system_rank_seed),
                )
                .with_cost_model(metered()),
        );
        let site_trace = traced.then(|| Arc::new(SiteTrace::default()));
        let remote = inputs.workload == Workload::ColdRemote;
        let site = Arc::new(Site {
            inner: Arc::clone(&sim),
            delay: if remote { WAN_DELAY } else { Duration::ZERO },
            trace: site_trace.clone(),
        });
        let (mut site_edge, mut adapter_proxy, mut adapter_trace) = (None, None, None);
        let server: Arc<dyn SearchInterface> = if remote {
            let site_svc = Arc::new(RerankService::new(site, N));
            let edge = EdgeServer::serve(
                site_svc,
                Arc::new(Executor::pool(EDGE_WORKERS)),
                EdgeConfig::default(),
            )?;
            let mut addr = edge.addr();
            site_edge = Some(edge);
            if traced {
                let proxy = Proxy::start(addr, 0)?;
                addr = proxy.addr();
                adapter_proxy = Some(proxy);
                adapter_trace = Some(Arc::new(AdapterTrace::default()));
            }
            let inner = HttpSiteAdapter::connect(addr).map_err(std::io::Error::other)?;
            Arc::new(Adapter {
                inner,
                trace: adapter_trace.clone(),
            })
        } else {
            site
        };
        let plane = Arc::new(KnowledgePlane::new());
        let front =
            Arc::new(RerankService::new(server, N).with_knowledge(Arc::clone(&plane), "site"));
        let exec = Arc::new(Executor::pool(EDGE_WORKERS));
        for &i in &inputs.warm {
            let out = front.serve_batch(&exec, vec![inputs.reqs[i].batch()]);
            if let Some(e) = &out[0].error {
                return Err(std::io::Error::other(format!("warming request {i}: {e}")));
            }
        }
        let (mut front_edge, mut front_proxy) = (None, None);
        if shape == Shape::Wire {
            let edge =
                EdgeServer::serve(Arc::clone(&front), Arc::clone(&exec), EdgeConfig::default())?;
            if traced {
                front_proxy = Some(Proxy::start(edge.addr(), CAPTURE)?);
            }
            front_edge = Some(edge);
        }
        Ok(Stack {
            sim,
            front,
            plane,
            exec,
            site_trace,
            adapter_trace,
            front_proxy,
            adapter_proxy,
            front_edge,
            site_edge,
        })
    }

    /// Where clients connect: the front proxy when traced, else the edge.
    pub fn client_addr(&self) -> SocketAddr {
        match (&self.front_proxy, &self.front_edge) {
            (Some(p), _) => p.addr(),
            (None, Some(e)) => e.addr(),
            (None, None) => panic!("an in-process stack has no front door"),
        }
    }

    /// Stop every server and proxy, front to back, and join their threads.
    pub fn shutdown(mut self) {
        let mut clean = true;
        if let Some(p) = self.front_proxy.as_mut() {
            clean &= p.shutdown();
        }
        if let Some(e) = self.front_edge.take() {
            e.shutdown();
        }
        if let Some(p) = self.adapter_proxy.as_mut() {
            clean &= p.shutdown();
        }
        if let Some(e) = self.site_edge.take() {
            e.shutdown();
        }
        assert!(clean, "a proxy thread panicked");
    }
}
