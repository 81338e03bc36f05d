//! The server half: a loopback HTTP front door over a [`RerankService`].
//!
//! One [`EdgeServer::serve`] call binds `127.0.0.1:0`, spawns an accept
//! thread, and dispatches every connection onto the shared `qrs-exec`
//! pool (inline on the accept thread under an immediate executor, whose
//! deferred-spawn semantics would otherwise never run a handler). The
//! routes:
//!
//! | route                          | serves                               |
//! |--------------------------------|--------------------------------------|
//! | `GET /site/capabilities`       | schema + k + capabilities + seq      |
//! | `POST /site/query`             | one top-k query                      |
//! | `POST /site/page`              | one system-ranked page               |
//! | `POST /site/ordered`           | one public-`ORDER BY` page           |
//! | `GET /site/seq`                | the mutation watermark (uncharged)   |
//! | `GET /site/mutations?since=N`  | the delta log after `N` (uncharged)  |
//! | `POST /v1/rerank`              | a batch of rerank requests           |
//! | `GET /stats`                   | service + knowledge + fleet counters |
//!
//! Every `/site/*` response — success and typed failure alike — carries
//! two ledgers: `charged`, what this call was billed, read off the handler
//! thread's charge meter ([`qrs_types::meter`]), and `ledger`, the site's
//! **cumulative** bill. The client attributes `charged` to the caller that
//! made the call; the cumulative lets it account for a charge whose
//! response was lost in transit (see [`crate::HttpSiteAdapter`]).
//!
//! ## Admission order (the part that must not charge)
//!
//! `/v1/rerank` gates run strictly before any query is issued:
//!
//! 1. **tenant budgets** — if the tenant's cumulative query or cost spend
//!    has reached the configured cap, refuse: `429`, body code
//!    `"admission"`, reason `"tenant_budget"`, `Retry-After` set, nothing
//!    charged anywhere;
//! 2. **in-flight cap** — a lock-free gate on concurrent batches; past it,
//!    refuse with reason `"capacity"`, again uncharged;
//! 3. **parse** — malformed bodies are a `400`, still uncharged;
//! 4. **serve** — `RerankService::serve_batch_cancellable` runs the batch;
//! 5. **charge** — the summed per-session ledgers land on the tenant.

use crate::http::{read_request, write_response, Request, Response};
use crate::json::{parse, Json};
use crate::wire;
use parking_lot::Mutex;
use qrs_core::TiePolicy;
use qrs_exec::{CancelToken, Executor};
use qrs_obs::EventKind;
use qrs_ranking::LinearRank;
use qrs_service::{BatchOutcome, BatchRequest, RerankService};
use qrs_types::{meter, AttrId, Direction, Ledger, ServerError};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Knobs for the edge's admission control, read from `QRS_EDGE_*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Maximum concurrently served `/v1/rerank` batches; the gate past
    /// which batches are refused with reason `"capacity"`.
    pub max_inflight: u64,
    /// Per-tenant cap on cumulative *raw queries*; `None` = unmetered.
    pub tenant_query_budget: Option<u64>,
    /// Per-tenant cap on cumulative *weighted cost units*; `None` =
    /// unmetered.
    pub tenant_cost_budget: Option<u64>,
    /// The `Retry-After` hint attached to admission refusals, in
    /// milliseconds (the header is ceiling-rounded to whole seconds).
    pub retry_after_ms: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_inflight: 64,
            tenant_query_budget: None,
            tenant_cost_budget: None,
            retry_after_ms: 1000,
        }
    }
}

impl EdgeConfig {
    /// Read the knobs from the environment: `QRS_EDGE_INFLIGHT` (default
    /// 64), `QRS_EDGE_TENANT_QUERY_BUDGET` / `QRS_EDGE_TENANT_COST_BUDGET`
    /// (default unmetered), `QRS_EDGE_RETRY_AFTER_MS` (default 1000).
    /// Unparsable values fall back to the defaults.
    pub fn from_env() -> Self {
        let read = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        let defaults = EdgeConfig::default();
        EdgeConfig {
            max_inflight: read("QRS_EDGE_INFLIGHT").unwrap_or(defaults.max_inflight),
            tenant_query_budget: read("QRS_EDGE_TENANT_QUERY_BUDGET"),
            tenant_cost_budget: read("QRS_EDGE_TENANT_COST_BUDGET"),
            retry_after_ms: read("QRS_EDGE_RETRY_AFTER_MS").unwrap_or(defaults.retry_after_ms),
        }
    }

    /// Builder: cap concurrent batches.
    pub fn with_max_inflight(mut self, n: u64) -> Self {
        self.max_inflight = n;
        self
    }

    /// Builder: cap each tenant's cumulative raw-query spend.
    pub fn with_tenant_query_budget(mut self, n: u64) -> Self {
        self.tenant_query_budget = Some(n);
        self
    }

    /// Builder: cap each tenant's cumulative weighted-cost spend.
    pub fn with_tenant_cost_budget(mut self, n: u64) -> Self {
        self.tenant_cost_budget = Some(n);
        self
    }

    /// Builder: the `Retry-After` hint on admission refusals (ms).
    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

struct Shared {
    svc: Arc<RerankService>,
    exec: Arc<Executor>,
    config: EdgeConfig,
    inflight: AtomicU64,
    /// Each tenant's cumulative spend, charged after each served batch
    /// from the same metered session ledgers the service stats use.
    tenants: Mutex<BTreeMap<String, Ledger>>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    stop: AtomicBool,
}

/// The HTTP edge. See the module docs for the protocol and admission
/// order.
pub struct EdgeServer;

impl EdgeServer {
    /// Bind `127.0.0.1:0` and serve `svc` until [`EdgeHandle::shutdown`].
    /// Connections are handled on `exec` pool workers (or inline on the
    /// accept thread when `exec` is an immediate executor).
    pub fn serve(
        svc: Arc<RerankService>,
        exec: Arc<Executor>,
        config: EdgeConfig,
    ) -> std::io::Result<EdgeHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            svc,
            exec: Arc::clone(&exec),
            config,
            inflight: AtomicU64::new(0),
            tenants: Mutex::new(BTreeMap::new()),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("qrs-edge-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(EdgeHandle {
            addr,
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// A running edge server: its bound address and its off switch.
pub struct EdgeHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl EdgeHandle {
    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Wire batches admitted past admission control so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Wire batches refused at the gate so far (all uncharged).
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight handlers, join the accept thread.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() awake; the no-op connection reads
        // as a clean EOF and is ignored by the handler.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for EdgeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let exec = Arc::clone(&shared.exec);
    // An immediate executor defers spawned tasks until join or scope
    // close — a live server would never answer. Handle inline instead;
    // the protocol is identical, only the concurrency goes away.
    if exec.is_immediate() {
        while let Ok((stream, _)) = listener.accept() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            handle_conn(stream, &shared);
        }
        return;
    }
    exec.scope(|s| {
        while let Ok((stream, _)) = listener.accept() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let shared = Arc::clone(&shared);
            let _ = s.spawn(move || handle_conn(stream, &shared));
        }
        // Scope close waits for every in-flight handler before the accept
        // thread exits, so shutdown() returning means the edge is quiet.
    });
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let request = match read_request(&stream) {
        Ok(Some(r)) => r,
        // Clean EOF (e.g. the shutdown nudge): nothing to answer.
        Ok(None) => return,
        Err(e) => {
            let body = Json::obj(vec![(
                "error",
                Json::obj(vec![
                    ("code", Json::str("malformed_request")),
                    ("message", Json::str(e.to_string())),
                ]),
            )]);
            let _ = write_response(&stream, &Response::json(400, body.encode()));
            return;
        }
    };
    let response = route(&request, shared);
    let _ = write_response(&stream, &response);
}

fn route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path()) {
        ("GET", "/site/capabilities") => site_capabilities(shared),
        ("POST", "/site/query") => site_query(req, shared),
        ("POST", "/site/page") => site_page(req, shared),
        ("POST", "/site/ordered") => site_ordered(req, shared),
        ("GET", "/site/seq") => site_seq(shared),
        ("GET", "/site/mutations") => site_mutations(req, shared),
        ("POST", "/v1/rerank") => rerank(req, shared),
        ("GET", "/stats") => stats(shared),
        (
            _,
            "/site/capabilities" | "/site/query" | "/site/page" | "/site/ordered" | "/site/seq"
            | "/site/mutations" | "/v1/rerank" | "/stats",
        ) => error_response(
            405,
            "method_not_allowed",
            format!("{} not allowed here", req.method),
        ),
        _ => error_response(404, "not_found", format!("no route {}", req.path())),
    }
}

fn error_response(status: u16, code: &str, message: String) -> Response {
    let body = Json::obj(vec![(
        "error",
        Json::obj(vec![
            ("code", Json::str(code)),
            ("message", Json::str(message)),
        ]),
    )]);
    Response::json(status, body.encode())
}

// ------------------------------------------------------------ /site/*

/// Run one site call, reading what it was billed off this handler
/// thread's charge meter.
fn metered<T>(call: impl FnOnce() -> T) -> (T, Ledger) {
    let before = meter::charges().paid;
    let out = call();
    (out, meter::charges().paid - before)
}

/// A `/site/*` success. The cumulative ledger is read after the call, so
/// it always includes `charged`.
fn site_ok(shared: &Shared, charged: Ledger, members: Vec<(&str, Json)>) -> Response {
    let mut members = members;
    members.extend(wire::site_ledgers(shared.svc.server().issued(), charged));
    Response::json(200, Json::obj(members).encode())
}

fn site_err(shared: &Shared, charged: Ledger, e: &ServerError) -> Response {
    wire::server_error_response(e, shared.svc.server().issued(), charged)
}

fn site_capabilities(shared: &Shared) -> Response {
    let site = shared.svc.server();
    site_ok(
        shared,
        Ledger::default(),
        vec![
            ("schema", wire::schema_to_json(site.schema())),
            ("k", Json::u64(site.k() as u64)),
            (
                "capabilities",
                wire::capabilities_to_json(&site.capabilities()),
            ),
            ("seq", Json::u64(site.mutation_seq())),
        ],
    )
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| error_response(400, "invalid_request", "body is not utf-8".into()))?;
    parse(text).map_err(|e| error_response(400, "invalid_request", format!("bad json: {e}")))
}

fn site_query(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let q = match body
        .get("query")
        .ok_or("missing 'query'".to_string())
        .and_then(wire::query_from_json)
    {
        Ok(q) => q,
        Err(e) => return site_err(shared, Ledger::default(), &ServerError::invalid_query(e)),
    };
    match metered(|| shared.svc.server().query(&q)) {
        (Ok(r), charged) => site_ok(
            shared,
            charged,
            vec![("response", wire::response_to_json(&r))],
        ),
        (Err(e), charged) => site_err(shared, charged, &e),
    }
}

fn site_page(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let decoded = (|| -> Result<_, String> {
        let q = wire::query_from_json(body.get("query").ok_or("missing 'query'")?)?;
        let page = body
            .get("page")
            .and_then(Json::as_usize)
            .ok_or("missing or bad 'page'")?;
        Ok((q, page))
    })();
    let (q, page) = match decoded {
        Ok(d) => d,
        Err(e) => return site_err(shared, Ledger::default(), &ServerError::invalid_query(e)),
    };
    match metered(|| shared.svc.server().query_page(&q, page)) {
        (Ok(r), charged) => site_ok(
            shared,
            charged,
            vec![("response", wire::response_to_json(&r))],
        ),
        (Err(e), charged) => site_err(shared, charged, &e),
    }
}

fn site_ordered(req: &Request, shared: &Shared) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let decoded = (|| -> Result<_, String> {
        let q = wire::query_from_json(body.get("query").ok_or("missing 'query'")?)?;
        let attr = body
            .get("attr")
            .and_then(Json::as_usize)
            .ok_or("missing or bad 'attr'")?;
        let dir = match body.get("dir").and_then(Json::as_str) {
            Some("asc") => Direction::Asc,
            Some("desc") => Direction::Desc,
            _ => return Err("missing or bad 'dir'".into()),
        };
        let page = body
            .get("page")
            .and_then(Json::as_usize)
            .ok_or("missing or bad 'page'")?;
        Ok((q, AttrId(attr), dir, page))
    })();
    let (q, attr, dir, page) = match decoded {
        Ok(d) => d,
        Err(e) => return site_err(shared, Ledger::default(), &ServerError::invalid_query(e)),
    };
    match metered(|| shared.svc.server().query_ordered(&q, attr, dir, page)) {
        (Ok(p), charged) => site_ok(
            shared,
            charged,
            vec![("page", wire::ordered_page_to_json(&p))],
        ),
        (Err(e), charged) => site_err(shared, charged, &e),
    }
}

fn site_seq(shared: &Shared) -> Response {
    site_ok(
        shared,
        Ledger::default(),
        vec![("seq", Json::u64(shared.svc.server().mutation_seq()))],
    )
}

fn site_mutations(req: &Request, shared: &Shared) -> Response {
    let since = match req.query_param("since").and_then(|s| s.parse::<u64>().ok()) {
        Some(n) => n,
        None => {
            return site_err(
                shared,
                Ledger::default(),
                &ServerError::invalid_query("missing or bad 'since' parameter"),
            )
        }
    };
    match shared.svc.server().mutations_since(since) {
        Ok(log) => site_ok(
            shared,
            Ledger::default(),
            vec![("log", wire::mutation_log_to_json(&log))],
        ),
        Err(e) => site_err(shared, Ledger::default(), &e),
    }
}

// --------------------------------------------------------- /v1/rerank

fn admission_reject(shared: &Shared, tenant_spend: Ledger, reason: &str) -> Response {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    let obs = shared.svc.observer();
    if obs.enabled() {
        obs.emit(
            shared.svc.clock().now_ms(),
            0,
            EventKind::EdgeRejected {
                reason: reason.to_string(),
            },
        );
    }
    let ms = shared.config.retry_after_ms;
    let body = Json::obj(vec![
        (
            "error",
            Json::obj(vec![
                ("code", Json::str("admission")),
                ("reason", Json::str(reason)),
                ("retry_after_ms", Json::u64(ms)),
                (
                    "message",
                    Json::str(format!("admission refused ({reason}); nothing was charged")),
                ),
            ]),
        ),
        ("tenant", wire::ledger_json(tenant_spend)),
    ]);
    Response::json(429, body.encode())
        .with_header("retry-after", ms.div_ceil(1000).max(1).to_string())
}

fn decode_batch_request(v: &Json, shared: &Shared) -> Result<BatchRequest, String> {
    let q = wire::query_from_json(v.get("query").ok_or("missing 'query'")?)?;
    q.validate().map_err(|e| e.to_string())?;
    let num_ordinal = shared.svc.server().schema().num_ordinal();
    let terms = v
        .get("rank")
        .and_then(Json::as_arr)
        .ok_or("missing or bad 'rank'")?
        .iter()
        .map(|term| {
            let term = term.as_arr().filter(|t| t.len() == 3);
            let term = term.ok_or("each rank term is [attr, dir, weight]")?;
            let attr = term[0].as_usize().ok_or("bad rank attribute")?;
            if attr >= num_ordinal {
                return Err(format!("rank attribute {attr} outside the schema"));
            }
            let dir = match term[1].as_str() {
                Some("asc") => Direction::Asc,
                Some("desc") => Direction::Desc,
                _ => return Err("rank direction must be 'asc' or 'desc'".into()),
            };
            let weight = term[2].as_f64().ok_or("bad rank weight")?;
            if !weight.is_finite() || weight <= 0.0 {
                // LinearRank::new asserts this; the wire pre-validates so
                // a bad request is a 400, not a worker panic.
                return Err("rank weights must be finite and > 0".into());
            }
            Ok((AttrId(attr), dir, weight))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if terms.is_empty() {
        return Err("rank needs at least one term".into());
    }
    let mut seen = Vec::new();
    for (a, _, _) in &terms {
        if seen.contains(a) {
            return Err(format!("duplicate rank attribute {}", a.0));
        }
        seen.push(*a);
    }
    let top = v
        .get("top")
        .and_then(Json::as_usize)
        .ok_or("missing or bad 'top'")?;
    let mut req = BatchRequest::new(q, Arc::new(LinearRank::new(terms)), top);
    if let Some(b) = v.get("budget") {
        req = req.budget(b.as_u64().ok_or("bad 'budget'")?);
    }
    if let Some(t) = v.get("tie") {
        req = req.tie(match t.as_str() {
            Some("exact") => TiePolicy::Exact,
            Some("assume_distinct") => TiePolicy::AssumeDistinct,
            _ => return Err("tie must be 'exact' or 'assume_distinct'".into()),
        });
    }
    if let Some(h) = v.get("horizon") {
        req = req.horizon(h.as_usize().ok_or("bad 'horizon'")?);
    }
    Ok(req)
}

fn stats_json(s: &qrs_service::SessionStats) -> Json {
    let mut members = vec![
        ("emitted", Json::u64(s.emitted as u64)),
        ("queries_spent", Json::u64(s.queries_spent)),
        ("cost_units_spent", Json::u64(s.cost_units_spent)),
        ("queries_saved", Json::u64(s.queries_saved)),
        ("cost_units_saved", Json::u64(s.cost_units_saved)),
        ("attempts_made", Json::u64(s.attempts_made)),
        ("retries_spent", Json::u64(s.retries_spent)),
        ("strategy_switches", Json::u64(s.strategy_switches)),
    ];
    if let Some(limit) = s.budget_limit {
        members.push(("budget_limit", Json::u64(limit)));
    }
    Json::obj(members)
}

fn outcome_to_json(o: &BatchOutcome) -> Json {
    let mut members = vec![
        (
            "hits",
            Json::Arr(
                o.hits
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("rank", Json::u64(h.rank as u64)),
                            ("score", Json::Num(h.score)),
                            ("tuple", wire::tuple_to_json(&h.tuple)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("stats", stats_json(&o.stats)),
        ("wall_ms", Json::Num(o.wall_ms)),
    ];
    if let Some(e) = &o.error {
        members.push(("error", wire::rerank_error_to_json(e)));
    }
    Json::obj(members)
}

fn rerank(req: &Request, shared: &Shared) -> Response {
    let tenant = req.header("x-tenant").unwrap_or("anonymous").to_string();
    let spend = shared
        .tenants
        .lock()
        .get(&tenant)
        .copied()
        .unwrap_or_default();
    // Gate 1: tenant budgets — checked against *cumulative* spend, so a
    // tenant over either cap is refused before any query is issued.
    let over_queries = shared
        .config
        .tenant_query_budget
        .is_some_and(|cap| spend.queries >= cap);
    let over_cost = shared
        .config
        .tenant_cost_budget
        .is_some_and(|cap| spend.cost_units >= cap);
    if over_queries || over_cost {
        return admission_reject(shared, spend, "tenant_budget");
    }
    // Gate 2: the in-flight cap, taken atomically so a storm of
    // concurrent batches cannot race past it.
    let cap = shared.config.max_inflight;
    let admitted = shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        return admission_reject(shared, spend, "capacity");
    }
    // From here on the slot must be released on every path.
    let response = rerank_admitted(req, shared, &tenant);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    response
}

fn rerank_admitted(req: &Request, shared: &Shared, tenant: &str) -> Response {
    // Gate 3: parse. Still nothing charged.
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let requests = match body.get("requests").and_then(Json::as_arr) {
        Some(rs) => rs,
        None => return error_response(400, "invalid_request", "missing 'requests'".into()),
    };
    let decoded = requests
        .iter()
        .map(|r| decode_batch_request(r, shared))
        .collect::<Result<Vec<_>, String>>();
    let batch = match decoded {
        Ok(b) => b,
        Err(e) => return error_response(400, "invalid_request", e),
    };
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    let obs = shared.svc.observer();
    if obs.enabled() {
        obs.emit(
            shared.svc.clock().now_ms(),
            0,
            EventKind::EdgeAdmitted {
                requests: batch.len() as u64,
            },
        );
    }
    // Serve. The handler already runs on a pool worker; the nested batch
    // scope joins its handles explicitly, which steals queued tasks and
    // therefore cannot starve even on a one-worker pool.
    let outcomes = shared
        .svc
        .serve_batch_cancellable(&shared.exec, batch, &CancelToken::new());
    // Charge: the summed session ledgers land on the tenant.
    let charged = outcomes.iter().fold(Ledger::default(), |acc, o| {
        acc + Ledger::new(o.stats.queries_spent, o.stats.cost_units_spent)
    });
    let after = {
        let mut tenants = shared.tenants.lock();
        let ledger = tenants.entry(tenant.to_string()).or_default();
        *ledger += charged;
        *ledger
    };
    let body = Json::obj(vec![
        (
            "outcomes",
            Json::Arr(outcomes.iter().map(outcome_to_json).collect()),
        ),
        ("tenant", wire::ledger_json(after)),
    ]);
    Response::json(200, body.encode())
}

// -------------------------------------------------------------- /stats

fn stats(shared: &Shared) -> Response {
    let s = shared.svc.stats();
    let service = Json::obj(vec![
        ("sessions_started", Json::u64(s.sessions_started)),
        ("tuples_emitted", Json::u64(s.tuples_emitted)),
        ("queries_spent", Json::u64(s.queries_spent)),
        ("cost_units_spent", Json::u64(s.cost_units_spent)),
        ("queries_saved", Json::u64(s.queries_saved)),
        ("cost_units_saved", Json::u64(s.cost_units_saved)),
        ("retries_spent", Json::u64(s.retries_spent)),
        ("strategy_switches", Json::u64(s.strategy_switches)),
        ("batches_served", Json::u64(s.batches_served)),
        ("requests_served", Json::u64(s.requests_served)),
        ("requests_cancelled", Json::u64(s.requests_cancelled)),
    ]);
    let mut members = vec![
        ("service", service),
        (
            "edge",
            Json::obj(vec![
                (
                    "admitted",
                    Json::u64(shared.admitted.load(Ordering::Relaxed)),
                ),
                (
                    "rejected",
                    Json::u64(shared.rejected.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ];
    if let Some(plane) = shared.svc.knowledge_plane() {
        let p = plane.stats();
        members.push((
            "knowledge",
            Json::obj(vec![
                ("sources", Json::u64(p.sources)),
                ("hits", Json::u64(p.hits)),
                ("synthesized", Json::u64(p.synthesized)),
                ("misses", Json::u64(p.misses)),
                ("result_hits", Json::u64(p.result_hits)),
            ]),
        ));
    }
    let report = shared.svc.monitor_report();
    members.push((
        "monitor",
        Json::Arr(
            report
                .rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("site", Json::str(r.site.clone())),
                        ("strategy", Json::str(r.strategy.clone())),
                        ("sessions", Json::u64(r.sessions)),
                        ("predicted_queries", Json::u64(r.predicted_queries)),
                        ("predicted_cost_units", Json::u64(r.predicted_cost_units)),
                        ("calibrated_queries", Json::u64(r.calibrated_queries)),
                        ("calibrated_cost_units", Json::u64(r.calibrated_cost_units)),
                        ("actual_queries", Json::u64(r.actual_queries)),
                        ("actual_cost_units", Json::u64(r.actual_cost_units)),
                        ("saved_queries", Json::u64(r.saved_queries)),
                        ("saved_cost_units", Json::u64(r.saved_cost_units)),
                        ("switches", Json::u64(r.switches)),
                    ])
                })
                .collect(),
        ),
    ));
    Response::json(200, Json::obj(members).encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_env_parsing_and_builders() {
        let d = EdgeConfig::default();
        assert_eq!(d.max_inflight, 64);
        assert_eq!(d.retry_after_ms, 1000);
        assert_eq!(d.tenant_query_budget, None);
        let c = EdgeConfig::default()
            .with_max_inflight(2)
            .with_tenant_query_budget(10)
            .with_tenant_cost_budget(20)
            .with_retry_after_ms(250);
        assert_eq!(c.max_inflight, 2);
        assert_eq!(c.tenant_query_budget, Some(10));
        assert_eq!(c.tenant_cost_budget, Some(20));
        assert_eq!(c.retry_after_ms, 250);
    }
}
