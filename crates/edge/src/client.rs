//! The client half: a [`SearchInterface`] over the wire, plus a front-door
//! batch client.
//!
//! [`HttpSiteAdapter`] makes a remote edge look exactly like an in-process
//! server to everything above it — sessions, planners, the knowledge
//! plane. Three behaviours carry the contract:
//!
//! * **capabilities are fetched once** at connect (schema, `k`, the full
//!   capability set with its cost model, the mutation watermark) and
//!   served from the cache forever after — the same "advertised at the
//!   door" epoch story the in-process servers follow;
//! * **charges reach the caller that caused them**: every `/site/*`
//!   response carries what the call was `charged` plus the site's
//!   cumulative `ledger`. The adapter records `charged` on the calling
//!   thread's charge meter ([`qrs_types::meter`]), exactly as an
//!   in-process site would, so a session's steps are billed their own
//!   calls even while other sessions' calls overlap them. A charge whose
//!   response was lost in transit (a body truncated after the site billed
//!   it) is never dropped: whenever a charged call's response arrives with
//!   no other charged call in flight, every earlier charge has been
//!   reported or lost, so the gap between the cumulative ledger and what
//!   the adapter has attributed so far is exactly the lost charges, and it
//!   goes to that caller — once. The cumulative ledger is also mirrored
//!   (monotonically: the maximum seen, since responses may arrive out of
//!   order) as `queries_issued()`, a cheap local read;
//! * **transport faults are transient**: a refused connection, a mid-body
//!   drop, or an unparsable response all surface as
//!   [`ServerError::Unavailable`] — the existing `RetryPolicy` machinery
//!   handles them like any other 5xx, while typed protocol errors
//!   (`429`/`501`/`400`) decode back into the exact [`ServerError`] the
//!   far side raised, `retry_after_ms` hints included.

use crate::http::{read_response, write_request, Response};
use crate::json::{parse, Json};
use crate::wire;
use qrs_server::{Capabilities, OrderedPage, SearchInterface};
use qrs_types::{
    meter, AttrId, Direction, Ledger, MutationLog, Query, QueryResponse, Schema, ServerError,
    Tuple, TupleId,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

fn transport_err(what: impl std::fmt::Display) -> ServerError {
    ServerError::unavailable(format!("transport: {what}"))
}

/// POST (or GET, for an empty target-only request) one round trip.
fn round_trip(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> Result<Response, ServerError> {
    let stream = TcpStream::connect(addr).map_err(transport_err)?;
    write_request(&stream, method, target, headers, body).map_err(transport_err)?;
    read_response(&stream).map_err(transport_err)
}

fn parse_json_body(resp: &Response) -> Result<Json, ServerError> {
    let text =
        std::str::from_utf8(&resp.body).map_err(|_| transport_err("response body not utf-8"))?;
    parse(text).map_err(|e| transport_err(format!("bad response json: {e}")))
}

/// A remote site served by an [`crate::EdgeServer`], adapted back into a
/// [`SearchInterface`]. See the module docs for the contract.
pub struct HttpSiteAdapter {
    addr: SocketAddr,
    schema: Arc<Schema>,
    k: usize,
    capabilities: Capabilities,
    seq_at_connect: u64,
    /// The largest cumulative ledger any response has carried.
    queries: AtomicU64,
    cost_units: AtomicU64,
    /// Charged calls in flight and charges attributed so far.
    book: Mutex<ChargeBook>,
    /// The latest decoded copy of every tuple seen, by id: repeated
    /// answers share one allocation, as an in-process site's answers share
    /// its store's, instead of every cached response holding its own.
    tuples: Mutex<HashMap<TupleId, Arc<Tuple>>>,
}

/// The adapter's attribution state, updated under one lock so "no other
/// charged call is in flight" and "what has been attributed" are read at
/// the same moment.
#[derive(Debug, Default)]
struct ChargeBook {
    /// Charged calls sent whose response has not been accounted yet.
    in_flight: u64,
    /// Everything billed before connect plus every charge recorded on a
    /// caller's meter since.
    attributed: Ledger,
}

impl ChargeBook {
    /// Account a charged call's response (its call already left
    /// `in_flight`) and return what to bill its caller: the call's own
    /// charge, plus — when no other charged call is in flight, so every
    /// earlier charge was either reported or lost — whatever the cumulative
    /// ledger holds beyond everything attributed so far. A cumulative
    /// reading that does not cover the attributed total is older than a
    /// response already accounted and settles nothing extra.
    fn settle(&mut self, cumulative: Ledger, charged: Ledger) -> Ledger {
        self.attributed += charged;
        let seen = self.attributed;
        if self.in_flight > 0
            || cumulative.queries < seen.queries
            || cumulative.cost_units < seen.cost_units
        {
            return charged;
        }
        self.attributed = cumulative;
        charged + (cumulative - seen)
    }
}

/// The `ledger` (cumulative) and `charged` members of a `/site/*` body.
fn ledgers_of(body: &Json) -> Option<(Ledger, Ledger)> {
    let get = |name| body.get(name).and_then(|l| wire::ledger_from_json(l).ok());
    Some((get("ledger")?, get("charged")?))
}

impl HttpSiteAdapter {
    /// Connect: fetch `/site/capabilities` once and cache everything it
    /// advertises. Fails with a *transient* error if the edge is
    /// unreachable, so callers may retry the connect itself.
    pub fn connect(addr: SocketAddr) -> Result<HttpSiteAdapter, ServerError> {
        let resp = round_trip(addr, "GET", "/site/capabilities", &[], b"")?;
        if resp.status != 200 {
            return Err(decode_error(&resp));
        }
        let body = parse_json_body(&resp)?;
        let schema = body
            .get("schema")
            .ok_or_else(|| transport_err("capabilities missing 'schema'"))
            .and_then(|s| wire::schema_from_json(s).map_err(transport_err))?;
        let k = body
            .get("k")
            .and_then(Json::as_usize)
            .ok_or_else(|| transport_err("capabilities missing 'k'"))?;
        let capabilities = body
            .get("capabilities")
            .ok_or_else(|| transport_err("capabilities missing 'capabilities'"))
            .and_then(|c| wire::capabilities_from_json(c).map_err(transport_err))?;
        let seq_at_connect = body.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let adapter = HttpSiteAdapter {
            addr,
            schema: Arc::new(schema),
            k,
            capabilities,
            seq_at_connect,
            queries: AtomicU64::new(0),
            cost_units: AtomicU64::new(0),
            book: Mutex::new(ChargeBook::default()),
            tuples: Mutex::new(HashMap::new()),
        };
        if let Some((cumulative, _)) = ledgers_of(&body) {
            // What the site billed before this adapter existed is nobody's
            // here.
            adapter.book().attributed = cumulative;
            adapter.absorb_ledger(cumulative);
        }
        Ok(adapter)
    }

    /// The edge address this adapter talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The mutation watermark advertised at connect time.
    pub fn seq_at_connect(&self) -> u64 {
        self.seq_at_connect
    }

    fn book(&self) -> std::sync::MutexGuard<'_, ChargeBook> {
        self.book.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Swap each decoded tuple for the copy already held, when that copy
    /// is bit-for-bit the same tuple (an update under the same id replaces
    /// it instead).
    fn intern(&self, tuples: &mut [Arc<Tuple>]) {
        let mut held = self.tuples.lock().unwrap_or_else(PoisonError::into_inner);
        for t in tuples {
            match held.get(&t.id) {
                Some(known) if same_bits(known, t) => *t = Arc::clone(known),
                _ => {
                    held.insert(t.id, Arc::clone(t));
                }
            }
        }
    }

    /// Mirror the cumulative ledger a response carries. A maximum, not a
    /// store: with calls overlapping, an older reading can arrive after a
    /// newer one and must not move the mirror back.
    fn absorb_ledger(&self, cumulative: Ledger) {
        self.queries.fetch_max(cumulative.queries, Ordering::SeqCst);
        self.cost_units
            .fetch_max(cumulative.cost_units, Ordering::SeqCst);
    }

    /// The `response` member of a top-k or page body, interned.
    fn decode_response(&self, json: &Json) -> Result<QueryResponse, ServerError> {
        let mut resp = json
            .get("response")
            .ok_or_else(|| transport_err("missing 'response'"))
            .and_then(|r| wire::response_from_json(r).map_err(transport_err))?;
        self.intern(&mut resp.tuples);
        Ok(resp)
    }

    /// One uncharged `/site/*` call (capabilities, watermark, feed): round
    /// trip, mirror the cumulative ledger, decode or surface the typed
    /// error.
    fn site_call(&self, method: &str, target: &str, body: &[u8]) -> Result<Json, ServerError> {
        let resp = round_trip(self.addr, method, target, &[], body)?;
        let json = parse_json_body(&resp)?;
        if let Some((cumulative, _)) = ledgers_of(&json) {
            self.absorb_ledger(cumulative);
        }
        decode(&resp, json)
    }

    /// One charged `/site/*` call (query, page, ordered page). The charge
    /// the response reports — on success and typed failure alike: a
    /// truncated page is billed even though it failed — is recorded on the
    /// calling thread's meter, together with any lost charges this
    /// response is the first quiet moment to account for (module docs).
    fn charged_call(&self, target: &str, body: &[u8]) -> Result<Json, ServerError> {
        self.book().in_flight += 1;
        let outcome = round_trip(self.addr, "POST", target, &[], body)
            .and_then(|resp| parse_json_body(&resp).map(|json| (resp, json)));
        let ledgers = outcome.as_ref().ok().and_then(|(_, json)| ledgers_of(json));
        let bill = {
            let mut book = self.book();
            book.in_flight -= 1;
            ledgers.map(|(cumulative, charged)| (cumulative, book.settle(cumulative, charged)))
        };
        if let Some((cumulative, bill)) = bill {
            self.absorb_ledger(cumulative);
            meter::record_paid(bill);
        }
        let (resp, json) = outcome?;
        decode(&resp, json)
    }
}

fn same_bits(a: &Tuple, b: &Tuple) -> bool {
    a.id == b.id
        && a.cats() == b.cats()
        && a.ords().len() == b.ords().len()
        && a.ords()
            .iter()
            .zip(b.ords())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A `/site/*` body, or the typed error it carries.
fn decode(resp: &Response, json: Json) -> Result<Json, ServerError> {
    if resp.status == 200 {
        Ok(json)
    } else {
        Err(decode_error_body(resp, &json))
    }
}

/// Decode a non-200 response into the exact [`ServerError`] the far side
/// raised, falling back to a transient error for unparsable bodies.
fn decode_error(resp: &Response) -> ServerError {
    match parse_json_body(resp) {
        Ok(json) => decode_error_body(resp, &json),
        Err(e) => e,
    }
}

fn decode_error_body(resp: &Response, json: &Json) -> ServerError {
    if let Some(e) = json.get("error") {
        if let Ok(err) = wire::server_error_from_json(e) {
            return err;
        }
        // Not the /site vocabulary (e.g. a front-door admission body):
        // classify by status below.
    }
    match resp.status {
        429 => {
            let hint = resp
                .header("retry-after")
                .and_then(|s| s.parse::<u64>().ok())
                .map(|secs| secs * 1000);
            ServerError::RateLimited {
                retry_after_ms: hint,
            }
        }
        400 => ServerError::invalid_query(format!("edge refused the request ({})", resp.status)),
        _ => transport_err(format!("status {}", resp.status)),
    }
}

impl SearchInterface for HttpSiteAdapter {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn k(&self) -> usize {
        self.k
    }

    fn capabilities(&self) -> Capabilities {
        self.capabilities.clone()
    }

    fn query(&self, q: &Query) -> Result<QueryResponse, ServerError> {
        let body = Json::obj(vec![("query", wire::query_to_json(q))]).encode();
        let json = self.charged_call("/site/query", body.as_bytes())?;
        self.decode_response(&json)
    }

    fn queries_issued(&self) -> u64 {
        self.queries.load(Ordering::SeqCst)
    }

    fn cost_units_issued(&self) -> u64 {
        self.cost_units.load(Ordering::SeqCst)
    }

    fn query_page(&self, q: &Query, page: usize) -> Result<QueryResponse, ServerError> {
        let body = Json::obj(vec![
            ("query", wire::query_to_json(q)),
            ("page", Json::u64(page as u64)),
        ])
        .encode();
        let json = self.charged_call("/site/page", body.as_bytes())?;
        self.decode_response(&json)
    }

    fn query_ordered(
        &self,
        q: &Query,
        attr: AttrId,
        dir: Direction,
        page: usize,
    ) -> Result<OrderedPage, ServerError> {
        let body = Json::obj(vec![
            ("query", wire::query_to_json(q)),
            ("attr", Json::u64(attr.0 as u64)),
            (
                "dir",
                Json::str(match dir {
                    Direction::Asc => "asc",
                    Direction::Desc => "desc",
                }),
            ),
            ("page", Json::u64(page as u64)),
        ])
        .encode();
        let json = self.charged_call("/site/ordered", body.as_bytes())?;
        let mut page = json
            .get("page")
            .ok_or_else(|| transport_err("missing 'page'"))
            .and_then(|p| wire::ordered_page_from_json(p).map_err(transport_err))?;
        self.intern(&mut page.tuples);
        Ok(page)
    }

    fn mutation_seq(&self) -> u64 {
        // Watermark reads are metadata and uncharged; a transport fault
        // here reports "nothing new" rather than failing the caller (the
        // trait method is infallible), matching the frozen-site default.
        match self.site_call("GET", "/site/seq", b"") {
            Ok(json) => json.get("seq").and_then(Json::as_u64).unwrap_or(0),
            Err(_) => self.seq_at_connect,
        }
    }

    fn mutations_since(&self, since: u64) -> Result<MutationLog, ServerError> {
        let json = self.site_call("GET", &format!("/site/mutations?since={since}"), b"")?;
        json.get("log")
            .ok_or_else(|| transport_err("missing 'log'"))
            .and_then(|l| wire::mutation_log_from_json(l).map_err(transport_err))
    }
}

// ------------------------------------------------------------ front door

/// One decoded `/v1/rerank` outcome: hit tuples with their ranks and
/// scores, the exact per-session ledger, and the typed error code if the
/// request stopped early.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// `(rank, score, tuple)` triples, in emission order.
    pub hits: Vec<(usize, f64, qrs_types::Tuple)>,
    /// Raw queries this request was charged.
    pub queries_spent: u64,
    /// Weighted cost units this request was charged.
    pub cost_units_spent: u64,
    /// Queries the knowledge plane answered for free.
    pub queries_saved: u64,
    /// The stable error code (`"budget_exhausted"`, `"cancelled"`, …) if
    /// the request stopped early; `None` on success.
    pub error_code: Option<String>,
}

/// A decoded `/v1/rerank` reply: per-request outcomes plus the tenant's
/// cumulative ledger after charging.
#[derive(Debug, Clone)]
pub struct WireBatchReply {
    /// One outcome per request, in request order.
    pub outcomes: Vec<WireOutcome>,
    /// The tenant's cumulative `(queries, cost_units)` after this batch.
    pub tenant: (u64, u64),
}

/// A front-door client for `/v1/rerank` and `/stats` — what a remote user
/// of the reranking service holds.
pub struct EdgeClient {
    addr: SocketAddr,
    tenant: String,
}

/// A front-door failure: either a typed admission refusal (with its
/// reason and retry hint) or any other error, flattened to a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeClientError {
    /// The edge refused the batch at the admission gate; nothing was
    /// charged.
    Rejected {
        /// `"capacity"` or `"tenant_budget"`.
        reason: String,
        /// The refusal's `retry_after_ms` hint.
        retry_after_ms: Option<u64>,
    },
    /// Transport or protocol failure, described.
    Failed(String),
}

impl std::fmt::Display for EdgeClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeClientError::Rejected {
                reason,
                retry_after_ms,
            } => write!(f, "admission refused ({reason}, hint {retry_after_ms:?})"),
            EdgeClientError::Failed(m) => write!(f, "edge call failed: {m}"),
        }
    }
}

impl std::error::Error for EdgeClientError {}

impl EdgeClient {
    /// A client for the edge at `addr`, identifying as `tenant`.
    pub fn new(addr: SocketAddr, tenant: impl Into<String>) -> Self {
        EdgeClient {
            addr,
            tenant: tenant.into(),
        }
    }

    /// Serve one batch. `requests` is the raw wire array — build each
    /// element with [`EdgeClient::request`].
    pub fn rerank(&self, requests: Vec<Json>) -> Result<WireBatchReply, EdgeClientError> {
        let body = Json::obj(vec![("requests", Json::Arr(requests))]).encode();
        let headers = vec![("x-tenant".to_string(), self.tenant.clone())];
        let resp = round_trip(self.addr, "POST", "/v1/rerank", &headers, body.as_bytes())
            .map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        let json = parse_json_body(&resp).map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        if resp.status == 429 {
            let e = json.get("error");
            return Err(EdgeClientError::Rejected {
                reason: e
                    .and_then(|e| e.get("reason"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                retry_after_ms: e
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_u64),
            });
        }
        if resp.status != 200 {
            return Err(EdgeClientError::Failed(format!(
                "status {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            )));
        }
        let outcomes = json
            .get("outcomes")
            .and_then(Json::as_arr)
            .ok_or_else(|| EdgeClientError::Failed("missing 'outcomes'".into()))?
            .iter()
            .map(decode_outcome)
            .collect::<Result<Vec<_>, EdgeClientError>>()?;
        let tenant = json
            .get("tenant")
            .and_then(|t| wire::ledger_from_json(t).ok())
            .map(|l| (l.queries, l.cost_units))
            .ok_or_else(|| EdgeClientError::Failed("missing 'tenant' ledger".into()))?;
        Ok(WireBatchReply { outcomes, tenant })
    }

    /// Build one wire request: a query, a linear rank (`[[attr, "asc"|"desc",
    /// weight]]`), and `top`, plus optional knobs (pass `None` to omit).
    pub fn request(
        query: &Query,
        rank: &[(usize, Direction, f64)],
        top: usize,
        budget: Option<u64>,
        tie: Option<&str>,
        horizon: Option<usize>,
    ) -> Json {
        let mut members = vec![
            ("query", wire::query_to_json(query)),
            (
                "rank",
                Json::Arr(
                    rank.iter()
                        .map(|(a, d, w)| {
                            Json::Arr(vec![
                                Json::u64(*a as u64),
                                Json::str(match d {
                                    Direction::Asc => "asc",
                                    Direction::Desc => "desc",
                                }),
                                Json::Num(*w),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("top", Json::u64(top as u64)),
        ];
        if let Some(b) = budget {
            members.push(("budget", Json::u64(b)));
        }
        if let Some(t) = tie {
            members.push(("tie", Json::str(t)));
        }
        if let Some(h) = horizon {
            members.push(("horizon", Json::u64(h as u64)));
        }
        Json::obj(members)
    }

    /// Fetch `/stats` as parsed JSON.
    pub fn stats(&self) -> Result<Json, EdgeClientError> {
        let resp = round_trip(self.addr, "GET", "/stats", &[], b"")
            .map_err(|e| EdgeClientError::Failed(e.to_string()))?;
        if resp.status != 200 {
            return Err(EdgeClientError::Failed(format!("status {}", resp.status)));
        }
        parse_json_body(&resp).map_err(|e| EdgeClientError::Failed(e.to_string()))
    }
}

fn decode_outcome(v: &Json) -> Result<WireOutcome, EdgeClientError> {
    let bad = |m: &str| EdgeClientError::Failed(format!("bad outcome: {m}"));
    let hits = v
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing hits"))?
        .iter()
        .map(|h| {
            let rank = h
                .get("rank")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing rank"))?;
            let score = h
                .get("score")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("missing score"))?;
            let tuple = h
                .get("tuple")
                .ok_or_else(|| bad("missing tuple"))
                .and_then(|t| wire::tuple_from_json(t).map_err(|e| bad(&e)))?;
            Ok((rank, score, tuple))
        })
        .collect::<Result<Vec<_>, EdgeClientError>>()?;
    let stats = v.get("stats").ok_or_else(|| bad("missing stats"))?;
    let field = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(WireOutcome {
        hits,
        queries_spent: field("queries_spent"),
        cost_units_spent: field("cost_units_spent"),
        queries_saved: field("queries_saved"),
        error_code: v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrs_types::OrdinalAttr;

    /// An adapter that never touches the network (ledger bookkeeping only).
    fn offline_adapter() -> HttpSiteAdapter {
        HttpSiteAdapter {
            addr: SocketAddr::from(([127, 0, 0, 1], 9)),
            schema: Arc::new(Schema::new(vec![OrdinalAttr::new("x", 0.0, 1.0)], vec![])),
            k: 1,
            capabilities: Capabilities::none(),
            seq_at_connect: 0,
            queries: AtomicU64::new(0),
            cost_units: AtomicU64::new(0),
            book: Mutex::new(ChargeBook::default()),
            tuples: Mutex::new(HashMap::new()),
        }
    }

    #[test]
    fn a_lost_charge_goes_to_the_first_caller_alone_in_flight() {
        let mut book = ChargeBook {
            in_flight: 2,
            attributed: Ledger::new(10, 30),
        };
        // Two calls out; an earlier one (1 query, 5 units) was billed but
        // its response lost. The first to return is not alone: it pays
        // only its own charge.
        book.in_flight -= 1;
        assert_eq!(
            book.settle(Ledger::new(13, 39), Ledger::new(1, 2)),
            Ledger::new(1, 2)
        );
        // The second returns with nothing else in flight: the gap can only
        // be the lost charge, and it is billed here, once.
        book.in_flight -= 1;
        assert_eq!(
            book.settle(Ledger::new(13, 39), Ledger::new(1, 2)),
            Ledger::new(2, 7)
        );
        assert_eq!(book.attributed, Ledger::new(13, 39));
        // A stale cumulative reading settles nothing extra.
        assert_eq!(
            book.settle(Ledger::new(12, 37), Ledger::new(0, 0)),
            Ledger::new(0, 0)
        );
        assert_eq!(book.attributed, Ledger::new(13, 39));
    }

    #[test]
    fn repeated_tuples_share_one_allocation_until_updated() {
        let adapter = offline_adapter();
        let decoded = |x: f64| Arc::new(Tuple::new(TupleId(7), vec![x], vec![]));
        let mut first = vec![decoded(0.5)];
        let mut again = vec![decoded(0.5)];
        adapter.intern(&mut first);
        adapter.intern(&mut again);
        assert!(Arc::ptr_eq(&first[0], &again[0]));
        // An update under the same id is a different tuple: it is kept,
        // and replaces the held copy for later answers.
        let mut updated = vec![decoded(0.25)];
        adapter.intern(&mut updated);
        assert_eq!(updated[0].ord(qrs_types::AttrId(0)), 0.25);
        let mut later = vec![decoded(0.25)];
        adapter.intern(&mut later);
        assert!(Arc::ptr_eq(&updated[0], &later[0]));
    }

    #[test]
    fn ledger_mirror_never_moves_back() {
        let adapter = offline_adapter();
        adapter.absorb_ledger(Ledger::new(9, 30));
        // An older cumulative reading arriving late, as overlapping calls
        // make routine.
        adapter.absorb_ledger(Ledger::new(7, 25));
        assert_eq!(adapter.queries_issued(), 9);
        assert_eq!(adapter.cost_units_issued(), 30);
    }
}
