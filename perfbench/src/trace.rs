//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Spans come only from the benchmark's own wrappers around the layers'
//! public calls: the counting proxies in front of each edge, the
//! [`crate::stack::Site`] and [`crate::stack::Adapter`] decorators, and
//! `SessionBuilder`/`Session` calls timed in an in-process replay of the
//! run's script. Phases, each on a freshly built stack:
//!
//! 1. `untraced` — the timed run's window, the baseline for overhead;
//! 2. `one_client` — the same window at one client (two-client mixes),
//!    for `service.scaling_2v1`;
//! 3. `traced` — the window with proxies and decorators recording;
//! 4. `batch_replay` — the untraced window's script through
//!    `RerankService::serve_batch` in-process, for the edge overhead;
//! 5. `session_replay` — the same script through `SessionBuilder::plan`,
//!    `SessionBuilder::open` and `Session::next`, for the service spans.
//!
//! Every phase's answers go through the correctness gate.

use crate::drive::{self, percentile, Replies};
use crate::gate::{check_answers, check_window, Oracle, Verdict};
use crate::gen::{Inputs, Op};
use crate::stack::{site_ns_on_this_thread, Shape, Stack};
use query_reranking::edge::{parse, wire, Json};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports.
pub struct Outcome {
    /// Every metric the run emits.
    pub metrics: Vec<Metric>,
    /// Every phase's gate verdict, by phase name.
    pub verdicts: Vec<(&'static str, Verdict)>,
    /// Reads attempted over all phases.
    pub attempted: u64,
    /// Reads failed over all phases.
    pub failed: u64,
}

fn per(x: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Service spans of one in-process replay.
#[derive(Default)]
struct Spans {
    reads: usize,
    plan_ns: u64,
    open_ns: u64,
    pulls: u64,
    pull_self_ns: u64,
}

fn ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replay script positions `0..ops` in-process with `threads` threads
/// sharing a cursor, as the clients did. With `sessions`, each read runs
/// through the session API under spans; otherwise through `serve_batch`.
fn replay(
    stack: &Stack,
    inputs: &Inputs,
    ops: usize,
    threads: usize,
    sessions: bool,
) -> (Replies, Vec<f64>, Spans) {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new((Replies::default(), Vec::new(), Spans::default()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut replies = Replies::with_capacity(ops);
                let (mut lat, mut spans) = (Vec::with_capacity(ops), Spans::default());
                loop {
                    let op = cursor.fetch_add(1, Ordering::SeqCst);
                    if op >= ops {
                        break;
                    }
                    let req = match inputs.ops[op] {
                        Op::Write(w) => {
                            drive::apply(&stack.sim, &inputs.writes[w]);
                            continue;
                        }
                        Op::Read(r) => r,
                    };
                    let t0 = Instant::now();
                    if sessions {
                        session_read(stack, inputs, op, req, &mut spans, &mut replies);
                    } else {
                        batch_read(stack, inputs, op, req, &mut replies);
                    }
                    lat.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                let mut all = out.lock().expect("replay lock poisoned");
                all.0.merge(replies);
                all.1.extend(lat);
                let s = &mut all.2;
                s.reads += spans.reads;
                s.plan_ns += spans.plan_ns;
                s.open_ns += spans.open_ns;
                s.pulls += spans.pulls;
                s.pull_self_ns += spans.pull_self_ns;
            });
        }
    });
    out.into_inner().expect("replay lock poisoned")
}

fn batch_read(stack: &Stack, inputs: &Inputs, op: usize, req: usize, out: &mut Replies) {
    let mut outcomes = stack
        .front
        .serve_batch(&stack.exec, vec![inputs.reqs[req].batch()]);
    let o = outcomes.pop().expect("one request, one outcome");
    out.push(
        op,
        req,
        o.hits
            .iter()
            .map(|h| (h.tuple.id.0, h.score.to_bits()))
            .collect(),
        (
            o.stats.queries_spent,
            o.stats.cost_units_spent,
            o.stats.queries_saved,
        ),
        o.error.map(|e| e.to_string()),
    );
}

fn session_read(
    stack: &Stack,
    inputs: &Inputs,
    op: usize,
    req: usize,
    spans: &mut Spans,
    out: &mut Replies,
) {
    let r = &inputs.reqs[req];
    spans.reads += 1;
    let t0 = Instant::now();
    let plan = stack.front.session(r.query.clone(), r.rank()).plan();
    spans.plan_ns += ns(t0);
    if let Err(e) = plan {
        return out.push(op, req, Vec::new(), (0, 0, 0), Some(e.to_string()));
    }
    let t0 = Instant::now();
    let session = stack.front.session(r.query.clone(), r.rank()).open();
    spans.open_ns += ns(t0);
    let mut session = match session {
        Ok(s) => s,
        Err(e) => return out.push(op, req, Vec::new(), (0, 0, 0), Some(e.to_string())),
    };
    let mut hits = Vec::with_capacity(r.top);
    let mut error = None;
    while hits.len() < r.top {
        let (t0, site0) = (Instant::now(), site_ns_on_this_thread());
        let next = session.next();
        let total = ns(t0);
        spans.pulls += 1;
        spans.pull_self_ns += total.saturating_sub(site_ns_on_this_thread() - site0);
        match next {
            Ok(Some(h)) => hits.push((h.tuple.id.0, h.score.to_bits())),
            Ok(None) => break,
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    out.push(
        op,
        req,
        hits,
        (
            session.queries_spent(),
            session.cost_units_spent(),
            session.queries_saved(),
        ),
        error,
    );
}

/// Mean codec time per captured exchange, microseconds: the client's
/// request encode, the edge's request parse and wire decode, the edge's
/// response encode, and the client's response parse and tuple decode.
fn codec_us(captured: &[(Vec<u8>, Vec<u8>)]) -> f64 {
    let mut total_ns = 0u64;
    let mut n = 0usize;
    for (req, resp) in captured {
        let (Ok(req), Ok(resp)) = (std::str::from_utf8(req), std::str::from_utf8(resp)) else {
            continue;
        };
        let t0 = Instant::now();
        let (Ok(rj), Ok(sj)) = (parse(req), parse(resp)) else {
            continue;
        };
        for r in rj.get("requests").and_then(Json::as_arr).unwrap_or(&[]) {
            black_box(r.get("query").map(wire::query_from_json));
        }
        for o in sj.get("outcomes").and_then(Json::as_arr).unwrap_or(&[]) {
            for h in o.get("hits").and_then(Json::as_arr).unwrap_or(&[]) {
                black_box(h.get("tuple").map(wire::tuple_from_json));
            }
        }
        black_box(rj.encode());
        black_box(sj.encode());
        total_ns += ns(t0);
        n += 1;
    }
    per(total_ns as f64 / 1e3, n)
}

/// Run every phase and derive the per-layer metrics.
pub fn run(inputs: &Inputs, seconds: f64) -> std::io::Result<Outcome> {
    let w = inputs.workload;
    let (clients, slices) = (w.clients(), w.sub_windows());
    let snapshots = inputs.snapshots();
    let mut oracle = Oracle::new(inputs);
    let mut verdicts = Vec::new();
    let mut phases: Vec<Replies> = Vec::new();

    let stack = Stack::build(inputs, Shape::Wire, false)?;
    let untraced = drive::run(&stack, inputs, clients, seconds);
    stack.shutdown();
    verdicts.push(("untraced", check_window(&mut oracle, &untraced, &snapshots)));

    let scaling = if clients > 1 {
        let stack = Stack::build(inputs, Shape::Wire, false)?;
        let one = drive::run(&stack, inputs, 1, seconds);
        stack.shutdown();
        verdicts.push(("one_client", check_window(&mut oracle, &one, &snapshots)));
        let ratio =
            untraced.summary(seconds, slices).throughput / one.summary(seconds, slices).throughput;
        phases.push(one.replies);
        ratio
    } else {
        0.0
    };

    let stack = Stack::build(inputs, Shape::Wire, true)?;
    let plane0 = stack.plane.stats();
    let traced = drive::run(&stack, inputs, clients, seconds);
    let plane1 = stack.plane.stats();
    let (history, _, boxes) = stack.front.knowledge();
    let site = stack.site_trace.as_ref().expect("traced stack");
    let site_calls = site.calls.load(Ordering::Relaxed);
    let site_scan_ns = site.scan_ns.load(Ordering::Relaxed);
    let site_delay_ns = site.delay_ns.load(Ordering::Relaxed);
    let front = stack.front_proxy.as_ref().expect("traced stack").stats();
    let front_connects = front.connects.load(Ordering::Relaxed);
    let front_bytes = front.bytes.load(Ordering::Relaxed);
    let captured = front.take_captured();
    let adapter = stack.adapter_trace.as_ref().map(|a| {
        (
            a.query_calls.load(Ordering::Relaxed),
            a.seq_polls.load(Ordering::Relaxed),
            a.feed_calls.load(Ordering::Relaxed),
            a.ns.load(Ordering::Relaxed),
        )
    });
    let adapter_connects = stack
        .adapter_proxy
        .as_ref()
        .map_or(0, |p| p.stats().connects.load(Ordering::Relaxed));
    stack.shutdown();
    verdicts.push(("traced", check_window(&mut oracle, &traced, &snapshots)));

    let ops = untraced.ops;
    let stack = Stack::build(inputs, Shape::InProcess, false)?;
    let (batch_replies, batch_lat, _) = replay(&stack, inputs, ops, clients, false);
    stack.shutdown();
    verdicts.push((
        "batch_replay",
        check_answers(&mut oracle, &batch_replies, &snapshots),
    ));

    let stack = Stack::build(inputs, Shape::InProcess, true)?;
    let (session_replies, _, spans) = replay(&stack, inputs, ops, clients, true);
    stack.shutdown();
    verdicts.push((
        "session_replay",
        check_answers(&mut oracle, &session_replies, &snapshots),
    ));

    let reqs = traced.replies.len();
    let spent: u64 = traced.replies.list.iter().map(|r| r.spent).sum();
    let saved: u64 = traced.replies.list.iter().map(|r| r.saved).sum();
    let (q_calls, seq_polls, feed_calls, adapter_ns) = adapter.unwrap_or((0, 0, 0, 0));
    let adapter_calls = q_calls + seq_polls + feed_calls;
    let rtt_us = per(
        adapter_ns.saturating_sub(site_scan_ns + site_delay_ns) as f64 / 1e3,
        adapter_calls as usize,
    );
    let base = untraced.summary(seconds, slices);
    // Both sides pooled over the whole script, so like is compared with like.
    let wire_lat: Vec<f64> = untraced.samples.iter().map(|&(_, ms)| ms).collect();
    let metrics = vec![
        (
            "edge.front.connects_per_req",
            per(front_connects as f64, reqs),
            "count",
        ),
        (
            "edge.front.bytes_per_req",
            per(front_bytes as f64, reqs),
            "B",
        ),
        ("edge.front.codec_us_per_req", codec_us(&captured), "us"),
        (
            "edge.front.overhead_ms_per_req",
            percentile(&wire_lat, 50.0) - percentile(&batch_lat, 50.0),
            "ms",
        ),
        (
            "edge.adapter.query_calls_per_req",
            per(q_calls as f64, reqs),
            "count",
        ),
        (
            "edge.adapter.seq_polls_per_req",
            per(seq_polls as f64, reqs),
            "count",
        ),
        (
            "edge.adapter.connects_per_req",
            per(adapter_connects as f64, reqs),
            "count",
        ),
        ("edge.adapter.rtt_us_per_call", rtt_us, "us"),
        (
            "service.plan_us_per_req",
            per(spans.plan_ns as f64 / 1e3, spans.reads),
            "us",
        ),
        (
            "service.open_us_per_req",
            per(spans.open_ns as f64 / 1e3, spans.reads),
            "us",
        ),
        (
            "service.pull_self_ms_per_req",
            per(spans.pull_self_ns as f64 / 1e6, spans.reads),
            "ms",
        ),
        (
            "service.pulls_per_req",
            per(spans.pulls as f64, spans.reads),
            "count",
        ),
        ("service.scaling_2v1", scaling, "ratio"),
        (
            "knowledge.hit_ratio",
            per(saved as f64, (saved + spent) as usize),
            "ratio",
        ),
        (
            "knowledge.misses_per_req",
            per((plane1.misses - plane0.misses) as f64, reqs),
            "count",
        ),
        (
            "knowledge.result_hits_per_req",
            per((plane1.result_hits - plane0.result_hits) as f64, reqs),
            "count",
        ),
        ("core.history_tuples", history as f64, "count"),
        ("core.dense_boxes", boxes as f64, "count"),
        ("site.calls_per_req", per(site_calls as f64, reqs), "count"),
        (
            "site.scan_us_per_call",
            per(site_scan_ns as f64 / 1e3, site_calls as usize),
            "us",
        ),
        (
            "site.delay_ms_per_req",
            per(site_delay_ns as f64 / 1e6, reqs),
            "ms",
        ),
        (
            "trace.overhead_pct",
            (base.throughput / traced.summary(seconds, slices).throughput - 1.0) * 100.0,
            "%",
        ),
    ];
    phases.push(untraced.replies);
    phases.push(traced.replies);
    phases.push(batch_replies);
    phases.push(session_replies);
    Ok(Outcome {
        metrics,
        verdicts,
        attempted: phases.iter().map(|r| r.len() as u64).sum(),
        failed: phases.iter().map(Replies::failed).sum(),
    })
}
