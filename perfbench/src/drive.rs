//! The closed-loop clients: each sends its next request only after the
//! previous reply arrived, taking operations from one shared cursor over
//! the seeded script, until the window closes.

use crate::gen::{Inputs, Op, Write};
use crate::stack::Stack;
use query_reranking::edge::{EdgeClient, EdgeClientError};
use query_reranking::server::{SearchInterface, SimServer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One answered (or failed) read, as the gate checks it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Position in the script.
    pub op: usize,
    /// Which request.
    pub req: usize,
    /// Its hits: an index into [`Replies::answers`].
    pub answer: u32,
    /// Queries this request was charged.
    pub spent: u64,
    /// Cost units this request was charged.
    pub cost: u64,
    /// Queries the plane saved this request.
    pub saved: u64,
    /// Transport failure, admission refusal or typed error code.
    pub error: Option<Box<str>>,
}

/// A reply's hits: `(tuple id, score bits)` in emission order.
pub type Answer = Vec<(u32, u64)>;

/// Replies with their hit lists interned: each distinct answer is kept
/// once, in full, so the benchmark's own memory stays small beside the
/// program's even when a run repeats a few answers tens of thousands of
/// times.
#[derive(Debug, Default)]
pub struct Replies {
    /// The replies.
    pub list: Vec<Reply>,
    /// Distinct answers, by first appearance.
    pub answers: Vec<Answer>,
    index: HashMap<Answer, u32>,
}

impl Replies {
    /// Room for `n` replies.
    pub fn with_capacity(n: usize) -> Replies {
        Replies {
            list: Vec::with_capacity(n),
            ..Replies::default()
        }
    }

    fn intern(&mut self, hits: Answer) -> u32 {
        if let Some(&i) = self.index.get(&hits) {
            return i;
        }
        let i = u32::try_from(self.answers.len()).expect("fewer than 2^32 distinct answers");
        self.answers.push(hits.clone());
        self.index.insert(hits, i);
        i
    }

    /// Record one reply: its hits, its `(spent, cost, saved)` ledger, and
    /// its error if it stopped early.
    pub fn push(
        &mut self,
        op: usize,
        req: usize,
        hits: Answer,
        ledger: (u64, u64, u64),
        error: Option<String>,
    ) {
        let answer = self.intern(hits);
        self.list.push(Reply {
            op,
            req,
            answer,
            spent: ledger.0,
            cost: ledger.1,
            saved: ledger.2,
            error: error.map(String::into_boxed_str),
        });
    }

    /// The hits of `r`.
    pub fn hits_of(&self, r: &Reply) -> &[(u32, u64)] {
        &self.answers[r.answer as usize]
    }

    /// Move `other`'s replies in, then order everything by script position.
    pub fn merge(&mut self, other: Replies) {
        let remap: Vec<u32> = other.answers.into_iter().map(|a| self.intern(a)).collect();
        self.list.extend(other.list.into_iter().map(|mut r| {
            r.answer = remap[r.answer as usize];
            r
        }));
        self.list.sort_by_key(|r| r.op);
    }

    /// Replies recorded.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// No replies recorded.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Replies that carry an error.
    pub fn failed(&self) -> u64 {
        self.list.iter().filter(|r| r.error.is_some()).count() as u64
    }
}

/// What one window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Per read: seconds from the window's start to the reply, and the
    /// latency at the client in milliseconds.
    pub samples: Vec<(f64, f64)>,
    /// Every read, in script order.
    pub replies: Replies,
    /// Writes applied.
    pub writes: usize,
    /// Script positions consumed: every op before this one ran.
    pub ops: usize,
    /// From the first send to the last reply, seconds.
    pub elapsed_s: f64,
    /// The clients ran out of script before the window closed.
    pub exhausted: bool,
    /// Summed final tenant ledgers `(queries, cost units)` of the clients.
    pub tenant: (u64, u64),
    /// Site ledger movement over the window `(queries, cost units)`.
    pub site: (u64, u64),
}

/// Throughput and latency percentiles of a window.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Reads completed per second.
    pub throughput: f64,
    /// Median latency, ms.
    pub p50: f64,
    /// 95th-percentile latency, ms.
    pub p95: f64,
}

impl Window {
    /// Split the first `seconds` into `slices` equal sub-windows by reply
    /// time, take each one's throughput and percentiles, and report the
    /// median over sub-windows. CPU time that other tenants of the machine
    /// take arrives in bursts; one that hits fewer than half of the
    /// sub-windows leaves the result alone, while a trend across the whole
    /// run still shows. Replies after `seconds` (the last in-flight reads)
    /// are left out; a window that ran out of script ends at its last
    /// reply instead.
    pub fn summary(&self, seconds: f64, slices: usize) -> Summary {
        let seconds = if self.exhausted {
            self.elapsed_s.min(seconds)
        } else {
            seconds
        };
        let mut parts = vec![Vec::new(); slices];
        for &(done, ms) in &self.samples {
            let i = (done / seconds * slices as f64) as usize;
            if let Some(part) = parts.get_mut(i) {
                part.push(ms);
            }
        }
        let per = seconds / slices as f64;
        let latency = |p: f64| {
            median(
                parts
                    .iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| percentile(s, p))
                    .collect(),
            )
        };
        Summary {
            throughput: median(parts.iter().map(|s| s.len() as f64 / per).collect()),
            p50: latency(50.0),
            p95: latency(95.0),
        }
    }
}

/// Median (upper middle for an even count); 0 for no values.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Apply one scripted write to the site.
pub fn apply(sim: &SimServer, w: &Write) {
    match w {
        Write::Insert(t) => {
            sim.insert(t.clone())
                .expect("scripted insert uses a fresh id");
        }
        Write::Update(t) => {
            sim.update(t.clone())
                .expect("scripted update targets a live id");
        }
        Write::Delete(id) => {
            sim.delete(*id).expect("scripted delete targets a live id");
        }
    }
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<(f64, f64)>,
    replies: Replies,
    writes: usize,
    tenant: (u64, u64),
    exhausted: bool,
}

fn client_loop(
    stack: &Stack,
    inputs: &Inputs,
    cursor: &AtomicUsize,
    id: usize,
    (start, deadline): (Instant, Instant),
) -> ClientLog {
    let client = EdgeClient::new(stack.client_addr(), format!("client-{id}"));
    let room = inputs.ops.len();
    let mut log = ClientLog {
        samples: Vec::with_capacity(room),
        replies: Replies::with_capacity(room),
        ..ClientLog::default()
    };
    while Instant::now() < deadline {
        let op = cursor.fetch_add(1, Ordering::SeqCst);
        let Some(&step) = inputs.ops.get(op) else {
            log.exhausted = true;
            break;
        };
        let req = match step {
            Op::Write(w) => {
                apply(&stack.sim, &inputs.writes[w]);
                log.writes += 1;
                continue;
            }
            Op::Read(r) => r,
        };
        let body = vec![inputs.reqs[req].wire()];
        let t0 = Instant::now();
        let result = client.rerank(body);
        let done = Instant::now();
        log.samples.push((
            (done - start).as_secs_f64(),
            (done - t0).as_secs_f64() * 1e3,
        ));
        match result {
            Ok(mut batch) => {
                log.tenant = batch.tenant;
                let o = batch.outcomes.pop().expect("one request, one outcome");
                log.replies.push(
                    op,
                    req,
                    o.hits
                        .iter()
                        .map(|(_, score, t)| (t.id.0, score.to_bits()))
                        .collect(),
                    (o.queries_spent, o.cost_units_spent, o.queries_saved),
                    o.error_code,
                );
            }
            Err(e) => log.replies.push(
                op,
                req,
                Vec::new(),
                (0, 0, 0),
                Some(match e {
                    EdgeClientError::Rejected { reason, .. } => format!("rejected: {reason}"),
                    EdgeClientError::Failed(m) => m,
                }),
            ),
        }
    }
    log
}

/// Run `clients` closed-loop clients against `stack` for `seconds`.
pub fn run(stack: &Stack, inputs: &Inputs, clients: usize, seconds: f64) -> Window {
    let cursor = AtomicUsize::new(0);
    let site_before = (stack.sim.queries_issued(), stack.sim.cost_units_issued());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let cursor = &cursor;
                s.spawn(move || client_loop(stack, inputs, cursor, id, (t0, deadline)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut w = Window {
        elapsed_s,
        ops: cursor.load(Ordering::SeqCst).min(inputs.ops.len()),
        site: (
            stack.sim.queries_issued() - site_before.0,
            stack.sim.cost_units_issued() - site_before.1,
        ),
        ..Window::default()
    };
    for log in logs {
        w.samples.extend(log.samples);
        w.replies.merge(log.replies);
        w.writes += log.writes;
        w.tenant.0 += log.tenant.0;
        w.tenant.1 += log.tenant.1;
        w.exhausted |= log.exhausted;
    }
    w
}

/// Nearest-rank percentile of `samples` (`p` in 0..=100); 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }
}
