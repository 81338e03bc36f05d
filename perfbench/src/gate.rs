//! The correctness gate, run after the timed window.
//!
//! * Every reply must equal the dense oracle — tuple ids and score bit
//!   patterns — on the dataset snapshot it was served against (the writes
//!   that preceded it in the script).
//! * Ledger conservation: the summed per-request `queries_spent` (and cost
//!   units) equal the site's counter delta, and the tenant ledgers equal
//!   that sum.
//!
//! Per-request ledgers are *not* compared across runs: under two clients
//! sharing history they depend on the schedule.

use crate::drive::{Replies, Window};
use crate::gen::{Inputs, Write};
use query_reranking::types::{Dataset, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense top-`top` answers per `(snapshot, request)`, computed on demand.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    snapshots: Vec<Dataset>,
    answers: HashMap<(usize, usize), Vec<(u32, u64)>>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `inputs`' dataset and writes.
    pub fn new(inputs: &'a Inputs) -> Oracle<'a> {
        Oracle {
            inputs,
            snapshots: vec![inputs.data.clone()],
            answers: HashMap::new(),
        }
    }

    fn snapshot(&mut self, writes: usize) -> &Dataset {
        while self.snapshots.len() <= writes {
            let last = self.snapshots.last().expect("snapshot 0 exists");
            let mut tuples: Vec<Arc<Tuple>> = last.tuples().to_vec();
            match &self.inputs.writes[self.snapshots.len() - 1] {
                Write::Insert(t) => tuples.push(Arc::new(t.clone())),
                Write::Update(t) => {
                    let slot = tuples.iter_mut().find(|e| e.id == t.id);
                    *slot.expect("update of a live id") = Arc::new(t.clone());
                }
                Write::Delete(id) => tuples.retain(|e| e.id != *id),
            }
            let next = Dataset::from_shared(Arc::clone(last.schema()), tuples);
            self.snapshots.push(next);
        }
        &self.snapshots[writes]
    }

    /// The exact answer to `req` after `writes` scripted writes.
    pub fn answer(&mut self, writes: usize, req: usize) -> &[(u32, u64)] {
        if !self.answers.contains_key(&(writes, req)) {
            let r = &self.inputs.reqs[req];
            let rank = r.rank();
            let data = self.snapshot(writes);
            let want = data
                .rank_by(&r.query, |t| rank.score(t))
                .iter()
                .take(r.top)
                .map(|t| (t.id.0, rank.score(t).to_bits()))
                .collect();
            self.answers.insert((writes, req), want);
        }
        &self.answers[&(writes, req)]
    }
}

/// The gate's verdict on one window.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies checked.
    pub checked: usize,
    /// Replies that differ from the oracle or carry an error.
    pub mismatches: usize,
    /// Human-readable failures (the first few).
    pub failures: Vec<String>,
}

impl Verdict {
    /// Nothing failed.
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && self.failures.is_empty()
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Check replies against the oracle. `snapshots[op]` is the number of
/// writes that preceded script position `op`.
pub fn check_answers(oracle: &mut Oracle<'_>, replies: &Replies, snapshots: &[usize]) -> Verdict {
    let mut v = Verdict::default();
    for r in &replies.list {
        v.checked += 1;
        if let Some(e) = &r.error {
            v.mismatches += 1;
            v.fail(format!("op {} (request {}) failed: {e}", r.op, r.req));
            continue;
        }
        let (got, want) = (replies.hits_of(r), oracle.answer(snapshots[r.op], r.req));
        if got != want {
            v.mismatches += 1;
            v.fail(format!(
                "op {} (request {}) differs from the oracle: got {:?}, want {:?}",
                r.op, r.req, got, want
            ));
        }
    }
    v
}

/// Check a wire window: answers plus ledger conservation.
pub fn check_window(oracle: &mut Oracle<'_>, w: &Window, snapshots: &[usize]) -> Verdict {
    let mut v = check_answers(oracle, &w.replies, snapshots);
    let spent: u64 = w.replies.list.iter().map(|r| r.spent).sum();
    let cost: u64 = w.replies.list.iter().map(|r| r.cost).sum();
    if (spent, cost) != w.site {
        v.fail(format!(
            "ledger: requests were charged {spent} queries / {cost} units, \
             the site counted {} / {}",
            w.site.0, w.site.1
        ));
    }
    if (spent, cost) != w.tenant {
        v.fail(format!(
            "ledger: requests were charged {spent} queries / {cost} units, \
             the tenant ledgers hold {} / {}",
            w.tenant.0, w.tenant.1
        ));
    }
    v
}
