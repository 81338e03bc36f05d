//! The 1D on-the-fly dense-region index (Algorithm 4).
//!
//! An indexed interval `⟨Ai, dir, (x, y)⟩` stores the tuples discovered inside
//! it together with a *crawl frontier*: every tuple whose normalized value
//! lies in `[x, frontier]` is known. The [`oracle`] extends the frontier with
//! 1D-BASELINE steps **without the user's selection condition** — the paper's
//! deliberate choice (§3.2.2) that makes one crawl serve every future user
//! query touching the region. Tie slabs are collected exactly, so the
//! frontier invariant survives duplicate attribute values.

use crate::ctx::StateHandle;
use crate::one_d::primitives::{baseline_next_above, OneDSpec};
use qrs_server::SearchInterface;
use qrs_types::value::OrdF64;
use qrs_types::{meter, AttrId, Direction, Query, RerankError, Tuple, TupleId};
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// One indexed dense region on a (attribute, direction) axis.
#[derive(Debug)]
pub struct DenseInterval {
    /// Normalized range `[x, y)` this entry covers: the lower end.
    pub x: f64,
    /// The (exclusive) upper end of the covered range.
    pub y: f64,
    /// All values `v ∈ [x, frontier]` are fully crawled (`None` = nothing
    /// crawled yet).
    frontier: Option<f64>,
    /// The whole range is fully crawled.
    complete: bool,
    /// Discovered tuples keyed by (normalized value, id).
    tuples: BTreeMap<(OrdF64, TupleId), Arc<Tuple>>,
}

impl DenseInterval {
    fn new(x: f64, y: f64) -> Self {
        DenseInterval {
            x,
            y,
            frontier: None,
            complete: false,
            tuples: BTreeMap::new(),
        }
    }

    /// Number of tuples discovered in the region so far.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when nothing has been discovered in the region yet.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True when the whole range `[x, y)` has been crawled.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Move the crawl frontier forward to `v` — never back: a racing
    /// session may already have crawled past it.
    fn advance_frontier(&mut self, v: f64) {
        self.frontier = Some(self.frontier.map_or(v, |f| f.max(v)));
    }

    /// Smallest (value, id) tuple in `[lo, hi)` matching `sel` *provably*:
    /// only certain if its value is within the crawled frontier.
    fn certain_min(&self, lo: f64, hi: f64, sel: &Query, spec: &OneDSpec) -> Option<Arc<Tuple>> {
        let limit = if self.complete {
            f64::INFINITY
        } else {
            self.frontier?
        };
        self.tuples
            .range((OrdF64(lo), TupleId(0))..)
            .map(|(_, t)| t)
            .take_while(|t| {
                let v = spec.nval(t);
                v < hi && v <= limit
            })
            .find(|t| sel.matches(t))
            .cloned()
    }
}

/// The per-axis index: a list of intervals per (attribute, direction).
#[derive(Debug, Default)]
pub struct Dense1D {
    map: HashMap<(AttrId, Direction), Vec<DenseInterval>>,
    /// Total crawl queries spent building the index (for experiments).
    pub build_cost: u64,
}

impl Dense1D {
    /// Number of indexed intervals across all axes.
    pub fn num_intervals(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Total tuples stored.
    pub fn num_tuples(&self) -> usize {
        self.map
            .values()
            .flat_map(|v| v.iter())
            .map(DenseInterval::len)
            .sum()
    }

    fn entry_covering(
        &mut self,
        attr: AttrId,
        dir: Direction,
        x: f64,
        y: f64,
    ) -> &mut DenseInterval {
        let list = self.map.entry((attr, dir)).or_default();
        if let Some(i) = list.iter().position(|d| d.x <= x && y <= d.y) {
            &mut list[i]
        } else {
            list.push(DenseInterval::new(x, y));
            list.last_mut().unwrap()
        }
    }
}

/// Algorithm 4: resolve "smallest matching tuple with normalized value in
/// `[x, y)`" through the index, crawling (selection-free) as needed.
/// Returns `Ok(None)` when the range holds no matching tuple. On a server
/// failure the crawl frontier keeps everything confirmed so far, so a retry
/// resumes rather than restarts.
///
/// The state lock is taken per phase, never across the crawl step: a
/// concurrent session may advance the same interval meanwhile, so merges
/// only ever add tuples and move the frontier forward.
pub fn oracle(
    server: &dyn SearchInterface,
    st: &StateHandle,
    spec: &OneDSpec,
    x: f64,
    y: f64,
) -> Result<Option<Arc<Tuple>>, RerankError> {
    if x >= y {
        return Ok(None);
    }
    let generic = OneDSpec::new(spec.attr, spec.dir, Query::all());
    loop {
        // Phase 1: a certain answer from the stored tuples, or the frontier
        // to crawl from.
        let (dy, after) = match st.write(|s| {
            let d = s.dense1d.entry_covering(spec.attr, spec.dir, x, y);
            if let Some(t) = d.certain_min(x, y, &spec.sel, spec) {
                return ControlFlow::Break(Some(t));
            }
            let limit = if d.complete {
                f64::INFINITY
            } else {
                d.frontier.unwrap_or(f64::NEG_INFINITY)
            };
            if d.complete || limit >= y {
                return ControlFlow::Break(None); // fully crawled, no match in [x, y)
            }
            // Include the boundary x itself: start one ULP below.
            ControlFlow::Continue((d.y, d.frontier.unwrap_or(d.x.next_down())))
        }) {
            ControlFlow::Continue(step) => step,
            ControlFlow::Break(answer) => return Ok(answer),
        };
        // Phase 2: extend the frontier one slab, unlocked.
        let before = meter::charges().paid;
        let crawled =
            baseline_next_above(server, st, &generic, after, Some(dy)).and_then(|found| {
                // Collect the whole tie slab at the found value (selection-free)
                // so the frontier invariant holds with duplicates.
                let slab = match &found {
                    Some(t) => {
                        crate::one_d::cursor::gather_slab(server, st, &generic, spec.nval(t))?
                    }
                    None => Vec::new(),
                };
                Ok((found.map(|t| spec.nval(&t)), slab))
            });
        let cost = (meter::charges().paid - before).queries;
        st.write(|s| {
            s.dense1d.build_cost += cost;
            let (found, slab) = crawled?;
            let d = s.dense1d.entry_covering(spec.attr, spec.dir, x, y);
            match found {
                None => {
                    d.complete = true;
                    d.advance_frontier(dy);
                }
                Some(v) => {
                    debug_assert!(v > after && v < dy, "crawl step left ({after}, {dy})");
                    for t in slab {
                        d.tuples.insert((OrdF64(spec.nval(&t)), t.id), t);
                    }
                    d.advance_frontier(v);
                }
            }
            Ok::<(), RerankError>(())
        })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RerankParams;
    use qrs_datagen::synthetic::clustered;
    use qrs_server::{SimServer, SystemRank};

    fn setup(k: usize) -> (SimServer, StateHandle) {
        let data = clustered(800, 1, 2, 0.004, 21);
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(800, k));
        // Adversarial system ranking: descending attr for ascending users.
        let server = SimServer::new(data, SystemRank::by_attr_desc(AttrId(0)), k);
        (server, st)
    }

    #[test]
    fn oracle_finds_minimum_in_range_and_reuses_index() {
        let (server, st) = setup(5);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        let truth = |x: f64, y: f64| {
            server
                .dataset()
                .tuples()
                .iter()
                .map(|t| t.ord(AttrId(0)))
                .filter(|&v| v >= x && v < y)
                .min_by(f64::total_cmp)
        };
        let t = oracle(&server, &st, &spec, 0.0, 0.5).unwrap().unwrap();
        assert_eq!(Some(t.ord(AttrId(0))), truth(0.0, 0.5));
        // A sub-range lookup afterwards may reuse the same interval's crawl.
        let cost = server.queries_issued();
        let t2 = oracle(&server, &st, &spec, 0.0, t.ord(AttrId(0)).next_up()).unwrap();
        assert!(t2.is_some());
        assert_eq!(server.queries_issued(), cost, "second lookup was free");
    }

    #[test]
    fn oracle_respects_selection() {
        let (server, st) = setup(5);
        let sel = Query::all().and_cat(qrs_types::CatPredicate::eq(qrs_types::CatId(0), 2));
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, sel.clone());
        let got = oracle(&server, &st, &spec, 0.0, 1.1).unwrap();
        let truth = server
            .dataset()
            .tuples()
            .iter()
            .filter(|t| sel.matches(t) && t.ord(AttrId(0)) >= 0.0)
            .map(|t| t.ord(AttrId(0)))
            .min_by(f64::total_cmp);
        assert_eq!(got.map(|t| t.ord(AttrId(0))), truth);
    }

    #[test]
    fn oracle_empty_range_is_none() {
        let (server, st) = setup(5);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        assert!(oracle(&server, &st, &spec, 5.0, 6.0).unwrap().is_none());
        assert!(oracle(&server, &st, &spec, 0.5, 0.5).unwrap().is_none());
    }

    #[test]
    fn index_tracks_build_cost_and_sizes() {
        let (server, st) = setup(5);
        let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
        oracle(&server, &st, &spec, 0.0, 0.3).unwrap();
        assert!(st.read(|s| s.dense1d.num_intervals()) >= 1);
        assert!(st.read(|s| s.dense1d.num_tuples()) >= 1);
        assert!(st.read(|s| s.dense1d.build_cost) > 0);
        assert!(st.read(|s| s.dense1d.build_cost) <= server.queries_issued());
    }
}
