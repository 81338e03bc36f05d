//! Shared middleware state and the handle every algorithm reaches it
//! through.
//!
//! One [`SharedState`] generation lives until the site's data changes and
//! is threaded through every algorithm invocation: the history and the
//! dense indexes are deliberately *cross-user-query* structures (the
//! amortization arguments of §3.2.2 and §4.4 depend on it).
//!
//! ## Locking: one guard per access, never across a site call
//!
//! Algorithms hold a [`StateHandle`] — a cheap clone of one generation's
//! `Arc<Mutex<SharedState>>` plus its immutable [`RerankParams`] — and touch
//! the state only inside [`StateHandle::read`] / [`StateHandle::write`]
//! closures. The guard lives exactly as long as the closure, so a lock is
//! held while knowledge is read or merged and released before the next
//! `SearchInterface` call: sessions of one service wait on the site side
//! by side instead of in turn. A read that combines two structures — "is
//! this region complete?" then "which known tuples lie in it?" — happens
//! inside *one* closure, so both answers describe the same moment.
//!
//! ## Why dropping the guard between accesses is safe: monotone growth
//!
//! Within one generation the state only grows. History gains tuples, the
//! complete-region registry gains regions (its FIFO cap forgets old ones,
//! which costs queries, never correctness), a dense interval's crawl
//! frontier only advances and a crawled box is only ever added. Every fact
//! the state holds describes the one data snapshot the generation was
//! built for. So a conclusion drawn under one guard — "no known tuple lies
//! below this candidate", "this region is fully known" — stays true after
//! the guard is dropped, and later reads can only add knowledge. Two
//! sessions racing on the same region can at worst both pay for the same
//! fetch; neither can read a torn or shrunken state.
//!
//! ## Generations: one per step, swapped on data change
//!
//! The service pins a generation per strategy step: the step clones the
//! current handle once and uses it throughout. When the site's mutation
//! feed moves past the snapshot the state describes, the service swaps in
//! a fresh, empty generation for later steps instead of clearing the old
//! one in place. A step in flight across the swap keeps writing into the
//! generation it pinned — knowledge about the old snapshot, discarded with
//! it — and never sees a mix of two generations.

use crate::history::{CompleteRegions, History};
use crate::index::dense1d::Dense1D;
use crate::index::densemd::DenseMd;
use crate::params::RerankParams;
use qrs_types::{Query, QueryResponse, Schema};
use std::sync::{Arc, Mutex, PoisonError};

/// History + complete-region registry + dense indexes: everything learned
/// about one snapshot of the hidden database.
#[derive(Debug)]
pub struct SharedState {
    /// Every tuple ever observed in a server response, indexed per
    /// ordinal attribute.
    pub history: History,
    /// Regions proven complete (query answered without overflow).
    pub complete: CompleteRegions,
    /// The §3.2.2 on-the-fly dense index (1D).
    pub dense1d: Dense1D,
    /// The §4.4 on-the-fly dense index (MD boxes).
    pub densemd: DenseMd,
}

impl SharedState {
    /// Fresh, empty state for a database with `schema`.
    pub fn new(schema: &Schema) -> Self {
        SharedState {
            history: History::new(schema.num_ordinal()),
            complete: CompleteRegions::default(),
            dense1d: Dense1D::default(),
            densemd: DenseMd::default(),
        }
    }

    /// Record a server response: tuples go to history; valid/underflow
    /// responses register the query as a complete region.
    pub fn absorb(&mut self, q: &Query, resp: &QueryResponse) {
        self.history.record_response(resp);
        if !resp.is_overflow() {
            self.complete.register(q.clone());
        }
    }

    /// Drop the complete-region registry (emptiness proofs), keeping tuples
    /// and the dense indexes.
    ///
    /// The paper's "leveraging history" (§3.1.1) carries *tuples* across
    /// user queries; completeness knowledge is exactly what its on-the-fly
    /// indexes add. Persisting the registry is a strict improvement this
    /// library makes by default, but the figure experiments call this
    /// between user queries to reproduce the paper's cost model — see
    /// EXPERIMENTS.md. It breaks the monotone-growth rule, so call it only
    /// while no algorithm is running on the generation.
    pub fn forget_complete_regions(&mut self) {
        self.complete = CompleteRegions::default();
    }
}

/// One generation of [`SharedState`] behind its mutex, plus the tuning
/// parameters it was built with. Cloning shares the generation.
///
/// Every algorithm in this crate takes `&StateHandle`; single-threaded
/// callers build one with [`StateHandle::new`] and pass it exactly like the
/// service does. See the module docs for the locking rules.
#[derive(Debug, Clone)]
pub struct StateHandle {
    state: Arc<Mutex<SharedState>>,
    params: RerankParams,
}

impl StateHandle {
    /// A fresh, empty generation for a database with `schema`, tuned by
    /// `params`.
    pub fn new(schema: &Schema, params: RerankParams) -> Self {
        StateHandle {
            state: Arc::new(Mutex::new(SharedState::new(schema))),
            params,
        }
    }

    /// The tuning parameters this generation was built with. Immutable, so
    /// reading them takes no lock.
    pub fn params(&self) -> &RerankParams {
        &self.params
    }

    /// Read the state under one guard, released when `f` returns.
    pub fn read<R>(&self, f: impl FnOnce(&SharedState) -> R) -> R {
        f(&self.lock())
    }

    /// Merge into the state under one guard, released when `f` returns.
    pub fn write<R>(&self, f: impl FnOnce(&mut SharedState) -> R) -> R {
        f(&mut self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedState> {
        // Poison is shrugged off: a read closure that panicked (a user
        // ranking function, say) changed nothing, and merges only insert —
        // the one failure that could interrupt an insert, allocation,
        // aborts instead of unwinding.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
