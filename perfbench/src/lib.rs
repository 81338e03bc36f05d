//! Wire-level benchmark of the reranking service.
//!
//! Seeded workloads drive the service from outside, through
//! `EdgeClient` → `EdgeServer` (`/v1/rerank`); every answer is checked
//! against a dense oracle and every ledger against the site's counter.
//! See `README.md` in this directory for the workloads and metrics.

pub mod drive;
pub mod gate;
pub mod gen;
pub mod proxy;
pub mod stack;
pub mod sys;
pub mod trace;
