//! Micro-benchmarks: middleware wall time per Get-Next.
//!
//! The paper's cost metric is server queries, which the `figures` binary
//! measures; these benches cover the complementary question of how much CPU
//! the middleware itself burns per primitive (contour solving, box splitting,
//! history probing), which matters for an actual service deployment.
//!
//! Dependency-free harness (`harness = false`, no registry access for
//! criterion): each benchmark runs a warm-up pass then reports the mean and
//! minimum wall time over a fixed number of timed iterations. Run with
//! `cargo bench -p qrs-bench`.

use qrs_core::md::ta::{SortedAccess, TaCursor};
use qrs_core::{MdAlgo, MdCursor, MdOptions, OneDCursor, OneDStrategy, RerankParams, StateHandle};
use qrs_datagen::synthetic::{clustered, correlated, uniform};
use qrs_ranking::{LinearRank, RankFn};
use qrs_server::{SearchInterface, SimServer, SystemRank};
use qrs_types::{AttrId, Direction, Query};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 5_000;
const K: usize = 10;
const WARMUP: usize = 3;
const ITERS: usize = 20;

/// Time `f` over `ITERS` iterations after `WARMUP` discarded ones and print
/// one report line. The closure is re-invoked per iteration (cold state per
/// run, like criterion's `iter_batched`).
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..WARMUP {
        f();
    }
    let mut total = Duration::ZERO;
    let mut best = Duration::MAX;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        total += dt;
        best = best.min(dt);
    }
    let mean = total / ITERS as u32;
    println!("{name:<40} mean {mean:>12.2?}   min {best:>12.2?}   ({ITERS} iters)");
}

fn one_d_top1() {
    let data = uniform(N, 2, 1, 71);
    let server = SimServer::new(data.clone(), SystemRank::by_attr_desc(AttrId(0)), K);
    for strategy in OneDStrategy::ALL {
        bench(&format!("one_d_top1/{}", strategy.label()), || {
            let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(N, K));
            let mut cur = OneDCursor::over(AttrId(0), Direction::Asc, Query::all(), strategy);
            black_box(cur.next(&server, &st).expect("sim server does not fail"));
        });
    }
}

fn md_top1() {
    let data = correlated(N, -0.8, 73);
    let sys = SystemRank::linear("anti", vec![(AttrId(0), -1.0), (AttrId(1), -1.0)]);
    let server = SimServer::new(data.clone(), sys, K);
    let rank: Arc<dyn RankFn> = Arc::new(LinearRank::asc(vec![(AttrId(0), 1.0), (AttrId(1), 1.0)]));
    for algo in [MdAlgo::Baseline, MdAlgo::Binary, MdAlgo::Rerank] {
        let opts = match algo {
            MdAlgo::Baseline => MdOptions::baseline(),
            MdAlgo::Binary => MdOptions::binary(),
            _ => MdOptions::rerank(),
        };
        bench(&format!("md_top1_anticorrelated/{}", algo.label()), || {
            let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(N, K));
            let mut cur = MdCursor::new(Arc::clone(&rank), Query::all(), opts, server.schema());
            black_box(cur.next(&server, &st).expect("sim server does not fail"));
        });
    }
    bench("md_top1_anticorrelated/TA over 1D-RERANK", || {
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(N, K));
        let mut cur = TaCursor::new(
            Arc::clone(&rank),
            Query::all(),
            SortedAccess::OneD(OneDStrategy::Rerank),
            server.schema(),
        );
        black_box(cur.next(&server, &st).expect("sim server does not fail"));
    });
}

fn dense_index_hit() {
    // Warm the dense index once, then measure the indexed lookup path.
    let data = clustered(N, 1, 2, 0.002, 79);
    let server = SimServer::new(data.clone(), SystemRank::by_attr_desc(AttrId(0)), K);
    let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(N, K));
    let mut warm = OneDCursor::over(
        AttrId(0),
        Direction::Asc,
        Query::all(),
        OneDStrategy::Rerank,
    );
    for _ in 0..20 {
        warm.next(&server, &st).expect("sim server does not fail");
    }
    bench("one_d_rerank_warm_next", || {
        let mut cur = OneDCursor::over(
            AttrId(0),
            Direction::Asc,
            Query::all(),
            OneDStrategy::Rerank,
        );
        black_box(cur.next(&server, &st).expect("sim server does not fail"));
    });
}

fn contour_solvers() {
    let rank = LinearRank::asc(vec![
        (AttrId(0), 0.3),
        (AttrId(1), 0.9),
        (AttrId(2), 0.5),
        (AttrId(3), 0.7),
    ]);
    let lo = [0.0; 4];
    let hi = [1.0; 4];
    let witness = [0.6, 0.6, 0.6, 0.6];
    bench("contour_point_4d", || {
        for _ in 0..1000 {
            black_box(rank.contour_point(&lo, &hi, black_box(1.1)));
        }
    });
    bench("corner_4d", || {
        for _ in 0..1000 {
            black_box(rank.corner(&witness, black_box(1.0), &lo));
        }
    });
    bench("ell_4d", || {
        for _ in 0..1000 {
            black_box(rank.ell(2, black_box(1.0), &lo, 1.0));
        }
    });
}

fn main() {
    println!("# qrs micro-benchmarks (n={N}, k={K})");
    one_d_top1();
    md_top1();
    dense_index_hit();
    contour_solvers();
}
