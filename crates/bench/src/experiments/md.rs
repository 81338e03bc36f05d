//! Figures 13–15: the MD offline experiments over the DOT stand-in (§6.3.1).

use crate::experiments::one_d::{sr1, sr2};
use crate::runner::{md_cost_curve, md_top_h_cost};
use crate::{print_figure, Scale, Series};
use qrs_core::{MdAlgo, RerankParams, StateHandle};
use qrs_datagen::{flights, md_workload, WorkloadConfig};
use qrs_server::{SimServer, SystemRank};

fn workload_cfg(scale: Scale, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        num_queries: scale.md_queries(),
        no_filter_fraction: 0.25,
        rank_attrs: 2..=3,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Shared body of Figs 13/14: avg top-1 query cost vs database size for the
/// four MD algorithms.
fn n_sweep(scale: Scale, sys: &dyn Fn() -> SystemRank) -> Vec<Series> {
    let k = 10;
    let mut series: Vec<Series> = MdAlgo::ALL.iter().map(|a| Series::new(a.label())).collect();
    for &n in &scale.n_sweep() {
        let mut sums = vec![0.0f64; MdAlgo::ALL.len()];
        let mut counts = vec![0usize; MdAlgo::ALL.len()];
        for sample in 0..scale.samples() {
            let data = flights(n, 5_000 + sample as u64);
            let workload = md_workload(&data, &workload_cfg(scale, 200 + sample as u64));
            for (ai, &algo) in MdAlgo::ALL.iter().enumerate() {
                let server = SimServer::new(data.clone(), sys(), k);
                let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(n, k));
                for uq in &workload {
                    sums[ai] += md_top_h_cost(&server, &st, uq, algo, 1)
                        .expect("offline sim server does not fail")
                        as f64;
                    counts[ai] += 1;
                }
            }
        }
        for (ai, s) in series.iter_mut().enumerate() {
            s.push(n as f64, sums[ai] / counts[ai] as f64);
        }
    }
    series
}

/// Fig. 13 — MD, impact of n under SR1.
pub fn fig13(scale: Scale) -> Vec<Series> {
    let s = n_sweep(scale, &sr1);
    print_figure("Fig 13 - MD query cost vs n (SR1, top-1, k=10)", "n", &s);
    s
}

/// Fig. 14 — MD, impact of n under SR2 (anti-correlated).
pub fn fig14(scale: Scale) -> Vec<Series> {
    let s = n_sweep(scale, &sr2);
    print_figure("Fig 14 - MD query cost vs n (SR2, top-1, k=10)", "n", &s);
    s
}

/// Fig. 15 — MD-RERANK, cumulative cost of top-1..10 vs system-k.
pub fn fig15(scale: Scale) -> Vec<Series> {
    let n = scale.fixed_n();
    let data = flights(n, 6_000);
    let workload = md_workload(&data, &workload_cfg(scale, 300));
    let mut series = Vec::new();
    for &k in &[1usize, 4, 7, 10] {
        let server = SimServer::new(data.clone(), sr1(), k);
        let st = StateHandle::new(data.schema(), RerankParams::paper_defaults(n, k));
        let mut acc = [0.0f64; 10];
        for uq in &workload {
            let curve = md_cost_curve(&server, &st, uq, MdAlgo::Rerank, 10)
                .expect("offline sim server does not fail");
            for (i, a) in acc.iter_mut().enumerate() {
                *a += curve.get(i).or(curve.last()).copied().unwrap_or(0) as f64;
            }
        }
        let mut s = Series::new(format!("system-k={k}"));
        for (i, a) in acc.iter().enumerate() {
            s.push((i + 1) as f64, a / workload.len() as f64);
        }
        series.push(s);
    }
    print_figure(
        "Fig 15 - MD-RERANK cumulative query cost for top-1..10 vs system-k (SR1)",
        "top-h",
        &series,
    );
    series
}
