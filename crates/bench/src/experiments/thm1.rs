//! Theorem 1 made executable: the adversarial server forces any reranking
//! algorithm to spend at least `n/k` queries to certify a 1D top-1.

use crate::{print_figure, Scale, Series};
use qrs_core::one_d::primitives::{next_above, OneDSpec};
use qrs_core::{OneDStrategy, RerankParams, StateHandle};
use qrs_server::{AdversaryServer, SearchInterface};
use qrs_types::{AttrId, Direction, Query};

/// Run every 1D strategy against the adversary for several k; print observed
/// cost against the `n/k` lower bound.
pub fn run(scale: Scale) -> Vec<Series> {
    let n = match scale {
        Scale::Quick => 500,
        Scale::Paper => 5_000,
    };
    let mut bound = Series::new("n/k lower bound");
    let mut series: Vec<Series> = OneDStrategy::ALL
        .iter()
        .map(|s| Series::new(s.label()))
        .collect();
    for &k in &[1usize, 2, 5, 10] {
        bound.push(k as f64, (n / k) as f64);
        for (si, &strategy) in OneDStrategy::ALL.iter().enumerate() {
            let adv = AdversaryServer::new(0.0, 1.0, n, k);
            let st = StateHandle::new(adv.schema(), RerankParams::paper_defaults(n, k));
            let spec = OneDSpec::new(AttrId(0), Direction::Asc, Query::all());
            let t = next_above(&adv, &st, &spec, strategy, f64::NEG_INFINITY, None)
                .expect("the adversary server does not fail");
            assert!(t.is_some(), "adversary database is non-empty");
            series[si].push(k as f64, adv.queries_issued() as f64);
        }
    }
    let mut all = vec![bound];
    all.extend(series);
    print_figure(
        &format!("Theorem 1 - queries to certify a 1D top-1 against the adversary (n={n})"),
        "k",
        &all,
    );
    all
}
