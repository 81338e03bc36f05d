//! Seeded input generation: the dataset behind the site, the requests the
//! clients send, and the writes `churn` applies. Everything here is a pure
//! function of the workload and the seed; the program under test only ever
//! sees the generated requests and writes.

use query_reranking::datagen::synthetic::uniform;
use query_reranking::datagen::workload::{md_workload, WorkloadConfig};
use query_reranking::edge::{EdgeClient, Json};
use query_reranking::ranking::{LinearRank, RankFn};
use query_reranking::service::BatchRequest;
use query_reranking::types::{Dataset, Direction, Query, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Tuples in the hidden database.
pub const N: usize = 5_000;
/// Ordinal attributes: 2–3 of them rank; a 2-attribute rank leaves one
/// free for a range filter.
pub const ORDINALS: usize = 3;
/// Categorical attributes the anchored filters pick from (4 values each).
pub const CATEGORICALS: usize = 2;
/// The site's top-k interface size.
pub const K: usize = 20;
/// Hits each request asks for.
pub const TOP: usize = 10;
/// Size of `warm_replay`'s Zipf-popular request set.
pub const POPULAR: usize = 64;
/// Zipf exponent over the popular set.
pub const ZIPF_S: f64 = 1.0;
/// `warm_replay`: every this-many-th request is a never-seen one, so the
/// site currency stays measurable (and nonzero) on a warm plane.
pub const FRESH_EVERY: usize = 128;
/// `churn`: reads between two consecutive site writes.
pub const READS_PER_WRITE: usize = 20;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct requests through a remote site (loopback adapter + WAN sleep).
    ColdRemote,
    /// A Zipf-popular set replayed against a warmed knowledge plane.
    WarmReplay,
    /// One client: distinct reads with a site write every few reads.
    Churn,
}

impl Workload {
    /// Every workload this benchmark can run.
    pub const ALL: [Workload; 3] = [Workload::ColdRemote, Workload::WarmReplay, Workload::Churn];

    /// Parse the `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` and the command line use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRemote => "cold_remote",
            Workload::WarmReplay => "warm_replay",
            Workload::Churn => "churn",
        }
    }

    /// Closed-loop clients the timed window runs.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdRemote | Workload::WarmReplay => 2,
            Workload::Churn => 1,
        }
    }

    /// Equal sub-windows a timed window is split into (see
    /// `Window::summary`). Each holds at least 200 reads at the current
    /// rates over a 10 s run, so its p95 has 10 beyond it; `cold_remote`
    /// reads a few hundred in a run, so it stays one window.
    pub fn sub_windows(self) -> usize {
        match self {
            Workload::ColdRemote => 1,
            Workload::WarmReplay => 10,
            Workload::Churn => 5,
        }
    }

    /// Upper bound on operations one second of the workload can consume;
    /// sizes the pre-generated sequence far beyond any realistic rate.
    fn ops_per_second_cap(self) -> usize {
        match self {
            Workload::ColdRemote => 500,
            Workload::WarmReplay => 20_000,
            Workload::Churn => 3_000,
        }
    }
}

/// One `/v1/rerank` request, kept in the form the oracle needs.
#[derive(Debug, Clone)]
pub struct Req {
    /// The selection.
    pub query: Query,
    /// Linear rank terms `(attribute, direction, weight)`.
    pub terms: Vec<(usize, Direction, f64)>,
    /// Hits asked for.
    pub top: usize,
}

impl Req {
    /// The wire element for `EdgeClient::rerank`.
    pub fn wire(&self) -> Json {
        EdgeClient::request(&self.query, &self.terms, self.top, None, None, None)
    }

    /// The ranking function the edge builds from the same terms.
    pub fn rank(&self) -> Arc<dyn RankFn> {
        Arc::new(LinearRank::new(
            self.terms
                .iter()
                .map(|&(a, d, w)| (query_reranking::types::AttrId(a), d, w))
                .collect(),
        ))
    }

    /// The in-process twin of [`Req::wire`].
    pub fn batch(&self) -> BatchRequest {
        BatchRequest::new(self.query.clone(), self.rank(), self.top)
    }
}

/// One site write (`churn` only).
#[derive(Debug, Clone)]
pub enum Write {
    /// `SimServer::insert` of a fresh id.
    Insert(Tuple),
    /// `SimServer::update` of a live id.
    Update(Tuple),
    /// `SimServer::delete` of a live id.
    Delete(TupleId),
}

/// One step of a client's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Send `reqs[i]`.
    Read(usize),
    /// Apply `writes[i]` to the site.
    Write(usize),
}

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which mix.
    pub workload: Workload,
    /// The hidden database at set-up.
    pub data: Dataset,
    /// Seed of the site's proprietary ranking.
    pub system_rank_seed: u64,
    /// Distinct requests; `Op::Read` indexes here.
    pub reqs: Vec<Req>,
    /// Site writes; `Op::Write` indexes here.
    pub writes: Vec<Write>,
    /// The script the clients consume, in order, from a shared cursor.
    pub ops: Vec<Op>,
    /// Requests served in-process during set-up to warm the plane.
    pub warm: Vec<usize>,
}

/// SplitMix64 finalizer: decorrelates the sub-seeds drawn from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn requests(data: &Dataset, count: usize, seed: u64) -> Vec<Req> {
    let cfg = WorkloadConfig {
        num_queries: count,
        seed,
        ..WorkloadConfig::default()
    };
    md_workload(data, &cfg)
        .into_iter()
        .map(|uq| Req {
            terms: uq
                .rank
                .attrs()
                .iter()
                .zip(uq.rank.weights())
                .map(|(a, &w)| (a.0, Direction::Asc, w))
                .collect(),
            query: uq.query,
            top: TOP,
        })
        .collect()
}

/// Inverse-CDF sampler over ranks `0..n` with `P(i) ∝ 1/(i+1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn random_tuple(rng: &mut StdRng, id: u32) -> Tuple {
    Tuple::new(
        TupleId(id),
        (0..ORDINALS).map(|_| rng.random::<f64>()).collect(),
        (0..CATEGORICALS)
            .map(|_| rng.random_range(0..4u32))
            .collect(),
    )
}

/// Site writes cycling insert → update → delete over the live id set, so
/// the database size stays within one tuple of `N`.
fn writes(count: usize, seed: u64) -> Vec<Write> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u32> = (0..N as u32).collect();
    let mut next_id = N as u32;
    (0..count)
        .map(|i| match i % 3 {
            0 => {
                live.push(next_id);
                next_id += 1;
                Write::Insert(random_tuple(&mut rng, next_id - 1))
            }
            1 => {
                let id = live[rng.random_range(0..live.len())];
                Write::Update(random_tuple(&mut rng, id))
            }
            _ => {
                let id = live.swap_remove(rng.random_range(0..live.len()));
                Write::Delete(TupleId(id))
            }
        })
        .collect()
}

impl Inputs {
    /// The inputs of `workload` under `seed`, sized for a window of
    /// `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let data = uniform(N, ORDINALS, CATEGORICALS, mix(seed, 1));
        let budget = (seconds.max(1.0) * workload.ops_per_second_cap() as f64) as usize;
        let mut rng = StdRng::seed_from_u64(mix(seed, 2));
        let zipf = Zipf::new(POPULAR, ZIPF_S);
        let (reqs, writes_, ops, warm) = match workload {
            Workload::ColdRemote => {
                let reqs = requests(&data, budget, mix(seed, 3));
                let ops = (0..reqs.len()).map(Op::Read).collect();
                (reqs, Vec::new(), ops, Vec::new())
            }
            Workload::WarmReplay => {
                let fresh = budget / FRESH_EVERY + 1;
                let mut reqs = requests(&data, POPULAR, mix(seed, 3));
                reqs.extend(requests(&data, fresh, mix(seed, 4)));
                let ops = (0..budget)
                    .map(|i| {
                        if i % FRESH_EVERY == FRESH_EVERY - 1 {
                            Op::Read(POPULAR + i / FRESH_EVERY)
                        } else {
                            Op::Read(zipf.draw(&mut rng))
                        }
                    })
                    .collect();
                (reqs, Vec::new(), ops, (0..POPULAR).collect())
            }
            Workload::Churn => {
                let n_writes = budget / (READS_PER_WRITE + 1) + 1;
                let reqs = requests(&data, n_writes * READS_PER_WRITE, mix(seed, 3));
                let mut ops = Vec::with_capacity(reqs.len() + n_writes);
                for w in 0..n_writes {
                    ops.extend((0..READS_PER_WRITE).map(|r| Op::Read(w * READS_PER_WRITE + r)));
                    ops.push(Op::Write(w));
                }
                (reqs, writes(n_writes, mix(seed, 5)), ops, Vec::new())
            }
        };
        Inputs {
            workload,
            data,
            system_rank_seed: mix(seed, 6),
            reqs,
            writes: writes_,
            ops,
            warm,
        }
    }

    /// For each op, how many writes precede it: the dataset snapshot a
    /// read at that position is served against.
    pub fn snapshots(&self) -> Vec<usize> {
        let mut seen = 0;
        self.ops
            .iter()
            .map(|op| {
                let here = seen;
                if let Op::Write(_) = op {
                    seen += 1;
                }
                here
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_the_head() {
        let z = Zipf::new(POPULAR, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; POPULAR];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[POPULAR - 1]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn writes_keep_the_size_near_n_and_target_live_ids() {
        let mut live: std::collections::BTreeSet<u32> = (0..N as u32).collect();
        for w in writes(300, 9) {
            match w {
                Write::Insert(t) => assert!(live.insert(t.id.0)),
                Write::Update(t) => assert!(live.contains(&t.id.0)),
                Write::Delete(id) => assert!(live.remove(&id.0)),
            }
            assert!(live.len().abs_diff(N) <= 1);
        }
    }
}
