//! What `serve` and `net` share: the seeded query streams their clients
//! submit, the optimizer configuration behind both, and the answer check
//! against each query optimized alone in a fresh session.

use crate::report::{Digest, SpaceCounters};
use mpq_catalog::fault::query_digest;
use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::prelude::*;
use mpq_net::wire::PlanSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// The sharded sessions `serve` and `net` optimize through.
pub type Sessions<'m> = ShardedSession<'m, GridSpace, CloudCostModel>;

/// Concurrent clients (the machine has 2 cores).
pub const CLIENTS: usize = 2;

/// Shards of the in-process service and shard servers of the network.
pub const SHARDS: usize = 2;

/// Queries each client answers during set-up, before timing starts.
pub const WARMUP_PER_CLIENT: usize = 16;

/// The seed of the warm-up streams. It is fixed, so set-up does the same
/// work whatever `--seed` is and `setup_s` moves only with the program.
pub const WARMUP_SEED: u64 = 0x5e7;

/// Queries per generated family: a base query and variants that share
/// its tables with the stream's overlap probability.
const FAMILY: usize = 8;

/// Every session runs sequentially; parallelism is across shards and
/// clients only. The space has the one parameter dimension every query
/// of the streams has.
pub fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

/// Entry bound of each session's lift and subtree caches. A family's
/// shared subplans need a few dozen entries; unbounded caches grow by
/// about 40 MB a second under `serve`.
const CACHE_CAPACITY: usize = 1024;

/// The configuration of every serving session: default caches, bounded.
pub fn session_config() -> SessionConfig {
    SessionConfig::new(opt_config())
        .with_cache_capacity(CACHE_CAPACITY)
        .with_subtree_cache(Some(CACHE_CAPACITY))
}

/// The space every session is built over.
pub fn space(model: &CloudCostModel) -> GridSpace {
    GridSpace::for_unit_box(1, &opt_config(), model.num_metrics()).expect("grid space")
}

/// The points at which answers are summarized and compared.
pub fn probes() -> Vec<Vec<f64>> {
    [[0.0], [0.15], [0.5], [0.85], [1.0]]
        .iter()
        .map(|p| p.to_vec())
        .collect()
}

/// The query shapes (tables, topology) of the families, taken in turn:
/// every four families hold each shape once, so a stretch of the stream
/// costs about the same whatever the seed.
const SHAPES: [(usize, Topology); 4] = [
    (4, Topology::Chain),
    (5, Topology::Star),
    (5, Topology::Chain),
    (4, Topology::Star),
];

/// One client's seeded query stream: families of 4–5-table chain/star
/// queries with 1 parameter, drawn lazily so a faster system can
/// answer more of it. Queries of one family share tables with
/// probability `overlap`; families are independent.
pub struct Stream {
    seed: u64,
    overlap: f64,
    family_no: u64,
    family: Vec<Query>,
}

impl Stream {
    pub fn new(seed: u64, client: usize, overlap: f64) -> Self {
        Self {
            seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (client as u64) << 56,
            overlap,
            family_no: 0,
            family: Vec::new(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        if self.family.is_empty() {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.family_no));
            let (tables, topology) = SHAPES[self.family_no as usize % SHAPES.len()];
            self.family_no += 1;
            let cfg = WorkloadConfig::uniform(
                GeneratorConfig::paper(tables, topology, 1),
                FAMILY,
                self.overlap,
            );
            self.family = generate_workload(&cfg, &mut rng).queries;
            self.family.reverse();
        }
        self.family.pop().expect("a freshly generated family")
    }
}

/// The space counters summed over every shard.
pub fn space_total(sessions: &Sessions<'_>) -> SpaceCounters {
    let mut total = SpaceCounters::default();
    for i in 0..sessions.num_shards() {
        let space = sessions.shard(i).space();
        total.add(&SpaceCounters {
            lp: space.lp_ctx().fastpath_breakdown(),
            emptiness: space.emptiness_counters(),
        });
    }
    total
}

/// Runs one thread per client, each calling `step` in a closed loop
/// until it has made `count` steps or, when `until` is set, until that
/// instant has passed. Returns every step's result.
pub fn closed_loop<C: Send, A: Send>(
    clients: &mut [C],
    count: usize,
    until: Option<Instant>,
    step: impl Fn(&mut C) -> A + Sync,
) -> Vec<A> {
    let step = &step;
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while until.map_or(out.len() < count, |t| Instant::now() < t) {
                        out.push(step(client));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// An answer's digest: final plan count and the frontier cost vectors at
/// every probe point, as f64 bit patterns.
pub fn summary_digest(s: &PlanSummary) -> u64 {
    let mut d = Digest::default();
    d.word(s.final_plan_count);
    for frontier in &s.frontiers {
        d.word(frontier.len() as u64);
        d.costs(frontier.iter().map(|(_, c)| c));
    }
    d.0
}

/// The digest of each distinct query (by `query_digest`) optimized alone
/// in a fresh session, computed on [`CLIENTS`] threads.
pub fn reference_digests<'q>(
    queries: impl IntoIterator<Item = &'q Query>,
    model: &CloudCostModel,
) -> HashMap<u64, u64> {
    let mut distinct: HashMap<u64, &Query> = HashMap::new();
    for q in queries {
        distinct.entry(query_digest(q)).or_insert(q);
    }
    let work: Vec<(u64, &Query)> = distinct.into_iter().collect();
    let probes = probes();
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(work.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                let probes = &probes;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(key, q)| {
                            let session = OptimizerSession::new(space(model), model, opt_config());
                            let solution = session.optimize(q);
                            (
                                *key,
                                summary_digest(&PlanSummary::of(
                                    session.space(),
                                    &solution,
                                    probes,
                                )),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker"))
            .collect()
    })
}
