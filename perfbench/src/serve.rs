//! `serve`: a closed loop of [`CLIENTS`] threads through `mpq_service`.
//! Each client submits its next query only after its previous answer
//! arrives. The service batches per shard under a small wall-clock
//! policy and routes by affinity to sessions with lift and subtree
//! caches on; queries overlap heavily, so shared subplans turn most of
//! the work into cache hits and the service's own queueing and batching
//! costs show.

use crate::report::{self, cache_layers, space_layers, Metrics, Slice, SpaceCounters, Tally};
use crate::traffic::{
    self, space_total, Sessions, Stream, CLIENTS, SHARDS, WARMUP_PER_CLIENT, WARMUP_SEED,
};
use crate::Args;
use mpq_catalog::fault::query_digest;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::prelude::*;
use mpq_cost::CacheStats;
use mpq_net::wire::PlanSummary;
use mpq_obs::Obs;
use mpq_service::{serve, BatchPolicy, ServiceConfig, ServiceHandle, ServiceStats};
use std::time::{Duration, Instant};

/// Probability that a query of a family shares each table of its base.
const OVERLAP: f64 = 0.75;

/// Batch trigger: two requests, or the oldest waiting this long.
const MAX_BATCH: usize = 2;
const MAX_WAIT: Duration = Duration::from_millis(1);

type Handle<'a> = ServiceHandle<'a, GridSpace, CloudCostModel>;

/// One answered query.
struct Answer {
    query: Query,
    latency_ms: f64,
    /// The answer's `OptStats`, or why there was no solution.
    result: Result<(OptStats, u64), String>,
}

/// Counters read from the service and its sessions.
struct Snapshot {
    stats: ServiceStats,
    space: SpaceCounters,
}

fn snapshot(handle: &Handle<'_>, sessions: &Sessions<'_>) -> Snapshot {
    Snapshot {
        stats: handle.stats(),
        space: space_total(sessions),
    }
}

/// Runs every client until it has answered `count` queries or, when
/// `until` is set, until that instant has passed.
fn drive(
    handle: &Handle<'_>,
    sessions: &Sessions<'_>,
    streams: &mut [Stream],
    count: usize,
    until: Option<Instant>,
    obs: &Obs,
) -> Vec<Answer> {
    let probes = traffic::probes();
    traffic::closed_loop(streams, count, until, |stream| {
        let query = stream.next_query();
        let start = Instant::now();
        let response = {
            let _span = obs.span("bench_submit");
            handle.submit(query.clone()).wait()
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let result = match (response.outcome.as_ok(), response.route) {
            (Some(solution), Some(route)) => {
                let space = sessions.shard(route.shard).space();
                let summary = PlanSummary::of(space, solution, &probes);
                Ok((solution.stats.clone(), traffic::summary_digest(&summary)))
            }
            _ => Err(format!("answer {:?}", response.kind())),
        };
        Answer {
            query,
            latency_ms,
            result,
        }
    })
}

/// A timed phase with the counters around it.
struct Measured {
    slices: Vec<Slice>,
    answers: Vec<Answer>,
    before: Snapshot,
    after: Snapshot,
}

/// Builds a service and warms it up, then hands `body` a function that
/// runs one timed slice of the given length. Returns the set-up time and
/// the slices `body` ran.
fn instance(
    args: &Args,
    model: &CloudCostModel,
    obs: &Obs,
    body: impl FnOnce(&mut dyn FnMut(f64)),
) -> (f64, Measured) {
    let start = Instant::now();
    let streams = |seed| -> Vec<Stream> {
        (0..CLIENTS)
            .map(|c| Stream::new(seed, c, OVERLAP))
            .collect()
    };
    let (mut warmup, mut streams) = (streams(WARMUP_SEED), streams(args.seed));
    let sessions = ShardedSession::build(SHARDS, model, &traffic::session_config(), || {
        traffic::space(model)
    });
    let mut config = ServiceConfig::new(BatchPolicy::new(MAX_BATCH, MAX_WAIT));
    if obs.enabled() {
        config = config.with_obs(obs.clone());
    }
    let (out, _) = serve(&sessions, config, |handle| {
        drive(
            handle,
            &sessions,
            &mut warmup,
            WARMUP_PER_CLIENT,
            None,
            &Obs::off(),
        );
        let setup_s = start.elapsed().as_secs_f64();
        let before = snapshot(handle, &sessions);
        let (mut slices, mut answers) = (Vec::new(), Vec::new());
        body(&mut |secs| {
            slices.push(report::timed_slice(|| {
                let until = Instant::now() + Duration::from_secs_f64(secs);
                let got = drive(handle, &sessions, &mut streams, 0, Some(until), obs);
                let latencies = got.iter().map(|a| a.latency_ms).collect();
                answers.extend(got);
                latencies
            }));
        });
        let after = snapshot(handle, &sessions);
        let measured = Measured {
            slices,
            answers,
            before,
            after,
        };
        (setup_s, measured)
    });
    out
}

/// Per-layer metrics of a traced phase.
fn layers(m: &mut Metrics, d: &Measured) {
    let stats: Vec<&OptStats> = d
        .answers
        .iter()
        .filter_map(|a| a.result.as_ref().ok())
        .map(|(s, _)| s)
        .collect();
    let n = stats.len() as f64;
    let sum = |f: &dyn Fn(&OptStats) -> u64| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    m.set(
        "core.plans_created",
        report::ratio(sum(&|s| s.plans_created), n),
    );
    m.set(
        "core.plans_pruned",
        report::ratio(sum(&|s| s.plans_pruned), n),
    );
    m.set("lp.solved", report::ratio(sum(&|s| s.lps_solved_query), n));
    let optimize_ms: Vec<f64> = stats
        .iter()
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();
    m.set("core.optimize_ms_p50", report::quantile(&optimize_ms, 0.5));
    let waits: Vec<f64> = d
        .answers
        .iter()
        .filter_map(|a| {
            a.result
                .as_ref()
                .ok()
                .map(|(s, _)| a.latency_ms - s.elapsed.as_secs_f64() * 1e3)
        })
        .collect();
    m.set("service.queue_wait_ms_p50", report::quantile(&waits, 0.5));

    space_layers(&d.after.space.since(&d.before.space), n, m);
    let caches = |s: &ServiceStats| -> Vec<(CacheStats, CacheStats)> {
        s.per_shard.iter().map(|p| (p.cache, p.subtree)).collect()
    };
    cache_layers(m, &caches(&d.before.stats), &caches(&d.after.stats), n);

    let (b, a) = (&d.before.stats, &d.after.stats);
    let batches = (a.batches - b.batches) as f64;
    m.set(
        "service.batch_size_mean",
        report::ratio((a.completed - b.completed) as f64, batches),
    );
    m.set(
        "service.deadline_share",
        report::ratio(
            (a.deadline_triggered - b.deadline_triggered) as f64,
            batches,
        ),
    );
    let per_shard: Vec<f64> = a
        .per_shard
        .iter()
        .zip(&b.per_shard)
        .map(|(a, b)| (a.queries - b.queries) as f64)
        .collect();
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    m.set(
        "service.shard_imbalance",
        report::ratio(max, report::mean(&per_shard)),
    );
}

/// Every answer must equal its query optimized alone in a fresh session.
fn tally(model: &CloudCostModel, runs: &[&Measured]) -> Tally {
    let answers: Vec<&Answer> = runs.iter().flat_map(|r| &r.answers).collect();
    let reference = traffic::reference_digests(answers.iter().map(|a| &a.query), model);
    let mut tally = Tally::default();
    for a in answers {
        tally.record(match &a.result {
            Ok((_, digest)) if reference[&query_digest(&a.query)] == *digest => Ok(()),
            Ok(_) => Err("answer differs from the query optimized alone".to_string()),
            Err(e) => Err(e.clone()),
        });
    }
    tally
}

pub fn run(args: &Args) -> (Tally, bool, Metrics) {
    let model = CloudCostModel::default();
    let off = Obs::off();
    if !args.trace {
        let (setup_s, untraced) = report::median_setup(|last| {
            instance(args, &model, &off, |slice| {
                if last {
                    report::timed_phase(args.seconds, slice)
                }
            })
        });
        let peak = report::peak_rss_mb();
        return (
            tally(&model, &[&untraced]),
            true,
            report::end_to_end(&untraced.slices, setup_s, peak),
        );
    }
    let obs = Obs::wall();
    let mut traced = None;
    let (_, untraced) = instance(args, &model, &off, |untraced| {
        let (_, t) = instance(args, &model, &obs, |traced| {
            report::alternating_phases(args.seconds, untraced, traced)
        });
        traced = Some(t);
    });
    let traced = traced.expect("the traced instance ran");
    let mut m = Metrics::default();
    layers(&mut m, &traced);
    m.set(
        "obs.overhead_pct",
        report::overhead_pct(&untraced.slices, &traced.slices),
    );
    (tally(&model, &[&untraced, &traced]), true, m)
}
