//! `net`: [`CLIENTS`] threads, each with its own `ShardRouter` over
//! loopback TCP to [`SHARDS`] shard servers (`serve_tcp` around a
//! `ShardServerCore`), so every server holds one live connection per
//! client. Queries overlap little, and about a quarter of submissions
//! replay an earlier query, so the servers' idempotency cache is both
//! written (fresh queries) and read (replays). The per-attempt timeout
//! is far above the slowest query: a healthy run retries nothing.

use crate::report::{self, cache_layers, space_layers, Metrics, Slice, SpaceCounters, Tally};
use crate::traffic::{
    self, space_total, Sessions, Stream, CLIENTS, SHARDS, WARMUP_PER_CLIENT, WARMUP_SEED,
};
use crate::Args;
use mpq_catalog::fault::query_digest;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::prelude::*;
use mpq_core::session::query_affinity;
use mpq_cost::CacheStats;
use mpq_net::router::{NetError, NetTime, RetryPolicy, ShardConn, ShardRouter, StreamConn};
use mpq_net::server::{serve_tcp, ShardServerCore};
use mpq_net::wire::{decode_message, encode_message, Message, WireOutcome};
use mpq_obs::Obs;
use mpq_service::SubmittedQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Probability that a query of a family shares each table of its base.
const OVERLAP: f64 = 0.25;

/// Share of submissions that replay one of the client's earlier queries.
const REPLAY_SHARE: f64 = 0.25;

/// Per-attempt timeout, seconds: far above the slowest query, so only a
/// broken transport can cause a retry.
const ATTEMPT_TIMEOUT: f64 = 60.0;

/// One client's submissions: fresh queries from its stream, or replays.
struct Client {
    stream: Stream,
    history: Vec<Query>,
    rng: StdRng,
}

impl Client {
    fn new(seed: u64, client: usize) -> Self {
        Self {
            stream: Stream::new(seed, client, OVERLAP),
            history: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed ^ (client as u64) << 40),
        }
    }

    /// The next query and whether it replays an earlier one.
    fn next(&mut self) -> (Query, bool) {
        if !self.history.is_empty() && self.rng.gen_bool(REPLAY_SHARE) {
            let i = self.rng.gen_range(0..self.history.len());
            return (self.history[i].clone(), true);
        }
        let q = self.stream.next_query();
        self.history.push(q.clone());
        (q, false)
    }
}

/// One `ShardConn::call` as the traced connection saw it.
struct Call {
    shard: u32,
    /// Obs-clock microseconds, to match the server's span.
    start_us: u64,
    end_us: u64,
    call_ms: f64,
    /// The request and response frames, decoded and timed only after the
    /// timed phase, so the codec timing adds nothing to the call.
    frames: [Vec<u8>; 2],
}

/// A `StreamConn` that, under an enabled obs handle, times each call and
/// keeps the frames it sent and received.
struct TracedConn {
    inner: StreamConn<TcpStream>,
    shard: u32,
    obs: Obs,
    calls: RefCell<Vec<Call>>,
}

/// Times decoding `frame` and encoding the decoded message again.
fn codec(frame: &[u8], obs: &Obs) -> (Option<Message>, f64, f64) {
    let start = Instant::now();
    let msg = {
        let _span = obs.span("bench_decode");
        decode_message(frame).ok()
    };
    let decode_us = start.elapsed().as_secs_f64() * 1e6;
    let start = Instant::now();
    if let Some(m) = &msg {
        let _span = obs.span("bench_encode");
        std::hint::black_box(encode_message(m));
    }
    (msg, decode_us, start.elapsed().as_secs_f64() * 1e6)
}

impl ShardConn for TracedConn {
    fn call(&mut self, frame: &[u8], timeout_secs: f64) -> Result<Vec<u8>, NetError> {
        if !self.obs.enabled() {
            return self.inner.call(frame, timeout_secs);
        }
        let start_us = self.obs.now_us();
        let start = Instant::now();
        let result = {
            let _span = self.obs.span("bench_call");
            self.inner.call(frame, timeout_secs)
        };
        let call_ms = start.elapsed().as_secs_f64() * 1e3;
        let end_us = self.obs.now_us();
        if let Ok(answer) = &result {
            self.calls.get_mut().push(Call {
                shard: self.shard,
                start_us,
                end_us,
                call_ms,
                frames: [frame.to_vec(), answer.clone()],
            });
        }
        result
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
}

/// One resolved submission.
struct Answer {
    query: Query,
    replay: bool,
    dedup: bool,
    latency_ms: f64,
    /// The answer's digest, or why there was no plan set.
    result: Result<u64, String>,
    /// Work counters of the answer (plans created, pruned, LPs solved).
    work: [u64; 3],
}

type Router<'a> = ShardRouter<'a, TracedConn>;

fn router<'a>(addrs: &[SocketAddr], model: &'a CloudCostModel, obs: &Obs) -> Router<'a> {
    let conns = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| TracedConn {
            inner: StreamConn::tcp(*addr, Duration::from_secs(5)),
            shard: i as u32,
            obs: obs.clone(),
            calls: RefCell::new(Vec::new()),
        })
        .collect();
    let policy = RetryPolicy {
        attempt_timeout: ATTEMPT_TIMEOUT,
        ..RetryPolicy::default()
    };
    ShardRouter::new(
        conns,
        move |q| query_affinity(q, model),
        policy,
        NetTime::wall(),
    )
    .with_obs(obs.clone())
}

/// Runs every client until it has submitted `count` queries or, when
/// `until` is set, until that instant has passed.
fn drive(
    routers: &mut [Router<'_>],
    clients: &mut [Client],
    count: usize,
    until: Option<Instant>,
    obs: &Obs,
) -> Vec<Answer> {
    let mut pairs: Vec<_> = routers.iter_mut().zip(clients.iter_mut()).collect();
    traffic::closed_loop(&mut pairs, count, until, |(router, client)| {
        let (query, replay) = client.next();
        let start = Instant::now();
        let response = {
            let _span = obs.span("bench_submit");
            router.submit(SubmittedQuery::new(query.clone()))
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let (result, work) = match &response.outcome {
            WireOutcome::Ok(s) => (
                Ok(traffic::summary_digest(s)),
                [s.plans_created, s.plans_pruned, s.lps_solved_query],
            ),
            other => (Err(format!("answer {}", other.name())), [0; 3]),
        };
        Answer {
            query,
            replay,
            dedup: response.dedup,
            latency_ms,
            result,
            work,
        }
    })
}

/// Server-side counters summed over shards, per shard for the caches.
struct Snapshot {
    space: SpaceCounters,
    caches: Vec<(CacheStats, CacheStats)>,
}

fn snapshot(sessions: &Sessions<'_>) -> Snapshot {
    Snapshot {
        space: space_total(sessions),
        caches: sessions
            .cache_stats_per_shard()
            .into_iter()
            .zip(sessions.subtree_stats_per_shard())
            .collect(),
    }
}

/// A timed phase with everything the checks and layer metrics read.
struct Measured {
    slices: Vec<Slice>,
    answers: Vec<Answer>,
    /// Set-up answers too: the idempotency identity covers every
    /// submission the servers saw.
    warmup: Vec<Answer>,
    /// Obs-clock microseconds when the timed phase began; earlier spans
    /// belong to the warm-up.
    start_us: u64,
    calls: Vec<Call>,
    retries: u64,
    reconnects: u64,
    before: Snapshot,
    after: Snapshot,
}

/// Raises the shutdown flag when dropped, so a panic in a client cannot
/// leave the accept loops running.
struct ShutdownGuard<'a>(&'a AtomicBool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Starts the shard servers and connects and warms up the clients, then
/// hands `body` a function that runs one timed slice of the given length.
/// Returns the set-up time and the slices `body` ran; every server
/// thread has ended on return.
fn instance(
    args: &Args,
    model: &CloudCostModel,
    obs: &Obs,
    body: impl FnOnce(&mut dyn FnMut(f64)),
) -> (f64, Measured) {
    let start = Instant::now();
    let clients = |seed| -> Vec<Client> { (0..CLIENTS).map(|c| Client::new(seed, c)).collect() };
    let (mut warmup_clients, mut clients) = (clients(WARMUP_SEED), clients(args.seed));
    let sessions = ShardedSession::build(SHARDS, model, &traffic::session_config(), || {
        traffic::space(model)
    });
    let cores: Vec<_> = (0..SHARDS)
        .map(|i| {
            let core = ShardServerCore::new(sessions.shard(i), i as u32, traffic::probes());
            if obs.enabled() {
                core.with_obs(obs.clone())
            } else {
                core
            }
        })
        .collect();
    let listeners: Vec<TcpListener> = (0..SHARDS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shutdown);
        let servers: Vec<_> = listeners
            .into_iter()
            .zip(&cores)
            .map(|(listener, core)| {
                let shutdown = &shutdown;
                scope.spawn(move || serve_tcp(listener, core, shutdown))
            })
            .collect();
        let mut routers: Vec<Router<'_>> =
            (0..CLIENTS).map(|_| router(&addrs, model, obs)).collect();
        let warmup = drive(
            &mut routers,
            &mut warmup_clients,
            WARMUP_PER_CLIENT,
            None,
            &Obs::off(),
        );
        let setup_s = start.elapsed().as_secs_f64();
        let calls = |routers: &[Router<'_>]| -> Vec<Call> {
            routers
                .iter()
                .flat_map(|r| (0..SHARDS).flat_map(|i| r.conn(i).calls.take()))
                .collect()
        };
        drop(calls(&routers));
        let (before, start_us) = (snapshot(&sessions), obs.now_us());
        let (mut slices, mut answers) = (Vec::new(), Vec::new());
        body(&mut |secs| {
            slices.push(report::timed_slice(|| {
                let until = Instant::now() + Duration::from_secs_f64(secs);
                let got = drive(&mut routers, &mut clients, 0, Some(until), obs);
                let latencies = got.iter().map(|a| a.latency_ms).collect();
                answers.extend(got);
                latencies
            }));
        });
        let after = snapshot(&sessions);
        let stats: Vec<_> = routers.iter().map(|r| r.stats()).collect();
        let measured = Measured {
            slices,
            answers,
            warmup,
            start_us,
            calls: calls(&routers),
            retries: stats.iter().map(|s| s.retries).sum(),
            reconnects: stats.iter().map(|s| s.reconnects).sum(),
            before,
            after,
        };
        drop(routers);
        shutdown.store(true, Ordering::Relaxed);
        for server in servers {
            server
                .join()
                .expect("shard server thread")
                .expect("shard server");
        }
        (setup_s, measured)
    })
}

/// Per-layer metrics of a traced phase.
fn layers(m: &mut Metrics, d: &Measured, obs: &Obs) {
    let fresh: Vec<&Answer> = d
        .answers
        .iter()
        .filter(|a| !a.dedup && a.result.is_ok())
        .collect();
    let n = fresh.len() as f64;
    let mean_work = |i: usize| report::ratio(fresh.iter().map(|a| a.work[i] as f64).sum(), n);
    m.set("core.plans_created", mean_work(0));
    m.set("core.plans_pruned", mean_work(1));
    m.set("lp.solved", mean_work(2));
    space_layers(&d.after.space.since(&d.before.space), n, m);
    cache_layers(m, &d.before.caches, &d.after.caches, n);

    // Server spans of the timed phase, by (shard, trace, request).
    let mut spans = obs.spans();
    spans.retain(|s| s.start_us >= d.start_us);
    let kids = report::children(&spans);
    let mut server: HashMap<(u64, u64, u64), Vec<&mpq_obs::SpanRecord>> = HashMap::new();
    let (mut server_ms, mut wait_ms, mut optimize_spans) = (Vec::new(), Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "server_request") {
        let key = |k| report::field(s, k).unwrap_or(u64::MAX);
        server
            .entry((key("shard"), key("trace"), key("request")))
            .or_default()
            .push(s);
        if report::field(s, "dedup") == Some(0) {
            let optimize = kids
                .get(&s.id)
                .and_then(|k| k.iter().find(|c| c.name == "optimize"))
                .copied();
            server_ms.push(report::span_ms(s));
            wait_ms.push(report::span_ms(s) - optimize.map_or(0.0, report::span_ms));
            optimize_spans.extend(optimize);
        }
    }
    let optimize_ms: Vec<f64> = optimize_spans.iter().map(|s| report::span_ms(s)).collect();
    m.set("core.optimize_ms_p50", report::quantile(&optimize_ms, 0.5));
    report::dp_times(&optimize_spans, &spans, m);
    m.set("net.server_ms_p50", report::quantile(&server_ms, 0.5));
    m.set("net.server_wait_ms_p50", report::quantile(&wait_ms, 0.5));

    // The codec on every frame of the phase: decode, and encode the
    // decoded message again.
    let (mut encode_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), [0.0; 2]);
    let mut ids = Vec::new();
    for c in &d.calls {
        for (i, frame) in c.frames.iter().enumerate() {
            let (msg, dec, enc) = codec(frame, obs);
            decode_us.push(dec);
            encode_us.push(enc);
            bytes[i] += frame.len() as f64;
            if let Some(Message::Request(r)) = msg {
                ids.push((c, r.trace_id, r.request_id));
            }
        }
    }
    let n_calls = d.calls.len() as f64;
    m.set("net.encode_us_p50", report::quantile(&encode_us, 0.5));
    m.set("net.decode_us_p50", report::quantile(&decode_us, 0.5));
    m.set("net.request_bytes_mean", report::ratio(bytes[0], n_calls));
    m.set("net.response_bytes_mean", report::ratio(bytes[1], n_calls));

    // Transport: each call minus the server span it contains. The two
    // routers number traces and requests alike, so a key can match spans
    // of both clients; the one inside the call's interval is its own.
    let transport: Vec<f64> = ids
        .iter()
        .filter_map(|&(c, trace, request)| {
            server
                .get(&(u64::from(c.shard), trace, request))?
                .iter()
                .find(|s| s.start_us >= c.start_us && s.end_us <= c.end_us)
                .map(|s| c.call_ms - report::span_ms(s))
        })
        .collect();
    m.set("net.transport_ms_p50", report::quantile(&transport, 0.5));
    let call_ms: Vec<f64> = d.calls.iter().map(|c| c.call_ms).collect();
    m.set("net.call_ms_p50", report::quantile(&call_ms, 0.5));
    let latency = |replay: bool| -> Vec<f64> {
        d.answers
            .iter()
            .filter(|a| a.replay == replay)
            .map(|a| a.latency_ms)
            .collect()
    };
    m.set("net.fresh_ms_p50", report::quantile(&latency(false), 0.5));
    m.set("net.replay_ms_p50", report::quantile(&latency(true), 0.5));
    m.set("net.retries", d.retries as f64);
    m.set("net.reconnects", d.reconnects as f64);
}

/// Every answer must equal its query optimized alone in a fresh session,
/// and the servers must have replayed exactly the repeated digests. The
/// second check is over a whole instance, so it sets `correct`.
fn tally(model: &CloudCostModel, runs: &[&Measured]) -> (Tally, bool) {
    let reference = traffic::reference_digests(
        runs.iter().flat_map(|r| &r.answers).map(|a| &a.query),
        model,
    );
    let mut tally = Tally::default();
    let mut correct = true;
    for run in runs {
        for a in &run.answers {
            tally.record(match &a.result {
                Ok(digest) if reference[&query_digest(&a.query)] == *digest => Ok(()),
                Ok(_) => Err("answer differs from the query optimized alone".to_string()),
                Err(e) => Err(e.clone()),
            });
        }
        let all: Vec<&Answer> = run.warmup.iter().chain(&run.answers).collect();
        let distinct: HashSet<u64> = all.iter().map(|a| query_digest(&a.query)).collect();
        let dedup = all.iter().filter(|a| a.dedup).count();
        if dedup != all.len() - distinct.len() {
            eprintln!(
                "idempotency: {dedup} replayed answers, expected {} submissions - {} distinct digests",
                all.len(),
                distinct.len()
            );
            correct = false;
        }
    }
    (tally, correct)
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
        let (tally, correct) = tally(&model, &[&untraced]);
        return (
            tally,
            correct,
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
    layers(&mut m, &traced, &obs);
    m.set(
        "obs.overhead_pct",
        report::overhead_pct(&untraced.slices, &traced.slices),
    );
    let (tally, correct) = tally(&model, &[&untraced, &traced]);
    (tally, correct, m)
}
