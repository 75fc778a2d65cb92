//! `compile`: the paper's compile-time use. One thread optimizes a fixed
//! set of paper-generator queries, each in a fresh space, and selects
//! plans at run-time parameter points — no cache or batching in the way,
//! so nearly all time goes to LPs, region-engine fast paths, cost algebra
//! and DP bookkeeping.
//!
//! Each result is checked outside the timed phase against computations
//! made without the optimizer: the fixed-parameter DP and, for small
//! queries, exhaustive enumeration at every grid vertex; `PwlSpace`
//! results also against the same query optimized in a `GridSpace`.

use crate::report::{self, space_layers, Digest, Metrics, Slice, SpaceCounters, Tally};
use crate::Args;
use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::baselines::exhaustive;
use mpq_core::prelude::*;
use mpq_core::validate::{check_pps_at, exact_plan_cost};
use mpq_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Grid,
    Pwl,
}

/// One query of the set: space kind, generator shape and generator seed.
struct Case(Kind, Topology, usize, usize, u64);

use Kind::{Grid, Pwl};
use Topology::{Chain, Star};

/// The query set. Its generator seeds are fixed rather than drawn from
/// `--seed`: some 1-parameter queries with 6 or more tables hit a known
/// fault (a plan Pareto-optimal only at x = 0 is dropped, see the README),
/// and which ones do depends on the generator seed. Fixing the set keeps
/// the failed share identical in every run; `--seed` draws the run-time
/// selection points and the order of each round. The count is odd, so
/// the latency median falls inside one query's cluster of rounds rather
/// than between two queries of different cost.
const CASES: &[Case] = &[
    Case(Grid, Chain, 6, 1, 0),
    Case(Grid, Chain, 6, 1, 2),
    Case(Grid, Chain, 6, 1, 3),
    Case(Grid, Chain, 6, 1, 4),
    Case(Grid, Chain, 6, 1, 8),
    Case(Grid, Chain, 6, 1, 13),
    Case(Grid, Star, 6, 1, 0),
    Case(Grid, Star, 6, 1, 1),
    Case(Grid, Star, 6, 1, 2),
    Case(Grid, Star, 6, 1, 3),
    Case(Grid, Chain, 7, 1, 0),
    Case(Grid, Chain, 7, 1, 1),
    Case(Grid, Chain, 7, 1, 3),
    Case(Grid, Star, 7, 1, 1),
    Case(Grid, Chain, 8, 1, 0),
    Case(Grid, Star, 8, 1, 1),
    Case(Grid, Chain, 9, 1, 1),
    Case(Grid, Chain, 9, 1, 3),
    Case(Grid, Chain, 10, 1, 0),
    Case(Grid, Chain, 10, 1, 1),
    Case(Grid, Chain, 4, 2, 0),
    Case(Grid, Star, 4, 2, 0),
    Case(Grid, Star, 5, 2, 1),
    Case(Pwl, Chain, 4, 1, 0),
    Case(Pwl, Star, 5, 1, 0),
    Case(Pwl, Chain, 6, 1, 0),
    Case(Pwl, Chain, 3, 2, 5),
];

/// Run-time selection points per query and round.
const PROBES: usize = 3;

/// Largest query the exhaustive enumerator checks: about a second per
/// query at 5 tables, half a minute at 6.
const EXHAUSTIVE_MAX_TABLES: usize = 5;

/// Tolerance of the strict completeness check at grid vertices.
const VERTEX_TOL: f64 = 1e-7;

/// Tolerance of the grid/pwl frontier cross-check.
const CROSS_TOL: f64 = 1e-6;

/// A run-time plan selection: minimise `metric` at `x` with the other
/// metric bounded at the `bound_q` quantile of its range on the frontier.
struct Probe {
    x: Vec<f64>,
    metric: usize,
    bound_q: f64,
}

struct Prepared {
    label: String,
    kind: Kind,
    query: Query,
    config: OptimizerConfig,
    probes: Vec<Probe>,
}

fn prepare(seed: u64) -> Vec<Prepared> {
    CASES
        .iter()
        .enumerate()
        .map(|(i, &Case(kind, topology, tables, params, gen_seed))| {
            let query = generate(
                &GeneratorConfig::paper(tables, topology, params),
                &mut StdRng::seed_from_u64(gen_seed),
            );
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(i as u64));
            let probes = (0..PROBES)
                .map(|_| Probe {
                    x: (0..params).map(|_| rng.gen_range(0.0..=1.0)).collect(),
                    metric: rng.gen_range(0..2usize),
                    bound_q: rng.gen_range(0.0..=1.0),
                })
                .collect();
            Prepared {
                label: format!(
                    "{}/{}-{tables}/{params}p/seed{gen_seed}",
                    if kind == Grid { "grid" } else { "pwl" },
                    if topology == Chain { "chain" } else { "star" },
                ),
                kind,
                query,
                config: OptimizerConfig {
                    threads: Some(1),
                    ..OptimizerConfig::default_for(params)
                },
                probes,
            }
        })
        .collect()
}

/// What one operation produced.
struct OpOut<S: MpqSpace> {
    latency_ms: f64,
    /// Final plan count and every selection's frontier and choice.
    digest: u64,
    /// The run-time selection check.
    verdict: Result<(), String>,
    stats: OptStats,
    counters: SpaceCounters,
    solution: MpqSolution<S>,
    space: S,
}

/// One operation: optimize in a fresh space, then select plans at the
/// probe points. Only the selection check runs outside the latency.
fn op<S>(
    make_space: impl FnOnce() -> S,
    counters_of: impl Fn(&S) -> SpaceCounters,
    c: &Prepared,
    model: &CloudCostModel,
    obs: &Obs,
) -> OpOut<S>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
{
    let start = Instant::now();
    let space = make_space();
    let solution = {
        let _span = obs.span("bench_optimize");
        optimize(&c.query, model, &space, &c.config)
    };
    let mut selections = Vec::with_capacity(c.probes.len());
    for p in &c.probes {
        let frontier = {
            let _span = obs.span("bench_select");
            solution.frontier_at(&space, &p.x)
        };
        let other = 1 - p.metric;
        let (lo, hi) = frontier
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, c)| {
                (lo.min(c[other]), hi.max(c[other]))
            });
        let mut bounds = vec![None; 2];
        bounds[other] = Some(lo + p.bound_q * (hi - lo));
        let chosen = {
            let _span = obs.span("bench_select");
            solution.select_plan(&space, &p.x, p.metric, &bounds)
        };
        selections.push((frontier, bounds, chosen));
    }
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut digest = Digest::default();
    digest.word(solution.stats.final_plan_count as u64);
    let mut verdict = Ok(());
    for (p, (frontier, bounds, chosen)) in c.probes.iter().zip(&selections) {
        digest.costs(frontier.iter().map(|(_, c)| c));
        if let Some((_, cost)) = chosen {
            digest.costs([cost]);
        }
        if verdict.is_ok() {
            verdict = check_selection(&solution, &space, p, frontier, bounds, chosen.as_ref());
        }
    }
    OpOut {
        latency_ms,
        digest: digest.0,
        verdict,
        stats: solution.stats.clone(),
        counters: counters_of(&space),
        solution,
        space,
    }
}

/// `select_plan` must return a plan relevant at `x`, within the bounds,
/// whose chosen metric is the minimum over the frontier under the bounds.
fn check_selection<S: MpqSpace>(
    solution: &MpqSolution<S>,
    space: &S,
    p: &Probe,
    frontier: &[(PlanId, Vec<f64>)],
    bounds: &[Option<f64>],
    chosen: Option<&(PlanId, Vec<f64>)>,
) -> Result<(), String> {
    let Some((plan, cost)) = chosen else {
        return Err(format!("select_plan found no plan at {:?}", p.x));
    };
    if !solution
        .relevant_at(space, &p.x)
        .iter()
        .any(|(id, _)| id == plan)
    {
        return Err(format!(
            "select_plan chose a plan not relevant at {:?}",
            p.x
        ));
    }
    let within = |c: &[f64]| c.iter().zip(bounds).all(|(v, b)| b.is_none_or(|l| *v <= l));
    if !within(cost) {
        return Err(format!("select_plan broke its bounds at {:?}", p.x));
    }
    let best = frontier
        .iter()
        .filter(|(_, c)| within(c))
        .map(|(_, c)| c[p.metric])
        .fold(f64::INFINITY, f64::min);
    let got = cost[p.metric];
    // Frontier filtering tolerates 1e-9, so a relevant plan a hair better
    // than the frontier's best may be chosen; never a worse one.
    if got > best || got < best - 1e-9 * best.abs().max(1.0) {
        return Err(format!(
            "select_plan chose metric {got} but the frontier minimum is {best} at {:?}",
            p.x
        ));
    }
    Ok(())
}

fn run_grid(c: &Prepared, model: &CloudCostModel, obs: &Obs) -> OpOut<GridSpace> {
    let params = c.query.num_params;
    op(
        || GridSpace::for_unit_box(params, &c.config, model.num_metrics()).expect("grid space"),
        |s| SpaceCounters {
            lp: s.lp_ctx().fastpath_breakdown(),
            emptiness: s.emptiness_counters(),
        },
        c,
        model,
        obs,
    )
}

fn run_pwl(c: &Prepared, model: &CloudCostModel, obs: &Obs) -> OpOut<PwlSpace> {
    let params = c.query.num_params;
    op(
        || PwlSpace::for_unit_box(params, &c.config, model.num_metrics()).expect("pwl space"),
        |s| SpaceCounters {
            lp: s.lp_ctx().fastpath_breakdown(),
            emptiness: s.emptiness_counters(),
        },
        c,
        model,
        obs,
    )
}

/// The parts of an operation's output the timed loop keeps.
struct Record {
    case: usize,
    latency_ms: f64,
    digest: u64,
    verdict: Result<(), String>,
    stats: OptStats,
    counters: SpaceCounters,
}

fn record<S: MpqSpace>(case: usize, out: OpOut<S>) -> Record {
    Record {
        case,
        latency_ms: out.latency_ms,
        digest: out.digest,
        verdict: out.verdict,
        stats: out.stats,
        counters: out.counters,
    }
}

/// What the rounds run under one obs handle left behind.
#[derive(Default)]
struct Rounds {
    slices: Vec<Slice>,
    records: Vec<Record>,
}

/// Runs whole rounds over the set, each in a seeded order and timed as a
/// slice of its own, until `seconds` have passed and every handle has
/// had a round. Round `r` runs under `obs[r % obs.len()]`, so with two
/// handles the two kinds of round alternate. Returns the rounds of each
/// handle.
fn timed(cases: &[Prepared], model: &CloudCostModel, args: &Args, obs: &[&Obs]) -> Vec<Rounds> {
    let mut out: Vec<Rounds> = obs.iter().map(|_| Rounds::default()).collect();
    let start = Instant::now();
    let mut round = 0u64;
    while (round as usize) < obs.len() || start.elapsed().as_secs_f64() < args.seconds {
        let k = round as usize % obs.len();
        let _installed = mpq_obs::install(obs[k]);
        let mut order: Vec<usize> = (0..cases.len()).collect();
        let mut rng = StdRng::seed_from_u64(args.seed ^ (round << 32));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let records = &mut out[k].records;
        let slice = report::timed_slice(|| {
            order
                .into_iter()
                .map(|i| {
                    let c = &cases[i];
                    let r = match c.kind {
                        Grid => record(i, run_grid(c, model, obs[k])),
                        Pwl => record(i, run_pwl(c, model, obs[k])),
                    };
                    let latency_ms = r.latency_ms;
                    records.push(r);
                    latency_ms
                })
                .collect()
        });
        out[k].slices.push(slice);
        round += 1;
    }
    out
}

/// The reference checks of one query, made on a fresh, untimed run whose
/// digest must equal every timed run's.
fn check_case(c: &Prepared, model: &CloudCostModel) -> (u64, Result<(), String>) {
    let off = Obs::off();
    match c.kind {
        Grid => {
            let out = run_grid(c, model, &off);
            (
                out.digest,
                check_solution(c, model, &out.solution, &out.space),
            )
        }
        Pwl => {
            let out = run_pwl(c, model, &off);
            let mut verdict = check_solution(c, model, &out.solution, &out.space);
            if verdict.is_ok() {
                verdict = cross_check(c, model, &out.solution, &out.space);
            }
            (out.digest, verdict)
        }
    }
}

fn vertices(c: &Prepared, model: &CloudCostModel) -> Vec<Vec<f64>> {
    GridSpace::for_unit_box(c.query.num_params, &c.config, model.num_metrics())
        .expect("grid space")
        .grid()
        .vertex_points()
}

/// `a` dominates `b` within a relative tolerance.
fn dominates_rel(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.iter().zip(b).all(|(x, y)| *x <= *y * (1.0 + tol) + 1e-9)
}

/// Strict PPS completeness at every grid vertex against the fixed-parameter
/// DP and, for small queries, against exhaustive enumeration.
fn check_solution<S: MpqSpace>(
    c: &Prepared,
    model: &CloudCostModel,
    solution: &MpqSolution<S>,
    space: &S,
) -> Result<(), String> {
    let postpone = c.config.postpone_cartesian;
    for v in vertices(c, model) {
        check_pps_at(solution, space, &c.query, model, &v, VERTEX_TOL, postpone)
            .map_err(|e| format!("fixed-parameter DP at x={v:?}: {}", uncovered_cost(&e)))?;
        if c.query.num_tables() <= EXHAUSTIVE_MAX_TABLES {
            let candidates: Vec<Vec<f64>> = solution
                .plans
                .iter()
                .filter(|p| space.region_contains(&p.region, &v))
                .map(|p| exact_plan_cost(&c.query, model, &solution.arena, p.plan, &v))
                .collect();
            let truth = exhaustive::enumerate_at(&c.query, model, &v, postpone);
            for (_, target) in truth.pareto_frontier() {
                if !candidates
                    .iter()
                    .any(|cand| dominates_rel(cand, &target, VERTEX_TOL))
                {
                    return Err(format!(
                        "exhaustive enumeration at x={v:?}: plan with cost {target:?} not covered"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A `PwlSpace` result and the same query's `GridSpace` result cover each
/// other's frontiers at every grid vertex.
fn cross_check(
    c: &Prepared,
    model: &CloudCostModel,
    pwl: &MpqSolution<PwlSpace>,
    pwl_space: &PwlSpace,
) -> Result<(), String> {
    let grid = run_grid(c, model, &Obs::off());
    let covers = |a: &[(PlanId, Vec<f64>)], b: &[(PlanId, Vec<f64>)]| {
        b.iter()
            .all(|(_, t)| a.iter().any(|(_, s)| dominates_rel(s, t, CROSS_TOL)))
    };
    for v in vertices(c, model) {
        let p = pwl.frontier_at(pwl_space, &v);
        let g = grid.solution.frontier_at(&grid.space, &v);
        if !covers(&p, &g) || !covers(&g, &p) {
            return Err(format!("grid and pwl frontiers differ at x={v:?}"));
        }
    }
    Ok(())
}

/// A validation message without its plan rendering and candidate list.
fn uncovered_cost(msg: &str) -> String {
    match msg.split_once(" with cost ") {
        Some((_, rest)) => format!(
            "plan with cost {} not covered",
            rest.split(" at ").next().unwrap_or(rest)
        ),
        None => msg.to_string(),
    }
}

/// Per-layer metrics of the traced phase.
fn layers(records: &[Record], obs: &Obs, m: &mut Metrics) {
    let n = records.len() as f64;
    let sum = |f: &dyn Fn(&Record) -> u64| records.iter().map(|r| f(r) as f64).sum::<f64>();
    m.set("core.plans_created", sum(&|r| r.stats.plans_created) / n);
    m.set("core.plans_pruned", sum(&|r| r.stats.plans_pruned) / n);
    m.set("lp.solved", sum(&|r| r.stats.lps_solved_query) / n);
    let mut total = SpaceCounters::default();
    for r in records {
        total.add(&r.counters);
    }
    space_layers(&total, n, m);

    let spans = obs.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(report::span_ms)
            .collect()
    };
    m.set(
        "core.optimize_ms_p50",
        report::quantile(&durations("bench_optimize"), 0.5),
    );
    m.set(
        "core.select_us_p50",
        report::quantile(&durations("bench_select"), 0.5) * 1e3,
    );
    let optimize_spans: Vec<_> = spans.iter().filter(|s| s.name == "optimize").collect();
    report::dp_times(&optimize_spans, &spans, m);
}

/// Applies each query's reference verdict to every timed operation on it.
fn apply_checks(
    cases: &[Prepared],
    checked: &[(u64, Result<(), String>)],
    records: &[Record],
) -> Tally {
    let mut tally = Tally::default();
    for r in records {
        let (digest, verdict) = &checked[r.case];
        let label = &cases[r.case].label;
        tally.record(if r.digest != *digest {
            Err(format!("{label}: result differs from an identical run"))
        } else if let Err(e) = &r.verdict {
            Err(format!("{label}: {e}"))
        } else {
            verdict.clone().map_err(|e| format!("{label}: {e}"))
        });
    }
    tally
}

/// Set-up: the query set, and one optimization per space kind and
/// parameter count (except the pwl 2-parameter query, which alone takes
/// most of a second), to load code and warm the allocator.
fn setup(seed: u64, model: &CloudCostModel) -> Vec<Prepared> {
    let cases = prepare(seed);
    let off = Obs::off();
    for (kind, params) in [(Grid, 1), (Grid, 2), (Pwl, 1)] {
        let c = cases
            .iter()
            .find(|c| c.kind == kind && c.query.num_params == params)
            .expect("the set has a query of every warm-up shape");
        match kind {
            Grid => drop(run_grid(c, model, &off)),
            Pwl => drop(run_pwl(c, model, &off)),
        }
    }
    cases
}

pub fn run(args: &Args) -> (Tally, bool, Metrics) {
    let model = CloudCostModel::default();
    let (setup_s, cases) = report::median_setup(|_| {
        let start = Instant::now();
        let cases = setup(args.seed, &model);
        (start.elapsed().as_secs_f64(), cases)
    });
    let (off, obs) = (Obs::off(), Obs::wall());
    let handles: &[&Obs] = if args.trace { &[&off, &obs] } else { &[&off] };
    let rounds = timed(&cases, &model, args, handles);
    let peak = report::peak_rss_mb();
    let checked: Vec<_> = cases.iter().map(|c| check_case(c, &model)).collect();
    let mut tally = Tally::default();
    for r in &rounds {
        tally.absorb(apply_checks(&cases, &checked, &r.records));
    }
    if !args.trace {
        return (
            tally,
            true,
            report::end_to_end(&rounds[0].slices, setup_s, peak),
        );
    }
    let mut m = Metrics::default();
    layers(&rounds[1].records, &obs, &mut m);
    m.set(
        "obs.overhead_pct",
        report::overhead_pct(&rounds[0].slices, &rounds[1].slices),
    );
    (tally, true, m)
}

/// Prints every query of the set with its reference verdict — the list
/// of queries the known fault hits.
pub fn list_faults() {
    let model = CloudCostModel::default();
    for c in prepare(0) {
        let start = Instant::now();
        let (_, verdict) = check_case(&c, &model);
        let secs = start.elapsed().as_secs_f64();
        match verdict {
            Ok(()) => println!("ok    {:<28} ({secs:.1}s)", c.label),
            Err(e) => println!("FAIL  {:<28} ({secs:.1}s) {e}", c.label),
        }
    }
}
