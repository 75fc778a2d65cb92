//! What every workload shares: percentiles, process CPU and memory
//! readings, set-up repetition, per-operation failure accounting, the
//! per-layer metric arithmetic over counters and spans, and the one-line
//! JSON result.

use crate::calibrate;
use mpq_cost::CacheStats;
use mpq_lp::{FastPathBreakdown, FastPathSite};
use mpq_obs::SpanRecord;
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times each workload builds its set-up; `setup_s` is the
/// median, so one slow start does not move the figure.
pub const SETUP_REPEATS: usize = 7;

/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, in output order, with their
/// units. Every workload reports all of them; a layer a workload does not
/// reach reads 0 there (the README lists which workloads should leave
/// each one flat).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.plans_created", "count"),
    ("core.plans_pruned", "count"),
    ("core.emptiness_checks", "count"),
    ("core.emptiness_skip_ratio", "ratio"),
    ("core.optimize_ms_p50", "ms"),
    ("core.dp_ms", "ms"),
    ("core.dp_last_level_ms", "ms"),
    ("core.select_us_p50", "us"),
    ("lp.solved", "count"),
    ("lp.solved.cutout_redundancy", "count"),
    ("lp.solved.cutout_emptiness", "count"),
    ("lp.solved.coverage", "count"),
    ("lp.solved.piece_algebra", "count"),
    ("geometry.checks.cutout_redundancy", "count"),
    ("geometry.checks.cutout_emptiness", "count"),
    ("geometry.checks.coverage", "count"),
    ("geometry.checks.piece_algebra", "count"),
    ("geometry.fast_ratio.cutout_redundancy", "ratio"),
    ("geometry.fast_ratio.cutout_emptiness", "ratio"),
    ("geometry.fast_ratio.coverage", "ratio"),
    ("geometry.fast_ratio.piece_algebra", "ratio"),
    ("cost.lift.hit_ratio", "ratio"),
    ("cost.subtree.hit_ratio", "ratio"),
    ("cost.lift.misses", "count"),
    ("cost.subtree.misses", "count"),
    ("cost.subtree.evictions", "count"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.deadline_share", "ratio"),
    ("service.shard_imbalance", "ratio"),
    ("net.call_ms_p50", "ms"),
    ("net.server_ms_p50", "ms"),
    ("net.server_wait_ms_p50", "ms"),
    ("net.transport_ms_p50", "ms"),
    ("net.encode_us_p50", "us"),
    ("net.decode_us_p50", "us"),
    ("net.request_bytes_mean", "bytes"),
    ("net.response_bytes_mean", "bytes"),
    ("net.fresh_ms_p50", "ms"),
    ("net.replay_ms_p50", "ms"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("obs.overhead_pct", "%"),
];

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of `values` without their lowest and highest fifth.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = sorted.len() / 5;
    mean(&sorted[k..sorted.len() - k])
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Process CPU time, user plus system, of every thread this process has
/// run so far, in seconds (`/proc/self/stat`, in clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, starting at `state`.
    let after = stat.rfind(')').expect("stat has a command field") + 1;
    let fields: Vec<&str> = stat[after..].split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Sets up [`SETUP_REPEATS`] times through `instance`, which returns its
/// set-up time and what the run goes on with; it is passed `true` only
/// the last time. Each set-up time is taken at the reference speed of
/// [`calibrate`], measured just before it. Returns the median set-up time
/// and the last value.
pub fn median_setup<T>(mut instance: impl FnMut(bool) -> (f64, T)) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 1..=SETUP_REPEATS {
        let scale = calibrate::time_scale();
        let (setup_s, value) = instance(i == SETUP_REPEATS);
        times.push(setup_s * scale);
        last = Some(value);
    }
    (quantile(&times, 0.5), last.expect("at least one set-up"))
}

/// Operations attempted and failed, with each failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one operation, failed when `verdict` carries a reason.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            *self.reasons.entry(reason).or_default() += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (reason, n) in other.reasons {
            *self.reasons.entry(reason).or_default() += n;
        }
    }

    /// Writes every distinct failure reason, with its count, to stderr.
    pub fn explain(&self) {
        for (reason, n) in &self.reasons {
            eprintln!("failed x{n}: {reason}");
        }
    }
}

/// How many slices the timed phase of `serve` and `net` is cut into
/// (`compile` slices by round). Each end-to-end timing is the
/// [`trimmed_mean`] of its per-slice values, so a slow spell of the
/// machine that covers one slice in five does not move it.
pub const SLICES: usize = 30;

/// One slice of a timed phase: per-operation latencies plus the wall and
/// CPU time the slice took, and the machine's speed around it.
pub struct Slice {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// [`calibrate::time_scale`] measured just before and just after.
    pub scale: f64,
}

/// Measures a slice: wall and CPU time around `body`, which returns the
/// latencies it recorded, and the machine's speed on either side of it.
pub fn timed_slice(body: impl FnOnce() -> Vec<f64>) -> Slice {
    let before = calibrate::time_scale();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let latencies_ms = body();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    Slice {
        latencies_ms,
        wall_s,
        cpu_s,
        scale: (before + calibrate::time_scale()) / 2.0,
    }
}

/// Runs a timed phase of `seconds` as [`SLICES`] slices through `slice`,
/// which runs one slice of the length it is passed.
pub fn timed_phase(seconds: f64, slice: &mut dyn FnMut(f64)) {
    for _ in 0..SLICES {
        slice(seconds / SLICES as f64);
    }
}

/// Runs two timed phases that share `seconds`, their slices
/// alternating, `a`'s first.
pub fn alternating_phases(seconds: f64, a: &mut dyn FnMut(f64), b: &mut dyn FnMut(f64)) {
    let slice_s = seconds / (2 * SLICES) as f64;
    for _ in 0..SLICES {
        a(slice_s);
        b(slice_s);
    }
}

/// A slice's queries answered per second, at the reference speed.
fn slice_qps(s: &Slice) -> f64 {
    ratio(s.latencies_ms.len() as f64, s.wall_s * s.scale)
}

/// The six end-to-end metrics of a timed phase cut into `slices`. Every
/// time is taken at the reference speed of [`calibrate`]: each slice's
/// figures are scaled by the speed measured around it, and each metric is
/// the trimmed mean of its per-slice values.
pub fn end_to_end(slices: &[Slice], setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let over_slices =
        |f: &dyn Fn(&Slice) -> f64| trimmed_mean(&slices.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set(
        "latency_p50_ms",
        over_slices(&|s| quantile(&s.latencies_ms, 0.5) * s.scale),
    );
    m.set(
        "latency_p90_ms",
        over_slices(&|s| quantile(&s.latencies_ms, 0.9) * s.scale),
    );
    m.set("throughput_qps", over_slices(&slice_qps));
    m.set(
        "cpu_ms_per_query",
        over_slices(&|s| ratio(s.cpu_s * 1e3 * s.scale, s.latencies_ms.len() as f64)),
    );
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    m
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `obs.overhead_pct`: how much slower the traced slices ran than the
/// untraced ones, in percent of the traced throughput. The two kinds of
/// slice alternate in one process, so the machine's drift falls on both.
pub fn overhead_pct(untraced: &[Slice], traced: &[Slice]) -> f64 {
    let qps = |slices: &[Slice]| {
        let answered: usize = slices.iter().map(|s| s.latencies_ms.len()).sum();
        ratio(answered as f64, slices.iter().map(|s| s.wall_s * s.scale).sum())
    };
    (ratio(qps(untraced), qps(traced)) - 1.0) * 100.0
}

/// Prints the result line: `metrics` restricted to (and ordered by)
/// `names`, with a metric the workload did not set reading 0.
pub fn print_result(tally: &Tally, correct: bool, names: &[(&str, &str)], metrics: &Metrics) {
    tally.explain();
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// A space's own work counters: the per-site fast-path breakdown and the
/// emptiness checks run and skipped (`OptStats` leaves the latter at 0).
#[derive(Clone, Copy, Default)]
pub struct SpaceCounters {
    pub lp: FastPathBreakdown,
    pub emptiness: (u64, u64),
}

impl SpaceCounters {
    /// `self - before`, counter by counter.
    pub fn since(&self, before: &SpaceCounters) -> SpaceCounters {
        let mut d = *self;
        for i in 0..d.lp.fast.len() {
            d.lp.fast[i] -= before.lp.fast[i];
            d.lp.lp[i] -= before.lp.lp[i];
        }
        d.emptiness.0 -= before.emptiness.0;
        d.emptiness.1 -= before.emptiness.1;
        d
    }

    /// Adds another space's counters.
    pub fn add(&mut self, other: &SpaceCounters) {
        for i in 0..self.lp.fast.len() {
            self.lp.fast[i] += other.lp.fast[i];
            self.lp.lp[i] += other.lp.lp[i];
        }
        self.emptiness.0 += other.emptiness.0;
        self.emptiness.1 += other.emptiness.1;
    }
}

/// `core.emptiness_*`, `lp.solved.<site>`, `geometry.checks.<site>` and
/// `geometry.fast_ratio.<site>` from space counters summed over `n`
/// queries (counts as means per query).
pub fn space_layers(c: &SpaceCounters, n: f64, m: &mut Metrics) {
    let (checks, skipped) = (c.emptiness.0 as f64, c.emptiness.1 as f64);
    m.set("core.emptiness_checks", ratio(checks, n));
    m.set(
        "core.emptiness_skip_ratio",
        ratio(skipped, checks + skipped),
    );
    for site in FastPathSite::ALL {
        let i = site as usize;
        let (fast, lp) = (c.lp.fast[i] as f64, c.lp.lp[i] as f64);
        let name = site.name();
        m.set(&format!("lp.solved.{name}"), ratio(lp, n));
        m.set(&format!("geometry.checks.{name}"), ratio(fast + lp, n));
        m.set(
            &format!("geometry.fast_ratio.{name}"),
            ratio(fast, fast + lp),
        );
    }
}

/// `cost.*` from per-shard (lift, subtree) cache counters before and
/// after a phase of `n` answered queries.
pub fn cache_layers(
    m: &mut Metrics,
    before: &[(CacheStats, CacheStats)],
    after: &[(CacheStats, CacheStats)],
    n: f64,
) {
    let delta = |f: &dyn Fn(&(CacheStats, CacheStats)) -> u64| -> f64 {
        (after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()) as f64
    };
    let (lh, lm) = (delta(&|s| s.0.hits), delta(&|s| s.0.misses));
    let (sh, sm) = (delta(&|s| s.1.hits), delta(&|s| s.1.misses));
    m.set("cost.lift.hit_ratio", ratio(lh, lh + lm));
    m.set("cost.subtree.hit_ratio", ratio(sh, sh + sm));
    m.set("cost.lift.misses", ratio(lm, n));
    m.set("cost.subtree.misses", ratio(sm, n));
    m.set(
        "cost.subtree.evictions",
        ratio(delta(&|s| s.1.evictions), n),
    );
}

/// A span's duration in milliseconds.
pub fn span_ms(span: &SpanRecord) -> f64 {
    span.end_us.saturating_sub(span.start_us) as f64 / 1e3
}

/// A span field's value, if recorded.
pub fn field(span: &SpanRecord, key: &str) -> Option<u64> {
    span.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Finished spans indexed by parent id.
pub fn children(spans: &[SpanRecord]) -> BTreeMap<u32, Vec<&SpanRecord>> {
    let mut out: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            out.entry(p).or_default().push(s);
        }
    }
    out
}

/// `core.dp_ms` and `core.dp_last_level_ms`: the mean, over the given
/// `optimize` spans, of their `dp_level` children's total duration and of
/// the last level's duration.
pub fn dp_times(optimize_spans: &[&SpanRecord], spans: &[SpanRecord], m: &mut Metrics) {
    let kids = children(spans);
    let mut total = Vec::new();
    let mut last = Vec::new();
    for opt in optimize_spans {
        let levels: Vec<&SpanRecord> = kids
            .get(&opt.id)
            .map(|v| v.iter().copied().filter(|s| s.name == "dp_level").collect())
            .unwrap_or_default();
        total.push(levels.iter().map(|s| span_ms(s)).sum());
        last.push(
            levels
                .iter()
                .max_by_key(|s| field(s, "level"))
                .map(|s| span_ms(s))
                .unwrap_or(0.0),
        );
    }
    m.set("core.dp_ms", mean(&total));
    m.set("core.dp_last_level_ms", mean(&last));
}

/// FNV-1a over 64-bit words: the digest answers are compared by.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a frontier's cost vectors in, as f64 bit patterns.
    pub fn costs<'a>(&mut self, costs: impl IntoIterator<Item = &'a Vec<f64>>) {
        for c in costs {
            self.word(c.len() as u64);
            for v in c {
                self.word(v.to_bits());
            }
        }
    }
}
