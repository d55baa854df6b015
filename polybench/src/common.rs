//! Shared pieces: the run context, order statistics, counter reads,
//! resident-set readings and the result line.

use crate::trace::Tracer;
use polygamy_obs::{names, MetricsSnapshot};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: the run records spans and reports per-layer metrics.
    pub traced: bool,
    /// The `polygamy-store` binary the `serve` workload starts.
    pub store_bin: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name, value, unit — in the order they are printed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host and corpus facts, as (key, JSON value).
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn fact(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.facts.push((key, value.to_string()));
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    pub fn facts_json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"host\": {{{}}}}}", body.join(", "))
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, MB; `None` reads this one.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The executor and store counters the benchmark reads around its calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub plan_ns: u64,
    pub expand_ns: u64,
    pub evaluate_ns: u64,
    pub assemble_ns: u64,
    pub tasks: u64,
    /// Queries the executor ran (`core.queries`).
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub faults: u64,
    pub bytes: u64,
}

impl Counters {
    /// This process's counters.
    pub fn now() -> Self {
        Self::of(&polygamy_obs::global().snapshot())
    }

    /// Counters from a snapshot (a daemon's `M` frame).
    pub fn of(s: &MetricsSnapshot) -> Self {
        Counters {
            plan_ns: s.counter(names::CORE_STAGE_PLAN_NS),
            expand_ns: s.counter(names::CORE_STAGE_EXPAND_NS),
            evaluate_ns: s.counter(names::CORE_STAGE_EVALUATE_NS),
            assemble_ns: s.counter(names::CORE_STAGE_ASSEMBLE_NS),
            tasks: s.counter(names::CORE_TASKS_EXPANDED),
            queries: s.counter(names::CORE_QUERIES),
            hits: s.counter(names::CORE_QUERY_CACHE_HITS),
            misses: s.counter(names::CORE_QUERY_CACHE_MISSES),
            faults: s.counter(names::STORE_SEGMENT_FAULTS),
            bytes: s.counter(names::STORE_BYTES_FETCHED),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            plan_ns: self.plan_ns - earlier.plan_ns,
            expand_ns: self.expand_ns - earlier.expand_ns,
            evaluate_ns: self.evaluate_ns - earlier.evaluate_ns,
            assemble_ns: self.assemble_ns - earlier.assemble_ns,
            tasks: self.tasks - earlier.tasks,
            queries: self.queries - earlier.queries,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            faults: self.faults - earlier.faults,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// The executor's stage times, as parts of the span around the query.
    pub fn stage_parts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("core.plan", self.plan_ns),
            ("core.expand", self.expand_ns),
            ("core.evaluate", self.evaluate_ns),
            ("core.assemble", self.assemble_ns),
        ]
    }

    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The benchmark's clock: every timing it takes reads this. No answer
/// the benchmark checks depends on it.
pub fn now() -> Instant {
    // lint: allow(wall-clock, reason = "the benchmark times the program's calls; no answer depends on it")
    Instant::now()
}

/// Mean time of one call of `f`, microseconds, over enough calls to
/// last at least ~20 ms. The result goes through `black_box`, so the
/// compiler cannot drop the measured work.
pub fn time_per_call_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = now();
    let mut calls = 0u64;
    while calls < 10 || start.elapsed().as_secs_f64() < 0.02 {
        std::hint::black_box(f());
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The end-to-end metric list every workload prints, in `BENCHMARK.json`
/// order.
pub struct EndToEnd {
    pub setup_s: f64,
    pub tasks_per_s: f64,
    pub latencies_ms: Vec<f64>,
    pub threshold_ms: Vec<f64>,
    pub slo_ratio: f64,
    pub peak_rss_mb: f64,
    pub store_mb: f64,
}

impl EndToEnd {
    pub fn report(&self, out: &mut Report) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric("tasks_per_s", self.tasks_per_s, "tasks/s");
        out.metric("p50_ms", median(&self.latencies_ms), "ms");
        out.metric("p95_ms", quantile(&self.latencies_ms, 0.95), "ms");
        out.metric("p99_ms", quantile(&self.latencies_ms, 0.99), "ms");
        out.metric("threshold_p50_ms", median(&self.threshold_ms), "ms");
        out.metric("slo_ratio", self.slo_ratio, "share");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        out.metric("store_mb", self.store_mb, "MB");
    }
}

/// Layer metrics every traced run prints; a workload fills what its path
/// measures (see the README's glossary for each workload's definition).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub datagen_generate_s: f64,
    pub stdata_scalar_s: f64,
    pub topology_features_s: f64,
    pub store_save_s: f64,
    pub store_shard_s: f64,
    pub store_open_s: f64,
    pub core_plan_s: f64,
    pub core_expand_s: f64,
    pub core_evaluate_s: f64,
    pub core_assemble_s: f64,
    pub core_tasks: f64,
    pub stats_mc_s: f64,
    pub stats_mc_ns_per_perm: f64,
    pub mapreduce_efficiency: f64,
    pub core_pql_parse_us: f64,
    pub store_render_us: f64,
    pub core_query_cache_hit_ratio: f64,
    pub serve_mean_batch: f64,
    pub serve_overhead_us: f64,
    pub store_open_lazy_ms: f64,
    pub store_pin_ms: f64,
    pub store_bytes_per_probe: f64,
    pub store_segment_faults: f64,
    pub core_query_ms: f64,
    pub bench_lateness_p99_ms: f64,
    pub bench_miss_share: f64,
    pub obs_trace_overhead: f64,
    pub obs_attributed: f64,
}

impl Layers {
    pub fn report(&self, out: &mut Report) {
        let l = self;
        out.metric("datagen.generate_s", l.datagen_generate_s, "s");
        out.metric("stdata.scalar_s", l.stdata_scalar_s, "s");
        out.metric("topology.features_s", l.topology_features_s, "s");
        out.metric("store.save_s", l.store_save_s, "s");
        out.metric("store.shard_s", l.store_shard_s, "s");
        out.metric("store.open_s", l.store_open_s, "s");
        out.metric("core.plan_s", l.core_plan_s, "s");
        out.metric("core.expand_s", l.core_expand_s, "s");
        out.metric("core.evaluate_s", l.core_evaluate_s, "s");
        out.metric("core.assemble_s", l.core_assemble_s, "s");
        out.metric("core.tasks", l.core_tasks, "count");
        out.metric("stats.mc_s", l.stats_mc_s, "s");
        out.metric("stats.mc_ns_per_perm", l.stats_mc_ns_per_perm, "ns");
        out.metric("mapreduce.efficiency", l.mapreduce_efficiency, "share");
        out.metric("core.pql.parse_us", l.core_pql_parse_us, "us");
        out.metric("store.render_us", l.store_render_us, "us");
        out.metric(
            "core.query_cache.hit_ratio",
            l.core_query_cache_hit_ratio,
            "share",
        );
        out.metric("serve.mean_batch", l.serve_mean_batch, "count");
        out.metric("serve.overhead_us", l.serve_overhead_us, "us");
        out.metric("store.open_lazy_ms", l.store_open_lazy_ms, "ms");
        out.metric("store.pin_ms", l.store_pin_ms, "ms");
        out.metric("store.bytes_per_probe", l.store_bytes_per_probe, "bytes");
        out.metric("store.segment_faults", l.store_segment_faults, "count");
        out.metric("core.query_ms", l.core_query_ms, "ms");
        out.metric("bench.lateness_p99_ms", l.bench_lateness_p99_ms, "ms");
        out.metric("bench.miss_share", l.bench_miss_share, "share");
        out.metric("obs.trace_overhead", l.obs_trace_overhead, "share");
        out.metric("obs.attributed", l.obs_attributed, "share");
    }
}

/// Per-op timings every workload collects for its traced run.
#[derive(Default)]
pub struct OpTimes {
    /// Latency of ops recorded with spans, milliseconds.
    pub traced_ms: Vec<f64>,
    /// Latency of the interleaved ops recorded without, milliseconds.
    pub untraced_ms: Vec<f64>,
    /// How late each op was issued, milliseconds: after its due time in
    /// an open loop, after the previous op ended in a closed loop.
    pub lateness_ms: Vec<f64>,
}

impl Layers {
    /// The layer metrics every workload measures the same way: set-up
    /// phases (and a shard migration where the set-up had none), the time
    /// outside every layer, lateness and tracing overhead. `attributed` is
    /// the share of the wall time the workload's reconciliation accounted
    /// for.
    pub fn base(
        ctx: &Ctx,
        setup: &crate::setup::Setup,
        times: &OpTimes,
        attributed: f64,
    ) -> Result<Layers, String> {
        let tr = &ctx.tracer;
        let ops = tr.durations_s("op").len().max(1) as f64;
        let store_shard_s = if setup.phases.shard > 0.0 {
            setup.phases.shard
        } else {
            let t = now();
            polygamy_store::shard_store(
                &setup.corpus.monolith,
                ctx.work.join("layer-sharded.plst"),
                crate::setup::SERVE_SHARDS,
            )
            .map_err(|e| e.to_string())?;
            t.elapsed().as_secs_f64()
        };
        Ok(Layers {
            datagen_generate_s: setup.phases.datagen,
            stdata_scalar_s: setup.phases.scalar,
            topology_features_s: setup.phases.features,
            store_save_s: setup.phases.save,
            store_shard_s,
            serve_overhead_us: tr.self_times().get("op").copied().unwrap_or(0.0) / ops * 1e6,
            bench_lateness_p99_ms: quantile(&times.lateness_ms, 0.99),
            obs_trace_overhead: median(&times.traced_ms) / median(&times.untraced_ms) - 1.0,
            obs_attributed: attributed,
            ..Layers::default()
        })
    }
}
