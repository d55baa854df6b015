//! `cold-probe`: the time to a first answer from a cold store. Each probe
//! opens a fresh lazy session on the monolithic store, pins one
//! single-pair query's footprint and answers it at `permutations = 0`
//! (scores only, no Monte Carlo test). Probes come in seeded rounds of
//! every pair plus one `thresholds` probe per data set — the only clause
//! that reads the dense fields — so one probe in five reads them.
//! Answers are checked byte for byte against an eager session's.

use crate::common::{
    mean, median, now, peak_rss_mb, time_per_call_us, Counters, Ctx, EndToEnd, Layers, OpTimes,
    Report,
};
use crate::gen;
use crate::inproc::{answer, efficiency, fresh_counters};
use crate::setup;
use polygamy_core::framework::Config;
use polygamy_core::pql::parse_query;
use polygamy_mapreduce::Cluster;
use polygamy_store::{LoadFilter, SourceBackend, StoreSession};
use std::collections::HashMap;
use std::time::Instant;

/// Latency limit of one probe for `slo_ratio`, milliseconds: about the
/// 95th percentile on the baseline host (2 vCPUs), so a slowdown of the
/// slower probes moves the share.
pub const LIMIT_MS: f64 = 150.0;

/// Distinct probe queries the traced run re-evaluates to split off the
/// Monte Carlo kernel.
const MC_SAMPLE: usize = 6;

struct Probe {
    round: u32,
    text: String,
    thresholds: bool,
    ms: f64,
    json: String,
    counters: Counters,
    bytes: u64,
    traced: bool,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let setup = setup::run(ctx, 0, false, false)?;
    let corpus = &setup.corpus;
    let tr = &ctx.tracer;
    let mut probes: Vec<Probe> = Vec::new();
    let mut times = OpTimes::default();
    let start = now();
    let mut last_end: Option<Instant> = None;
    let mut i = 0usize;
    let mut round = 0u32;
    // Whole rounds only, so every run probes the same mix of pairs.
    while round < gen::MIN_PROBE_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        for q in gen::probe_round(ctx.seed, &corpus.names, round) {
            let on = ctx.traced && i % 2 == 1;
            let request = i as u64;
            let root = on.then(|| tr.open());
            let t0 = now();
            if let Some(end) = last_end {
                times
                    .lateness_ms
                    .push(t0.saturating_duration_since(end).as_secs_f64() * 1e3);
            }
            let (session, _) = tr.maybe(on, "store.open_lazy", root, request, || {
                StoreSession::open_lazy_with(
                    &corpus.monolith,
                    Config::default(),
                    &LoadFilter::all(),
                    SourceBackend::PositionedRead,
                )
            });
            let session = session.map_err(|e| e.to_string())?;
            let opened = session.bytes_fetched();
            let got = answer(tr, on, root, request, &session, &q.text, true)?;
            let t1 = now();
            if let Some(id) = root {
                tr.record(id, "op", None, request, t0, t1);
            }
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            if on {
                times.traced_ms.push(ms);
            } else {
                times.untraced_ms.push(ms);
            }
            probes.push(Probe {
                round,
                text: q.text,
                thresholds: q.thresholds,
                ms,
                json: got.json,
                counters: got.counters,
                bytes: session.bytes_fetched() - opened,
                traced: on,
            });
            drop(session);
            last_end = Some(now());
            i += 1;
        }
        round += 1;
    }
    let rss = peak_rss_mb(None);

    // The reference: the same queries on one eager session.
    let t = now();
    let eager = StoreSession::open(&corpus.monolith).map_err(|e| e.to_string())?;
    let eager_open_s = t.elapsed().as_secs_f64();
    let mut reference: HashMap<String, String> = HashMap::new();
    let mut report = Report::default();
    let mut within = 0u64;
    for p in &probes {
        if !reference.contains_key(&p.text) {
            let got = answer(tr, false, None, 0, &eager, &p.text, false)?;
            reference.insert(p.text.clone(), got.json);
        }
        report.attempted += 1;
        if p.json == reference[&p.text] {
            within += u64::from(p.ms <= LIMIT_MS);
        } else {
            report.failed += 1;
            eprintln!(
                "cold-probe: answer differs from the eager session's for `{}`",
                p.text
            );
        }
    }
    drop(eager);
    let tasks: u64 = probes.iter().map(|p| p.counters.tasks).sum();
    corpus.facts(&mut report, corpus.monolith_bytes, tasks);
    report.fact("probes", probes.len());
    report.fact("distinct_queries", reference.len());

    if !ctx.traced {
        let busy_s: f64 = probes.iter().map(|p| p.ms).sum::<f64>() / 1e3;
        EndToEnd {
            setup_s: setup.setup_s,
            tasks_per_s: tasks as f64 / busy_s,
            latencies_ms: probes.iter().map(|p| p.ms).collect(),
            threshold_ms: round_means(&probes),
            slo_ratio: within as f64 / probes.len() as f64,
            peak_rss_mb: rss,
            store_mb: corpus.monolith_bytes as f64 / 1e6,
        }
        .report(&mut report);
        return Ok(report);
    }

    let attributed = tr.reconcile("op", &["core.query"], crate::MAX_UNATTRIBUTED)?;
    let mut l = Layers::base(ctx, &setup, &times, attributed)?;
    let traced: Vec<&Probe> = probes.iter().filter(|p| p.traced).collect();
    let n = traced.len() as f64;
    let per = |name: &str| tr.part_s(name) / n;
    let ms = |name: &str| median(&tr.durations_s(name)) * 1e3;
    l.store_open_s = eager_open_s;
    l.core_plan_s = per("core.plan");
    l.core_expand_s = per("core.expand");
    l.core_evaluate_s = per("core.evaluate");
    l.core_assemble_s = per("core.assemble");
    l.core_tasks = traced.iter().map(|p| p.counters.tasks).sum::<u64>() as f64 / n;
    let mut distinct: Vec<String> = reference.keys().cloned().collect();
    distinct.sort();
    // The Monte Carlo share: evaluate of a sample of the probes as issued
    // minus the same queries at 0 permutations, on fresh eager sessions.
    // The probes run none, so it stays near 0 unless they start paying
    // for the kernel. The kernel's cost per permutation is measured on the
    // same sample at the other workloads' 40 permutations. Each is the
    // median of three alternating runs: single runs swing by tens of
    // milliseconds on a shared host.
    let step = (distinct.len() / MC_SAMPLE).max(1);
    let sample: Vec<String> = distinct
        .iter()
        .step_by(step)
        .take(MC_SAMPLE)
        .cloned()
        .collect();
    let at = |perms: u32| -> Vec<String> {
        sample
            .iter()
            .map(|t| t.replace("permutations = 0", &format!("permutations = {perms}")))
            .collect()
    };
    let host = Cluster::host();
    let (mut issued, mut zero, mut forty) = (vec![], vec![], vec![]);
    let mut forty_tasks = 0;
    for _ in 0..3 {
        issued.push(fresh_counters(&corpus.monolith, host, &sample)?.evaluate_ns as f64);
        zero.push(fresh_counters(&corpus.monolith, host, &at(0))?.evaluate_ns as f64);
        let c = fresh_counters(&corpus.monolith, host, &at(40))?;
        forty.push(c.evaluate_ns as f64);
        forty_tasks = c.tasks;
    }
    let zero = median(&zero);
    l.stats_mc_s = (median(&issued) - zero) / 1e9 / sample.len() as f64;
    l.stats_mc_ns_per_perm = (median(&forty) - zero) / (forty_tasks.max(1) as f64 * 40.0);
    distinct.truncate(24);
    l.mapreduce_efficiency = efficiency(&corpus.monolith, &distinct)?;
    l.core_pql_parse_us = mean(
        &distinct
            .iter()
            .map(|t| time_per_call_us(|| parse_query(t)))
            .collect::<Vec<_>>(),
    );
    l.store_render_us = mean(&tr.durations_s("store.render")) * 1e6;
    let hits: u64 = traced.iter().map(|p| p.counters.hits).sum();
    let misses: u64 = traced.iter().map(|p| p.counters.misses).sum();
    l.core_query_cache_hit_ratio = Counters {
        hits,
        misses,
        ..Counters::default()
    }
    .hit_ratio();
    l.store_open_lazy_ms = ms("store.open_lazy");
    l.store_pin_ms = ms("store.pin");
    l.core_query_ms = ms("core.query");
    l.store_bytes_per_probe = traced.iter().map(|p| p.bytes).sum::<u64>() as f64 / n;
    l.store_segment_faults = traced.iter().map(|p| p.counters.faults).sum::<u64>() as f64 / n;
    l.serve_mean_batch = traced.iter().map(|p| p.counters.queries).sum::<u64>() as f64 / n;
    let busy_s: f64 = traced.iter().map(|p| p.ms).sum::<f64>() / 1e3;
    l.bench_miss_share = l.core_evaluate_s * n / busy_s;
    l.report(&mut report);
    Ok(report)
}

/// The mean latency of each round's threshold probes. A round holds one
/// threshold probe per spatial data set, and their costs differ by data
/// set, so the median over rounds of these means is steady where a median
/// over single probes would jump between data sets.
fn round_means(probes: &[Probe]) -> Vec<f64> {
    let rounds = probes.iter().map(|p| p.round).max().map_or(0, |r| r + 1);
    (0..rounds)
        .map(|r| {
            let ms: Vec<f64> = probes
                .iter()
                .filter(|p| p.round == r && p.thresholds)
                .map(|p| p.ms)
                .collect();
            mean(&ms)
        })
        .collect()
}
