//! `discover`: batch relationship discovery (paper Figs. 9–10). Each
//! repetition opens a fresh eager session on the monolithic store, so the
//! query cache starts cold, runs the all-pairs query at 40 permutations
//! with `include insignificant`, then a few `thresholds` queries on the
//! same session. Every answer is checked against the in-memory
//! `DataPolygamy::query` answer the set-up computed for the seed.

use crate::common::{
    mean, median, now, peak_rss_mb, time_per_call_us, Counters, Ctx, EndToEnd, Layers, OpTimes,
    Report,
};
use crate::gen;
use crate::inproc::{answer, cold_pin, efficiency};
use crate::setup;
use polygamy_core::pql::parse_query;
use polygamy_store::StoreSession;

/// Latency limit of one repetition for `slo_ratio`, milliseconds: about
/// twice the slowest repetition seen on the baseline host (2 vCPUs, 10–16
/// s). A run makes one or two repetitions, so the share reads 1 unless a
/// repetition takes twice as long; a tighter limit would flip on the
/// host's own swings in speed.
pub const LIMIT_MS: f64 = 30_000.0;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let setup = setup::run(ctx, 0, false, true)?;
    let corpus = &setup.corpus;
    let refs: Vec<String> = std::fs::read_to_string(ctx.work.join("discover.ref"))
        .map_err(|e| e.to_string())?
        .lines()
        .map(str::to_string)
        .collect();
    let thresholds = gen::discover_threshold_queries(ctx.seed, &corpus.names);
    let tr = &ctx.tracer;

    let mut report = Report::default();
    let (mut rep_ms, mut thr_ms) = (vec![], vec![]);
    let (mut tasks, mut busy_s, mut within) = (0u64, 0.0, 0u64);
    let mut times = OpTimes::default();
    let mut per_rep: Vec<Counters> = vec![];
    let start = now();
    let mut last_end = None;
    let mut rep = 0u64;
    // Repetitions run until `--seconds` have passed. A traced run
    // alternates untraced and traced repetitions, so the two can be
    // compared: that difference is the tracing overhead.
    let min_reps = if ctx.traced { 2 } else { 1 };
    while rep < min_reps || start.elapsed().as_secs_f64() < ctx.seconds {
        let on = ctx.traced && rep % 2 == 1;
        let root = on.then(|| tr.open());
        let t0 = now();
        if let Some(end) = last_end {
            times
                .lateness_ms
                .push(t0.saturating_duration_since(end).as_secs_f64() * 1e3);
        }
        let request = rep * 100;
        let (session, _) = tr.maybe(on, "store.open", root, request, || {
            StoreSession::open(&corpus.monolith)
        });
        let session = session.map_err(|e| e.to_string())?;
        let got = answer(tr, on, root, request, &session, gen::DISCOVER_QUERY, false)?;
        let t1 = now();
        if let Some(id) = root {
            tr.record(id, "op", None, request, t0, t1);
        }
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        tasks += got.counters.tasks;
        busy_s += (t1 - t0).as_secs_f64();
        per_rep.push(got.counters);
        report.attempted += 1;
        let ok = got.json == refs[0];
        if !ok {
            report.failed += 1;
            eprintln!("discover: all-pairs answer differs from the reference");
        }
        if ok && ms <= LIMIT_MS {
            within += 1;
        }
        rep_ms.push(ms);
        if on {
            times.traced_ms.push(ms);
        } else {
            times.untraced_ms.push(ms);
        }
        let mut rep_thr_ms = vec![];
        for (k, q) in thresholds.iter().enumerate() {
            let request = rep * 100 + 1 + k as u64;
            let root = on.then(|| tr.open());
            let t0 = now();
            let got = answer(tr, on, root, request, &session, &q.text, false)?;
            let t1 = now();
            if let Some(id) = root {
                tr.record(id, "op", None, request, t0, t1);
            }
            rep_thr_ms.push((t1 - t0).as_secs_f64() * 1e3);
            report.attempted += 1;
            if got.json != refs[1 + k] {
                report.failed += 1;
                eprintln!(
                    "discover: answer differs from the reference for `{}`",
                    q.text
                );
            }
        }
        // One value per repetition: the mean over its threshold queries,
        // whose costs differ by data set.
        thr_ms.push(mean(&rep_thr_ms));
        last_end = Some(now());
        rep += 1;
    }
    let rss = peak_rss_mb(None);
    corpus.facts(&mut report, corpus.monolith_bytes, per_rep[0].tasks);
    report.fact("repetitions", rep);

    if !ctx.traced {
        EndToEnd {
            setup_s: setup.setup_s,
            tasks_per_s: tasks as f64 / busy_s,
            latencies_ms: rep_ms,
            threshold_ms: thr_ms,
            slo_ratio: within as f64 / rep as f64,
            peak_rss_mb: rss,
            store_mb: corpus.monolith_bytes as f64 / 1e6,
        }
        .report(&mut report);
        return Ok(report);
    }

    // Per-layer measurements of the traced run.
    let attributed = tr.reconcile("op", &["core.query"], crate::MAX_UNATTRIBUTED)?;
    let mut l = Layers::base(ctx, &setup, &times, attributed)?;
    // Request ids: `rep * 100` for the all-pairs query, `rep * 100 + k`
    // for the threshold queries after it.
    let all_pairs = |r: u64| r.is_multiple_of(100);
    let traced_reps = tr.durations_s("store.open").len() as f64;
    let per = |name: &str| tr.part_s_for(name, all_pairs) / traced_reps;
    let evaluate_40 = per("core.evaluate");
    l.store_open_s = mean(&tr.durations_s("store.open"));
    l.core_plan_s = per("core.plan");
    l.core_expand_s = per("core.expand");
    l.core_evaluate_s = evaluate_40;
    l.core_assemble_s = per("core.assemble");
    l.core_tasks = per_rep[0].tasks as f64;
    l.core_query_cache_hit_ratio = per_rep[0].hit_ratio();
    l.serve_mean_batch =
        per_rep.iter().map(|c| c.queries).sum::<u64>() as f64 / per_rep.len() as f64;
    l.store_render_us = mean(&tr.durations_s_for("store.render", all_pairs)) * 1e6;
    // The threshold queries run on a session whose segments are resident.
    l.core_query_ms = mean(&tr.durations_s_for("core.query", |r| !all_pairs(r))) * 1e3;
    l.bench_miss_share = per_rep.iter().map(|c| c.evaluate_ns).sum::<u64>() as f64 / 1e9 / busy_s;

    // Monte Carlo share: the same query at 0 permutations.
    let zero = gen::DISCOVER_QUERY.replace("permutations = 40", "permutations = 0");
    let session = StoreSession::open(&corpus.monolith).map_err(|e| e.to_string())?;
    let got = answer(tr, false, None, 0, &session, &zero, false)?;
    l.stats_mc_s = evaluate_40 - got.counters.evaluate_ns as f64 / 1e9;
    l.stats_mc_ns_per_perm = l.stats_mc_s * 1e9 / (l.core_tasks * 40.0);
    drop(session);

    // Parallel efficiency on the all-pairs query restricted to one
    // resolution (the full query would take minutes on one worker).
    let restricted = gen::DISCOVER_QUERY.replace(
        "and include",
        "and resolution = neighborhood-day and include",
    );
    l.mapreduce_efficiency = efficiency(&corpus.monolith, &[restricted])?;

    let mut texts = vec![gen::DISCOVER_QUERY.to_string()];
    texts.extend(thresholds.iter().map(|q| q.text.clone()));
    l.core_pql_parse_us = mean(
        &texts
            .iter()
            .map(|t| time_per_call_us(|| parse_query(t)))
            .collect::<Vec<_>>(),
    );

    // Lazy open and a cold pin of the whole all-pairs footprint.
    let mut opens = vec![];
    for _ in 0..3 {
        let t = now();
        drop(StoreSession::open_lazy(&corpus.monolith).map_err(|e| e.to_string())?);
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    l.store_open_lazy_ms = median(&opens);
    let (pin_ms, bytes, faults) = cold_pin(&corpus.monolith, gen::DISCOVER_QUERY)?;
    l.store_pin_ms = pin_ms;
    l.store_bytes_per_probe = bytes;
    l.store_segment_faults = faults;

    l.report(&mut report);
    Ok(report)
}
