//! `serve`: interactive analysts sending PQL to the daemon. A fresh
//! `polygamy-store serve --lazy` runs over a 3-shard migration of the
//! store; one generator drives it open loop over `SERVE.connections`
//! connections with seeded exponential arrival gaps and Zipf popularity
//! over a seeded catalog. Latency runs from each request's due time, so a
//! stall on one connection shows up in every request queued behind it.
//! Every response is checked byte for byte against an eager session on
//! the monolith (`execute_pql_query(..).to_json()`); the unknown-name
//! requests must get the typed `query` error frame.

use crate::common::{
    mean, median, now, time_per_call_us, Counters, Ctx, EndToEnd, Layers, OpTimes, Report,
};
use crate::gen::{self, Query, Request, SERVE};
use crate::inproc::{cold_pin, efficiency};
use crate::setup::{self, SERVE_SHARDS};
use polygamy_core::pql::parse_query;
use polygamy_obs::{names, MetricsSnapshot};
use polygamy_serve::{Client, Response};
use polygamy_store::{execute_pql_query, StoreSession};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
struct Sent {
    query: usize,
    /// Seconds after the run's start: when it was due, sent and answered.
    due: f64,
    sent: f64,
    done: f64,
    response: Result<Response, String>,
    traced: bool,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    fn round_trip_us(&self) -> f64 {
        (self.done - self.sent) * 1e6
    }
}

fn metrics(client: &mut Client) -> Result<MetricsSnapshot, String> {
    client.metrics().map_err(|e| format!("metrics frame: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut setup = setup::run(ctx, SERVE_SHARDS, true, false)?;
    let (daemon, mut control) = setup.daemon.take().ok_or("the set-up started no daemon")?;
    let corpus = setup.corpus.clone();
    let cat = gen::serve_catalog(
        ctx.seed,
        &corpus.names,
        gen::fresh_count(&SERVE, ctx.seconds),
    );
    let catalog = &cat.queries;
    let requests = gen::serve_requests(ctx.seed, &cat, &SERVE, ctx.seconds);

    // Warm-up: every warm query once, back to back: all cache misses.
    let warm_requests: Vec<Request> = cat
        .warm
        .iter()
        .map(|&query| Request { due_s: 0.0, query })
        .collect();
    let ma = metrics(&mut control)?;
    let warm_sent = drive(ctx, &daemon.addr, catalog, &warm_requests, false);
    let mb = metrics(&mut control)?;
    let warm = Counters::of(&mb).since(&Counters::of(&ma));

    // The measured window.
    let m0 = metrics(&mut control)?;
    let sent = drive(ctx, &daemon.addr, catalog, &requests, ctx.traced);
    let m1 = metrics(&mut control)?;
    let rss = crate::common::peak_rss_mb(Some(daemon.pid()));
    let window = Counters::of(&m1).since(&Counters::of(&m0));
    let window_s = sent.iter().map(|s| s.done).fold(0.0, f64::max);

    // The Monte Carlo share (traced runs): the window's misses again at 0
    // permutations, on the same daemon.
    let mut zero_evaluate_ns = 0;
    if ctx.traced {
        let before = Counters::of(&metrics(&mut control)?);
        for &q in &cat.fresh {
            let text = catalog[q].text.replace(
                &format!("permutations = {}", gen::SERVE_PERMUTATIONS),
                "permutations = 0",
            );
            control
                .request(&text)
                .map_err(|e| format!("zero-permutation request: {e}"))?;
        }
        zero_evaluate_ns = Counters::of(&metrics(&mut control)?)
            .since(&before)
            .evaluate_ns;
    }
    daemon.stop(control)?;

    // The reference: an eager session on the monolith.
    let t = now();
    let eager = StoreSession::open(&corpus.monolith).map_err(|e| e.to_string())?;
    let eager_open_s = t.elapsed().as_secs_f64();
    let mut reference: HashMap<usize, Result<String, String>> = HashMap::new();
    let mut render_us = Vec::new();
    for q in warm_sent.iter().chain(&sent).map(|s| s.query) {
        if reference.contains_key(&q) {
            continue;
        }
        let answer = match execute_pql_query(&eager, &catalog[q].text) {
            Ok(outcome) => {
                if ctx.traced {
                    render_us.push(time_per_call_us(|| outcome.to_json()));
                }
                Ok(outcome.to_json())
            }
            Err(e) => Err(e.to_string()),
        };
        reference.insert(q, answer);
    }
    drop(eager);

    let mut report = Report::default();
    let mut within = 0u64;
    for (k, s) in warm_sent.iter().chain(&sent).enumerate() {
        report.attempted += 1;
        let q = &catalog[s.query];
        let ok = match (&s.response, &reference[&s.query]) {
            (Ok(Response::Error(e)), Err(_)) => q.expect_error && e.error == "query",
            (Ok(Response::Results(body)), Ok(expected)) => !q.expect_error && body == expected,
            _ => false,
        };
        if !ok {
            report.failed += 1;
            let got = match &s.response {
                Ok(Response::Results(b)) => format!("{} bytes of results", b.len()),
                Ok(Response::Error(e)) => format!("{} error: {}", e.error, e.message),
                Err(e) => e.clone(),
            };
            eprintln!("serve: wrong answer for `{}`: {got}", q.text);
        } else if k >= warm_sent.len() && s.latency_ms() <= SERVE.limit_ms {
            within += 1;
        }
    }
    corpus.facts(&mut report, corpus.sharded_bytes, warm.tasks + window.tasks);
    report.fact("requests", sent.len());
    report.fact("warm_queries", warm_sent.len());
    report.fact("rate_per_s", SERVE.rate);
    report.fact("zipf_s", SERVE.zipf_s);
    report.fact("limit_ms", SERVE.limit_ms);
    report.fact("miss_share", window.evaluate_ns as f64 / 1e9 / window_s);

    // The daemon's miss throughput: tasks over the fresh requests' round
    // trips (only misses expand tasks).
    let fresh_s: f64 = sent
        .iter()
        .filter(|s| cat.fresh.contains(&s.query))
        .map(|s| s.done - s.sent)
        .sum();
    if !ctx.traced {
        // One value per threshold query: its median latency. Their answers
        // differ in size by data set, and a median over requests would
        // follow whichever one the seed made most popular.
        let mut threshold_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in sent.iter().filter(|s| catalog[s.query].thresholds) {
            threshold_ms
                .entry(s.query)
                .or_default()
                .push(s.latency_ms());
        }
        EndToEnd {
            setup_s: setup.setup_s,
            tasks_per_s: window.tasks as f64 / fresh_s,
            latencies_ms: sent.iter().map(Sent::latency_ms).collect(),
            threshold_ms: threshold_ms.values().map(|v| median(v)).collect(),
            slo_ratio: within as f64 / sent.len() as f64,
            peak_rss_mb: rss,
            store_mb: corpus.sharded_bytes as f64 / 1e6,
        }
        .report(&mut report);
        return Ok(report);
    }

    let times = OpTimes {
        traced_ms: sent
            .iter()
            .filter(|s| s.traced)
            .map(Sent::latency_ms)
            .collect(),
        untraced_ms: sent
            .iter()
            .filter(|s| !s.traced)
            .map(Sent::latency_ms)
            .collect(),
        lateness_ms: sent.iter().map(|s| (s.sent - s.due) * 1e3).collect(),
    };
    let parse_us: Vec<f64> = catalog
        .iter()
        .map(|q| time_per_call_us(|| parse_query(&q.text)))
        .collect();
    // The offline hit path on a lazy session over the same sharded store:
    // parse + query (a cache hit) + render, per answered query.
    let mut opens = vec![];
    let mut session = None;
    for _ in 0..3 {
        let t = now();
        session = Some(StoreSession::open_lazy(&corpus.sharded).map_err(|e| e.to_string())?);
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let session = session.expect("opened three times");
    let mut offline: HashMap<usize, Offline> = HashMap::new();
    for s in &sent {
        if !offline.contains_key(&s.query) && !catalog[s.query].expect_error {
            offline.insert(s.query, offline_hit(&session, &catalog[s.query].text)?);
        }
    }
    drop(session);
    let overheads: Vec<f64> = sent
        .iter()
        .filter(|s| cat.warm.contains(&s.query))
        .map(|s| s.round_trip_us() - offline[&s.query].total_us)
        .collect();
    let overhead_us = median(&overheads);
    let attributed = reconcile(&sent, &cat.warm, &window, &parse_us, &offline)?;
    let mut l = Layers::base(ctx, &setup, &times, attributed)?;
    let n = sent.len() as f64;
    let per = |ns: u64| ns as f64 / 1e9 / n;
    l.store_open_s = eager_open_s;
    l.core_plan_s = per(window.plan_ns);
    l.core_expand_s = per(window.expand_ns);
    l.core_evaluate_s = per(window.evaluate_ns);
    l.core_assemble_s = per(window.assemble_ns);
    l.core_tasks = window.tasks as f64 / n;
    let mc_ns = window.evaluate_ns as f64 - zero_evaluate_ns as f64;
    l.stats_mc_s = mc_ns / 1e9 / n;
    l.stats_mc_ns_per_perm = mc_ns / (window.tasks.max(1) as f64 * gen::SERVE_PERMUTATIONS as f64);
    let texts: Vec<String> = cat
        .warm
        .iter()
        .chain(&cat.fresh)
        .map(|&q| catalog[q].text.clone())
        .collect();
    l.mapreduce_efficiency = efficiency(&corpus.monolith, &texts)?;
    l.core_pql_parse_us = mean(&parse_us);
    l.store_render_us = mean(&render_us);
    l.core_query_cache_hit_ratio = window.hit_ratio();
    let batches = |m: &MetricsSnapshot| {
        m.histogram(names::SERVE_BATCH_SIZE)
            .map_or((0, 0), |h| (h.sum, h.count()))
    };
    let ((s0, c0), (s1, c1)) = (batches(&m0), batches(&m1));
    l.serve_mean_batch = (s1 - s0) as f64 / (c1 - c0).max(1) as f64;
    // First touches happen in the warm-up.
    l.store_bytes_per_probe = warm.bytes as f64 / cat.warm.len() as f64;
    l.store_segment_faults = warm.faults as f64 / cat.warm.len() as f64;
    l.bench_miss_share = window.evaluate_ns as f64 / 1e9 / window_s;

    l.store_open_lazy_ms = median(&opens);
    let warm_us: Vec<f64> = cat.warm.iter().map(|q| offline[q].total_us).collect();
    l.core_query_ms = median(&warm_us) / 1e3;
    l.serve_overhead_us = overhead_us;
    let pins: Vec<f64> = cat
        .fresh
        .iter()
        .take(5)
        .map(|&q| cold_pin(&corpus.sharded, &catalog[q].text).map(|(ms, _, _)| ms))
        .collect::<Result<_, _>>()?;
    l.store_pin_ms = median(&pins);
    l.report(&mut report);
    Ok(report)
}

/// The in-process hit path of one query: parse, `StoreSession::query`
/// (a cache hit, segments resident) and render, microseconds per call,
/// and the part of it the executor's stage timers measured.
struct Offline {
    total_us: f64,
    stages_us: f64,
}

/// Answers `text` once on `session` (a miss that fills the query cache),
/// then times its hit path over enough calls to last ~20 ms.
fn offline_hit(session: &StoreSession, text: &str) -> Result<Offline, String> {
    let answer = || execute_pql_query(session, text).map(|o| o.to_json());
    answer().map_err(|e| format!("{text}: {e}"))?;
    let before = Counters::now();
    let start = now();
    let mut calls = 0u64;
    while calls < 10 || start.elapsed().as_secs_f64() < 0.02 {
        std::hint::black_box(answer().expect("answered once already"));
        calls += 1;
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6 / calls as f64;
    let stages_ns: u64 = Counters::now()
        .since(&before)
        .stage_parts()
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    Ok(Offline {
        total_us,
        stages_us: stages_ns as f64 / 1e3 / calls as f64,
    })
}

/// Checks the window against the daemon's own figures, as the traced
/// run's reconciliation. The wall time is the time the daemon held a
/// request of the generator's: the union of the requests' send-to-answer
/// intervals, so a request queued behind a miss does not count twice. The
/// layers that must account for it:
/// - the daemon's executor stage times over the window (`M` frames);
/// - per request, the rest of its hit path measured in this process
///   (parse, pin, the query outside the stage timers, render; parse only
///   for the unknown-name requests);
/// - per request, the serving overhead (wire, connection thread and
///   coalescer): the mean round trip, less the in-process hit path, of the
///   hits (`warm` queries) that had the daemon to themselves. A mean, so
///   the host's wake-up tail on thousands of sub-millisecond hits is
///   accounted for rather than left over.
///
/// Work the daemon does outside these — a miss whose round trip its stage
/// times do not cover, a render that differs from the library's, time
/// lost between requests — leaves the share below 1; stage times that do
/// not fit the time requests were in flight leave it above. Either by
/// more than `MAX_UNATTRIBUTED` fails the run. Returns attributed / wall
/// time.
fn reconcile(
    sent: &[Sent],
    warm: &[usize],
    window: &Counters,
    parse_us: &[f64],
    offline: &HashMap<usize, Offline>,
) -> Result<f64, String> {
    // Busy periods: (start, end, requests) of each maximal run of
    // overlapping requests.
    let mut order: Vec<&Sent> = sent.iter().collect();
    order.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let mut busy: Vec<(f64, f64, Vec<&Sent>)> = Vec::new();
    for s in order {
        match busy.last_mut() {
            Some((_, end, members)) if s.sent <= *end => {
                *end = end.max(s.done);
                members.push(s);
            }
            _ => busy.push((s.sent, s.done, vec![s])),
        }
    }
    let busy_s: f64 = busy.iter().map(|(start, end, _)| end - start).sum();
    let solo: Vec<f64> = busy
        .iter()
        .filter(|(_, _, members)| members.len() == 1 && warm.contains(&members[0].query))
        .map(|(_, _, members)| members[0].round_trip_us() - offline[&members[0].query].total_us)
        .collect();
    if solo.is_empty() {
        return Err("no hit in the window had the daemon to itself".into());
    }
    let overhead_us = mean(&solo);
    let stages_s = window
        .stage_parts()
        .iter()
        .map(|(_, ns)| *ns as f64 / 1e9)
        .sum::<f64>();
    // The per-request terms of overlapping requests run on both
    // connections' threads at once, so in one busy period they count for
    // at most its wall time. The stage times are not capped: the
    // dispatcher runs one batch at a time.
    let rest_s: f64 = busy
        .iter()
        .map(|(start, end, members)| {
            let terms_us: f64 = members
                .iter()
                .map(|s| {
                    overhead_us
                        + offline
                            .get(&s.query)
                            .map_or(parse_us[s.query], |o| o.total_us - o.stages_us)
                })
                .sum();
            (terms_us / 1e6).min(end - start)
        })
        .sum();
    let share = (stages_s + rest_s) / busy_s;
    if (share - 1.0).abs() > crate::MAX_UNATTRIBUTED {
        return Err(format!(
            "the daemon's stage times ({stages_s:.3}s) and each request's hit path and \
             serving overhead ({rest_s:.3}s) account for {:.1}% of {busy_s:.3}s busy \
             time, outside 100 ± {:.1}%",
            share * 100.0,
            crate::MAX_UNATTRIBUTED * 100.0
        ));
    }
    Ok(share)
}

/// Sends `requests` open loop over `SERVE.connections` connections. A
/// connection takes the next request in schedule order when it is free,
/// waits for its due time, sends it and waits for the answer — the
/// protocol allows one request in flight per connection.
fn drive(
    ctx: &Ctx,
    addr: &str,
    catalog: &[Query],
    requests: &[Request],
    traced: bool,
) -> Vec<Sent> {
    let tr = &ctx.tracer;
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(requests.len()));
    let start = now() + Duration::from_millis(100);
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    std::thread::scope(|scope| {
        for _ in 0..SERVE.connections {
            scope.spawn(|| {
                let mut client = Client::connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let due = start + Duration::from_secs_f64(req.due_s);
                    wait_until(due);
                    let on = traced && i % 2 == 1;
                    let root = on.then(|| tr.open());
                    let sent_at = now();
                    if client.is_none() {
                        client = Client::connect(addr).ok();
                    }
                    let response = match client.as_mut() {
                        Some(c) => c
                            .request(&catalog[req.query].text)
                            .map_err(|e| e.to_string()),
                        None => Err("cannot connect".to_string()),
                    };
                    if response.is_err() {
                        client = None;
                    }
                    let done_at = now();
                    if let Some(id) = root {
                        let r = i as u64;
                        let late = tr.open();
                        tr.record(late, "bench.lateness", Some(id), r, due, sent_at);
                        let trip = tr.open();
                        tr.record(trip, "serve.round_trip", Some(id), r, sent_at, done_at);
                        tr.record(id, "op", None, r, due.min(sent_at), done_at);
                    }
                    out.lock().expect("results").push(Sent {
                        query: req.query,
                        due: req.due_s,
                        sent: at(sent_at),
                        done: at(done_at),
                        response,
                        traced: on,
                    });
                }
            });
        }
    });
    out.into_inner().expect("results")
}

/// Sleeps until shortly before `at`, then spins, so requests leave on
/// time: a plain sleep oversleeps by tens of microseconds, which would
/// count as latency.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let t = now();
    if at > t + SPIN {
        std::thread::sleep(at - t - SPIN);
    }
    while now() < at {
        std::hint::spin_loop();
    }
}
