//! Calls into the program in this process: answering one PQL query
//! through the store's public API, with a span around each layer call
//! (parse, optional pin, query split by the executor's stage counters,
//! render), and the per-layer probes the traced runs share.

use crate::common::{now, Counters};
use crate::trace::{SpanId, Tracer};
use polygamy_core::framework::Config;
use polygamy_core::pql::parse_query;
use polygamy_mapreduce::Cluster;
use polygamy_store::{LoadFilter, PqlOutcome, StoreSession};
use std::path::Path;

/// One answered query: its canonical JSON and the counter deltas of the
/// pin and the query.
pub struct Answer {
    pub json: String,
    pub counters: Counters,
}

pub fn answer(
    tracer: &Tracer,
    traced: bool,
    parent: Option<SpanId>,
    request: u64,
    session: &StoreSession,
    text: &str,
    pin: bool,
) -> Result<Answer, String> {
    let (query, _) = tracer.maybe(traced, "core.pql.parse", parent, request, || {
        parse_query(text)
    });
    let query = query.map_err(|e| format!("{text}: {e}"))?;
    let before = Counters::now();
    let (pinned, _) = tracer.maybe(traced && pin, "store.pin", parent, request, || {
        match (pin, session.lazy_index()) {
            (true, Some(lazy)) => lazy.pin_for(std::slice::from_ref(&query)).map(Some),
            _ => Ok(None),
        }
    });
    let pinned = pinned.map_err(|e| format!("{text}: {e}"))?;
    let stages_from = Counters::now();
    let (relationships, span) = tracer.maybe(traced, "core.query", parent, request, || {
        session.query(&query)
    });
    let after = Counters::now();
    drop(pinned);
    if let Some(id) = span {
        tracer.add_parts(id, &after.since(&stages_from).stage_parts());
    }
    let relationships = relationships.map_err(|e| format!("{text}: {e}"))?;
    let (json, _) = tracer.maybe(traced, "store.render", parent, request, || {
        PqlOutcome {
            query,
            relationships,
            trace: None,
        }
        .to_json()
    });
    Ok(Answer {
        json,
        counters: after.since(&before),
    })
}

/// The executor's counter deltas over `queries`, answered one after the
/// other on a fresh eager session with `cluster`'s workers.
pub fn fresh_counters(
    store: &Path,
    cluster: Cluster,
    queries: &[String],
) -> Result<Counters, String> {
    let config = Config {
        cluster,
        ..Config::default()
    };
    let session =
        StoreSession::open_with(store, config, &LoadFilter::all()).map_err(|e| e.to_string())?;
    let tr = Tracer::new();
    let before = Counters::now();
    for q in queries {
        answer(&tr, false, None, 0, &session, q, false)?;
    }
    Ok(Counters::now().since(&before))
}

/// Evaluate time of `queries` on one worker over (workers × evaluate time
/// on every host worker), each on a fresh eager session; both are
/// measured twice, alternating, and averaged.
pub fn efficiency(store: &Path, queries: &[String]) -> Result<f64, String> {
    let host = Cluster::host();
    let (mut one, mut all) = (0.0, 0.0);
    for _ in 0..2 {
        one += fresh_counters(store, Cluster::local(1), queries)?.evaluate_ns as f64;
        all += fresh_counters(store, host, queries)?.evaluate_ns as f64;
    }
    Ok(one / (host.workers() as f64 * all))
}

/// Pins `text`'s footprint on a fresh lazy session: milliseconds, bytes
/// read and segments faulted.
pub fn cold_pin(store: &Path, text: &str) -> Result<(f64, f64, f64), String> {
    let session = StoreSession::open_lazy(store).map_err(|e| e.to_string())?;
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let lazy_bytes = session.bytes_fetched();
    let before = Counters::now();
    let t = now();
    let pinned = match (session.lazy_index(), session.sharded_lazy()) {
        (Some(lazy), _) => lazy.pin_for(std::slice::from_ref(&query)),
        (_, Some(sharded)) => sharded.pin_for(std::slice::from_ref(&query)),
        _ => return Err("not a lazy session".into()),
    }
    .map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let faults = Counters::now().since(&before).faults;
    drop(pinned);
    Ok((
        ms,
        (session.bytes_fetched() - lazy_bytes) as f64,
        faults as f64,
    ))
}
