//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. It may
//! also carry *parts*: durations the program itself measured inside the
//! span (the `core.stage.*_ns` counters), which count as the span's
//! children. A layer's self time is its span's duration minus its child
//! spans and parts. Nothing is recorded when tracing is off, and nothing
//! is added to the program: every span wraps a public call made here.

use crate::common::now;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parts: Vec<(&'static str, u64)>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: now(),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(1),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Allocates the id of a span that `record` will close later, so that
    /// children can name it as their parent while it is still open.
    pub fn open(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under an id from [`Tracer::open`].
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parts: Vec::new(),
        };
        self.spans.lock().expect("span log").push(span);
    }

    /// Runs `f` inside a span when `on`; untraced operations record
    /// nothing. Returns the span id, for attaching parts.
    pub fn maybe<T>(
        &self,
        on: bool,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        if !on {
            return (f(), None);
        }
        let id = self.open();
        let start = now();
        let out = f();
        self.record(id, name, parent, request, start, now());
        (out, Some(id))
    }

    /// Attaches program-measured parts to an already recorded span.
    pub fn add_parts(&self, id: SpanId, parts: &[(&'static str, u64)]) {
        let mut spans = self.spans.lock().expect("span log");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.parts.extend_from_slice(parts);
        }
    }

    /// Summed duration of every span with this name, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span log");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Durations of every span with this name, seconds, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.durations_s_for(name, |_| true)
    }

    /// [`Tracer::durations_s`] over the spans whose request id passes
    /// `request`.
    pub fn durations_s_for(&self, name: &str, request: impl Fn(u64) -> bool) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log");
        spans
            .iter()
            .filter(|s| s.name == name && request(s.request))
            .map(|s| s.duration() as f64 / 1e9)
            .collect()
    }

    /// Summed part with this name across all spans, seconds.
    pub fn part_s(&self, name: &str) -> f64 {
        self.part_s_for(name, |_| true)
    }

    /// [`Tracer::part_s`] over the spans whose request id passes `request`.
    pub fn part_s_for(&self, name: &str, request: impl Fn(u64) -> bool) -> f64 {
        let spans = self.spans.lock().expect("span log");
        spans
            .iter()
            .filter(|s| request(s.request))
            .flat_map(|s| s.parts.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Self time per layer, seconds: each span's duration minus its child
    /// spans and parts, summed by name, plus every part by its own name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span log");
        let child_ns = child_ns(&spans);
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let parts: u64 = s.parts.iter().map(|(_, ns)| ns).sum();
            let inner = child_ns.get(&s.id).copied().unwrap_or(0) + parts;
            *out.entry(s.name).or_default() += (s.duration() as f64 - inner as f64) / 1e9;
            for (name, ns) in &s.parts {
                *out.entry(name).or_default() += *ns as f64 / 1e9;
            }
        }
        out
    }

    /// Checks that the layers account for the wall time of the root spans
    /// named `root`. Time inside no layer counts as unattributed: the
    /// roots' own self time, and the self time of every `wrapper` span —
    /// a span around a program call whose parts, the program's own
    /// timers, should cover it. That must stay within `max_unattributed`
    /// of the wall time, and no span's children and parts may outlast it
    /// by more than that share. Returns the share of the wall time the
    /// layers account for.
    pub fn reconcile(
        &self,
        root: &str,
        wrappers: &[&str],
        max_unattributed: f64,
    ) -> Result<f64, String> {
        let wall_s = self.total_s(root);
        if wall_s <= 0.0 {
            return Err(format!("no `{root}` spans to reconcile"));
        }
        let selfs = self.self_times();
        let unattributed: f64 = std::iter::once(root)
            .chain(wrappers.iter().copied())
            .map(|name| selfs.get(name).copied().unwrap_or(0.0))
            .sum();
        let attributed = 1.0 - unattributed / wall_s;
        if attributed < 1.0 - max_unattributed {
            return Err(format!(
                "layers account for {:.1}% of {wall_s:.3}s `{root}` wall time, below {:.1}%",
                attributed * 100.0,
                (1.0 - max_unattributed) * 100.0
            ));
        }
        let spans = self.spans.lock().expect("span log");
        let child_ns = child_ns(&spans);
        for s in spans.iter() {
            let parts: u64 = s.parts.iter().map(|(_, ns)| ns).sum();
            let inner = (child_ns.get(&s.id).copied().unwrap_or(0) + parts) as f64;
            if inner > s.duration() as f64 * (1.0 + max_unattributed) + 1e5 {
                return Err(format!(
                    "span `{}` ({} ns) is outlasted by its children and parts ({inner} ns)",
                    s.name,
                    s.duration()
                ));
            }
        }
        Ok(attributed)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span log");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let parts: Vec<String> = s
                .parts
                .iter()
                .map(|(n, ns)| format!("\"{n}\":{ns}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parts\":{{{}}}}}",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                parts.join(",")
            );
        }
        out
    }
}

/// Summed duration of each span's children, by parent id.
fn child_ns(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut out: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *out.entry(p).or_default() += s.duration();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_parts() {
        let t = Tracer::new();
        let base = now();
        let at = |ms| base + Duration::from_millis(ms);
        let root = t.open();
        let child = t.open();
        t.record(child, "child", Some(root), 0, at(10), at(70));
        t.add_parts(child, &[("part", 20_000_000)]);
        t.record(root, "root", None, 0, at(0), at(100));
        let selfs = t.self_times();
        assert!((selfs["root"] - 0.040).abs() < 1e-9);
        assert!((selfs["child"] - 0.040).abs() < 1e-9);
        assert!((selfs["part"] - 0.020).abs() < 1e-9);
        assert!(t.reconcile("root", &[], 0.5).is_ok());
        assert!(t.reconcile("root", &[], 0.1).is_err());
        // The child's self time is unattributed when its parts should
        // cover it: 80 ms of 100 ms unaccounted for.
        assert!(t.reconcile("root", &["child"], 0.5).is_err());
        assert!(t.reconcile("root", &["child"], 0.85).is_ok());
    }
}
