//! Seeded input generation. Every input a workload feeds the program —
//! the corpus seed, the serve catalog, the Zipf draws, the arrival gaps
//! and the probe order — is a pure function of `--seed` (and of the data
//! set names, which the corpus fixes), so one seed always replays the same
//! run and the program only ever sees the generated inputs.

/// SplitMix64: small, seedable and stable across platforms, so the
/// benchmark's inputs never depend on the program's own RNG crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: streams with different `stream` tags are
    /// independent even for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

const STREAM_CORPUS: u64 = 1;
const STREAM_CATALOG: u64 = 2;
const STREAM_REQUESTS: u64 = 3;
const STREAM_PROBES: u64 = 4;
const STREAM_DISCOVER: u64 = 5;

/// The `UrbanConfig::seed` of the corpus for a benchmark seed.
pub fn corpus_seed(seed: u64) -> u64 {
    Rng::new(seed, STREAM_CORPUS).next_u64()
}

/// The city-level data sets. A `thresholds` clause over a pair with one
/// of them stays cheap: its level sets span a single region.
const CITY_LEVEL: [&str; 2] = ["weather", "gas-prices"];

/// One generated request text and what a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub text: String,
    /// The query names an unknown data set: the only correct answer is
    /// the typed `query` error.
    pub expect_error: bool,
    /// The query carries a `thresholds` clause (reads the dense fields).
    pub thresholds: bool,
}

impl Query {
    fn ok(text: String) -> Self {
        Query {
            text,
            expect_error: false,
            thresholds: false,
        }
    }
}

/// The query `discover` runs on every repetition.
pub const DISCOVER_QUERY: &str =
    "between * and * where permutations = 40 and include insignificant";

/// A `thresholds` query over `left` paired with `weather` (with
/// `gas-prices` when `left` is `weather`), with seeded thresholds, at
/// `permutations` and with `extra` clauses appended.
fn threshold_query(rng: &mut Rng, left: &str, permutations: u32, extra: &str) -> Query {
    let right = if left == CITY_LEVEL[0] {
        CITY_LEVEL[1]
    } else {
        CITY_LEVEL[0]
    };
    let hi = 0.5 + (rng.below(16) as f64) / 10.0;
    let lo = -(0.5 + (rng.below(16) as f64) / 10.0);
    Query {
        text: format!(
            "between {left} and {right} where permutations = {permutations} and \
             thresholds {left} ({hi:.1}, {lo:.1}){extra} and include insignificant"
        ),
        expect_error: false,
        thresholds: true,
    }
}

/// The spatial data sets (every one but the city-level ones).
fn spatial(names: &[String]) -> impl Iterator<Item = &String> {
    names.iter().filter(|n| !CITY_LEVEL.contains(&n.as_str()))
}

/// Threshold queries `discover` runs per spatial data set and repetition.
const DISCOVER_THRESHOLD_ROUNDS: usize = 3;

/// The threshold queries `discover` runs after the all-pairs query on each
/// fresh session, `DISCOVER_THRESHOLD_ROUNDS` distinct ones per spatial data
/// set: the eager read path over the dense fields.
pub fn discover_threshold_queries(seed: u64, names: &[String]) -> Vec<Query> {
    let mut rng = Rng::new(seed, STREAM_DISCOVER);
    let mut out: Vec<Query> = Vec::new();
    while out.len() < DISCOVER_THRESHOLD_ROUNDS * spatial(names).count() {
        for d in spatial(names) {
            let q = threshold_query(&mut rng, d, 0, "");
            if !out.contains(&q) {
                out.push(q);
            }
        }
    }
    out
}

/// Shape of the serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Zipf exponent of the warm queries' popularity.
    pub zipf_s: f64,
    /// Mean arrival rate, requests per second.
    pub rate: f64,
    /// Seconds of schedule between two fresh (cache-missing) requests.
    pub miss_every_s: f64,
    /// Share of requests naming an unknown data set.
    pub error_share: f64,
    /// Latency limit of `slo_ratio`, milliseconds.
    pub limit_ms: f64,
    /// Connections the generator drives.
    pub connections: usize,
    /// Fewest requests one run sends, so `p99_ms` has ≥10 samples beyond it.
    pub min_requests: usize,
}

/// The recorded serve shape (also in the benchmark's README).
pub const SERVE: ServeShape = ServeShape {
    zipf_s: 0.4,
    rate: 200.0,
    miss_every_s: 2.5,
    error_share: 0.01,
    limit_ms: 50.0,
    connections: 2,
    min_requests: 1_000,
};

/// Permutations of every serve query (the clause default is 1,000).
pub const SERVE_PERMUTATIONS: u32 = 40;

/// The resolution every serve query is restricted to. Most data set pairs
/// share it, and it keeps each miss short.
const SERVE_RESOLUTION: &str = "neighborhood-day";

/// The serve catalog. Its make-up is fixed, so runs with different seeds
/// put comparable work on the daemon; the seed draws each query's details
/// and orders. Every query runs `permutations = 40`.
///
/// - `warm`: one `between A and B` per data set pair (seeded orientation
///   and variant: `class =`, `score >=` or none), `WIDE_QUERIES`
///   `between A and *` over seeded data sets and one `thresholds` query
///   per spatial data set. The run sends each once before the
///   measured window; in the window they are cache hits, drawn with Zipf
///   popularity. The three kinds are spread evenly over the popularity
///   ranks, at the same ranks for every seed; the seed orders the queries
///   within a kind. Wide and threshold answers are several times larger
///   than pair answers, so a seed that drew them to the top ranks would
///   move `p50_ms` by itself.
/// - `fresh`: `between * and *` with a seeded, distinct `alpha` each, so
///   each is a cache miss of the same size. They arrive at a fixed cadence
///   in the window: the stalls whose head-of-line blocking `p99_ms`
///   measures.
/// - `errors`: queries naming an unknown data set.
pub struct ServeCatalog {
    pub queries: Vec<Query>,
    pub warm: Vec<usize>,
    pub fresh: Vec<usize>,
    pub errors: Vec<usize>,
}

/// `between A and *` queries in the serve catalog: a few, so hits with
/// large answers are in the mix without dominating it.
const WIDE_QUERIES: usize = 3;

pub fn serve_catalog(seed: u64, names: &[String], fresh: usize) -> ServeCatalog {
    let mut rng = Rng::new(seed, STREAM_CATALOG);
    let p = SERVE_PERMUTATIONS;
    let r = format!(" and resolution = {SERVE_RESOLUTION}");
    let mut pairs: Vec<Query> = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            let (left, right) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
            let variant = match rng.below(4) {
                0 => " and class = salient".to_string(),
                1 => " and class = extreme".to_string(),
                2 => format!(" and score >= {:.1}", 0.2 + rng.below(6) as f64 / 10.0),
                _ => String::new(),
            };
            pairs.push(Query::ok(format!(
                "between {left} and {right} where permutations = {p}{variant}{r}"
            )));
        }
    }
    let mut lefts: Vec<&String> = names.iter().collect();
    shuffle(&mut rng, &mut lefts);
    let wide: Vec<Query> = lefts[..WIDE_QUERIES]
        .iter()
        .map(|left| Query::ok(format!("between {left} and * where permutations = {p}{r}")))
        .collect();
    let thresholds: Vec<Query> = spatial(names)
        .map(|left| threshold_query(&mut rng, left, p, " and resolution = city-day"))
        .collect();
    let mut kinds = [pairs, wide, thresholds];
    for kind in &mut kinds {
        shuffle(&mut rng, kind);
    }
    let warm = interleave(&kinds);
    // Distinct alphas in (0.01, 0.1): alpha is part of the cache key, and
    // it does not change the work of the Monte Carlo test.
    let mut alphas: Vec<usize> = (10..100).collect();
    shuffle(&mut rng, &mut alphas);
    let fresh: Vec<Query> = alphas[..fresh]
        .iter()
        .map(|a| {
            Query::ok(format!(
                "between * and * where class = salient and alpha = 0.{a:03} and \
                 permutations = {p}{r}"
            ))
        })
        .collect();
    let errors: Vec<Query> = (0..4)
        .map(|k| Query {
            text: format!(
                "between {} and no-such-data-set-{k} where permutations = {p}",
                names[rng.below(names.len())]
            ),
            expect_error: true,
            thresholds: false,
        })
        .collect();
    let (w, f, e) = (warm.len(), fresh.len(), errors.len());
    let mut queries = warm;
    queries.extend(fresh);
    queries.extend(errors);
    ServeCatalog {
        queries,
        warm: (0..w).collect(),
        fresh: (w..w + f).collect(),
        errors: (w + f..w + f + e).collect(),
    }
}

/// Fresh requests a window of `seconds` carries.
pub fn fresh_count(shape: &ServeShape, seconds: f64) -> usize {
    ((seconds / shape.miss_every_s) as usize).max(1)
}

/// Merges `kinds` into one list in which each kind is spread evenly: at
/// every prefix, each kind holds about its share of the whole. The
/// positions of each kind depend only on the kinds' sizes.
fn interleave(kinds: &[Vec<Query>]) -> Vec<Query> {
    let total: usize = kinds.iter().map(Vec::len).sum();
    let mut taken = vec![0; kinds.len()];
    let mut out = Vec::with_capacity(total);
    for rank in 1..=total {
        // The kind furthest behind its share of the first `rank` entries.
        let behind = |k: usize| (kinds[k].len() * rank) as f64 / total as f64 - taken[k] as f64;
        let k = (0..kinds.len())
            .filter(|&k| taken[k] < kinds[k].len())
            .max_by(|&a, &b| behind(a).total_cmp(&behind(b)))
            .expect("entries left");
        out.push(kinds[k][taken[k]].clone());
        taken[k] += 1;
    }
    out
}

/// Fisher–Yates with the benchmark's RNG.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// One scheduled request: when it is due (seconds after the start of the
/// window) and which catalog entry it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub due_s: f64,
    pub query: usize,
}

/// The open-loop request sequence of the measured window: exponential
/// gaps at `shape.rate`, covering `seconds` and at least
/// `shape.min_requests` requests. The fresh queries take evenly spaced
/// slots; every other request is an unknown-name query with probability
/// `error_share`, else a Zipf draw over the warm queries.
pub fn serve_requests(
    seed: u64,
    catalog: &ServeCatalog,
    shape: &ServeShape,
    seconds: f64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, STREAM_REQUESTS);
    let mut due = Vec::new();
    let mut t = 0.0;
    while t < seconds || due.len() < shape.min_requests {
        t += rng.exponential(1.0 / shape.rate);
        due.push(t);
    }
    let n = due.len();
    let m = catalog.fresh.len();
    let fresh_slot: Vec<usize> = (0..m).map(|k| (2 * k + 1) * n / (2 * m)).collect();
    let weights: Vec<f64> = (1..=catalog.warm.len())
        .map(|r| 1.0 / (r as f64).powf(shape.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    due.into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let query = if let Some(k) = fresh_slot.iter().position(|&s| s == i) {
                catalog.fresh[k]
            } else if rng.unit() < shape.error_share {
                catalog.errors[rng.below(catalog.errors.len())]
            } else {
                let mut x = rng.unit() * total;
                let mut pick = weights.len() - 1;
                for (k, w) in weights.iter().enumerate() {
                    if x < *w {
                        pick = k;
                        break;
                    }
                    x -= w;
                }
                catalog.warm[pick]
            };
            Request { due_s, query }
        })
        .collect()
}

/// One round of cold probes: every data set pair once, as a single-pair
/// query at `permutations = 0` with `include insignificant` (scores only,
/// no Monte Carlo test), plus one `thresholds` probe per spatial data set
/// paired with `weather`, so about one probe in six reads the dense
/// fields.
/// The seed draws orientations, thresholds and the order; every round
/// has the same make-up, so runs with different seeds do comparable work.
pub fn probe_round(seed: u64, names: &[String], round: u32) -> Vec<Query> {
    let mut rng = Rng::new(
        seed ^ u64::from(round).wrapping_mul(0xD1B5_4A32_D192_ED03),
        STREAM_PROBES,
    );
    let mut out = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            let (left, right) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
            out.push(Query::ok(format!(
                "between {left} and {right} where permutations = 0 and include insignificant"
            )));
        }
    }
    for d in spatial(names) {
        out.push(threshold_query(&mut rng, d, 0, ""));
    }
    shuffle(&mut rng, &mut out);
    out
}

/// Fewest rounds one cold-probe run makes: 5 × 43 probes, so `p95_ms` has
/// ≥10 samples beyond it.
pub const MIN_PROBE_ROUNDS: u32 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_core::pql::parse_query;

    /// The quick corpus's data set names, in catalog order.
    fn names() -> Vec<String> {
        [
            "gas-prices",
            "collisions",
            "complaints-311",
            "calls-911",
            "citibike",
            "weather",
            "traffic-speed",
            "taxi",
            "twitter",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn sequence(seed: u64) -> Vec<(String, f64)> {
        let catalog = serve_catalog(seed, &names(), 3);
        serve_requests(seed, &catalog, &SERVE, 10.0)
            .iter()
            .map(|r| (catalog.queries[r.query].text.clone(), r.due_s))
            .collect()
    }

    fn probes(seed: u64) -> Vec<Query> {
        (0..3)
            .flat_map(|r| probe_round(seed, &names(), r))
            .collect()
    }

    #[test]
    fn same_seed_same_request_sequence() {
        assert_eq!(sequence(7), sequence(7));
        assert_eq!(probes(7), probes(7));
        assert_eq!(corpus_seed(7), corpus_seed(7));
    }

    #[test]
    fn different_seed_different_request_sequence() {
        assert_ne!(sequence(7), sequence(8));
        assert_ne!(probes(7), probes(8));
        assert_ne!(corpus_seed(7), corpus_seed(8));
    }

    #[test]
    fn every_catalog_query_resolves_except_the_unknown_names() {
        let names = names();
        for seed in 0..20 {
            let mut queries = serve_catalog(seed, &names, 10).queries;
            queries.extend(probe_round(seed, &names, 0));
            queries.extend(discover_threshold_queries(seed, &names));
            for q in &queries {
                let parsed = parse_query(&q.text).unwrap_or_else(|e| panic!("{}: {e}", q.text));
                let unknown = [&parsed.left, &parsed.right]
                    .into_iter()
                    .flatten()
                    .flatten()
                    .any(|n| !names.contains(n));
                assert_eq!(unknown, q.expect_error, "{}", q.text);
            }
        }
    }

    #[test]
    fn request_mix_matches_the_shape() {
        let catalog = serve_catalog(3, &names(), fresh_count(&SERVE, 30.0));
        let distinct: std::collections::HashSet<&str> =
            catalog.queries.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(distinct.len(), catalog.queries.len());
        let wide = catalog
            .warm
            .iter()
            .filter(|&&q| catalog.queries[q].text.contains(" and * "))
            .count();
        assert_eq!(wide, WIDE_QUERIES);
        let requests = serve_requests(3, &catalog, &SERVE, 30.0);
        assert!(requests.len() >= SERVE.min_requests);
        assert!(requests.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let count = |set: &[usize]| requests.iter().filter(|r| set.contains(&r.query)).count();
        assert_eq!(count(&catalog.fresh), fresh_count(&SERVE, 30.0));
        let share = count(&catalog.errors) as f64 / requests.len() as f64;
        assert!((0.002..0.03).contains(&share), "error share {share}");
        let head = count(&catalog.warm[..1]);
        let tail = count(&catalog.warm[catalog.warm.len() - 1..]);
        assert!(head > 2 * tail.max(1), "zipf head {head} vs tail {tail}");
    }

    #[test]
    fn serve_query_kinds_sit_at_the_same_ranks_for_every_seed() {
        let kinds = |seed| -> Vec<(bool, bool)> {
            let catalog = serve_catalog(seed, &names(), 3);
            catalog
                .warm
                .iter()
                .map(|&q| &catalog.queries[q])
                .map(|q| (q.thresholds, q.text.contains(" and * ")))
                .collect()
        };
        let first = kinds(0);
        assert_eq!(first.len(), 36 + WIDE_QUERIES + 7);
        // Every kind reaches the top third of the ranks.
        let top = &first[..first.len() / 3];
        assert!(top.iter().any(|&(t, _)| t) && top.iter().any(|&(_, w)| w));
        for seed in 1..20 {
            assert_eq!(kinds(seed), first, "seed {seed}");
        }
    }

    #[test]
    fn probe_rounds_cover_every_pair_and_every_threshold_probe() {
        let round = probe_round(5, &names(), 0);
        assert_eq!(round.len(), 43);
        assert_eq!(round.iter().filter(|q| q.thresholds).count(), 7);
        let distinct: std::collections::HashSet<&str> =
            round.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(distinct.len(), 43);
    }
}
