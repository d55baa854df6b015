//! Set-up: corpus generation, index build and store write (plus, for
//! `serve`, the shard migration and daemon start up to the hello frame).
//!
//! Each set-up runs in a child process of the benchmark, so the peak
//! resident set the workloads report belongs to the process holding the
//! index, not to the one that built it. The set-up is repeated
//! `SETUP_REPS` times per run and `setup_s` is the median.

use crate::common::{median, now, Ctx};
use crate::gen;
use polygamy_core::framework::{Config, DataPolygamy};
use polygamy_core::pql::parse_query;
use polygamy_datagen::{urban_collection, UrbanConfig};
use polygamy_serve::Client;
use polygamy_store::{shard_store, PqlOutcome, Store};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

pub const SETUP_REPS: usize = 3;

/// Shards of the `serve` store.
pub const SERVE_SHARDS: usize = 3;

/// The generated corpus and the stores written from it.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    pub names: Vec<String>,
    pub segments: usize,
    pub monolith: PathBuf,
    pub monolith_bytes: u64,
    pub sharded: PathBuf,
    pub sharded_bytes: u64,
}

impl Corpus {
    /// The corpus facts every result carries: data sets, segments, the
    /// unit tasks the workload evaluated and the bytes of its store.
    pub fn facts(&self, report: &mut crate::common::Report, store_bytes: u64, tasks: u64) {
        report.fact("datasets", self.names.len());
        report.fact("segments", self.segments);
        report.fact("tasks", tasks);
        report.fact("store_bytes", store_bytes);
    }
}

/// Median phase times over the set-up repetitions, seconds.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub datagen: f64,
    pub scalar: f64,
    pub features: f64,
    pub build: f64,
    pub save: f64,
    pub shard: f64,
    pub daemon: f64,
}

pub struct Setup {
    pub corpus: Corpus,
    pub setup_s: f64,
    pub phases: Phases,
    pub daemon: Option<(Daemon, Client)>,
}

/// The quick corpus (`polygamy-store build --quick`) for a seed.
fn corpus_config(seed: u64) -> UrbanConfig {
    UrbanConfig {
        n_years: 1,
        scale: 0.02,
        extra_weather_attrs: 0,
        seed: gen::corpus_seed(seed),
        ..UrbanConfig::default()
    }
}

/// Sum of the sizes of a sharded store's files: the catalog and every
/// shard file beside it.
pub fn sharded_bytes(catalog: &Path, shard_files: &[PathBuf]) -> u64 {
    std::iter::once(catalog.to_path_buf())
        .chain(shard_files.iter().cloned())
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum()
}

/// `polybench setup --seed N --dir D [--shards S] [--reference]`: one
/// set-up, timed phase by phase, printed as `key=value` lines. With
/// `--reference` it also writes the in-memory `DataPolygamy::query`
/// answers `discover` checks against (untimed).
pub fn child_main(args: &[String]) -> ExitCode {
    match child(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("polybench setup: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed")?;
    let dir = PathBuf::from(flag("--dir").ok_or("--dir")?);
    let shards: usize = flag("--shards").and_then(|s| s.parse().ok()).unwrap_or(0);
    let reference = args.iter().any(|a| a == "--reference");

    let t = now();
    let collection = urban_collection(corpus_config(seed));
    let datagen = t.elapsed().as_secs_f64();

    let t = now();
    let mut dp = DataPolygamy::new(collection.geometry().clone(), Config::fast_test());
    for d in &collection.datasets {
        dp.add_dataset(d.clone());
    }
    let report = dp.build_index();
    let build = t.elapsed().as_secs_f64();
    let scalar: f64 = report.per_dataset.iter().map(|d| d.scalar_secs).sum();
    let features: f64 = report.per_dataset.iter().map(|d| d.feature_secs).sum();

    let monolith = dir.join("monolith.plst");
    let t = now();
    let index = dp.index().map_err(|e| e.to_string())?;
    let store = Store::save(&monolith, dp.geometry(), index).map_err(|e| e.to_string())?;
    let save = t.elapsed().as_secs_f64();

    let sharded = dir.join("sharded.plst");
    let mut shard = 0.0;
    let mut shard_total = 0;
    if shards > 0 {
        let t = now();
        let catalog = shard_store(&monolith, &sharded, shards).map_err(|e| e.to_string())?;
        shard = t.elapsed().as_secs_f64();
        let files: Vec<PathBuf> = (0..catalog.n_shards())
            .map(|s| catalog.shard_path(&sharded, s))
            .collect();
        shard_total = sharded_bytes(&sharded, &files);
    }

    if reference {
        let names = dp
            .dataset_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>();
        let mut texts = vec![gen::DISCOVER_QUERY.to_string()];
        texts.extend(
            gen::discover_threshold_queries(seed, &names)
                .into_iter()
                .map(|q| q.text),
        );
        let mut lines = String::new();
        for text in texts {
            let query = parse_query(&text).map_err(|e| e.to_string())?;
            let relationships = dp.query(&query).map_err(|e| e.to_string())?;
            let outcome = PqlOutcome {
                query,
                relationships,
                trace: None,
            };
            lines.push_str(&outcome.to_json());
            lines.push('\n');
        }
        std::fs::write(dir.join("discover.ref"), lines).map_err(|e| e.to_string())?;
    }

    println!("datagen={datagen}");
    println!("scalar={scalar}");
    println!("features={features}");
    println!("build={build}");
    println!("save={save}");
    println!("shard={shard}");
    println!("segments={}", store.manifest().segments.len());
    println!(
        "monolith_bytes={}",
        store.file_bytes().map_err(|e| e.to_string())?
    );
    println!("sharded_bytes={shard_total}");
    println!("names={}", dp.dataset_names().join(","));
    Ok(())
}

/// Runs the set-up `SETUP_REPS` times and keeps the last one's files
/// (and daemon). `shards > 0` adds the shard migration; `daemon` starts
/// `polygamy-store serve --lazy` on the sharded store.
pub fn run(ctx: &Ctx, shards: usize, daemon: bool, reference: bool) -> Result<Setup, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut totals = Vec::new();
    let mut phases: Vec<Phases> = Vec::new();
    let mut corpus = Corpus::default();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let mut cmd = Command::new(&exe);
        cmd.arg("setup")
            .args(["--seed", &ctx.seed.to_string()])
            .arg("--dir")
            .arg(&ctx.work)
            .args(["--shards", &shards.to_string()]);
        if last && reference {
            cmd.arg("--reference");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("set-up child failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let get = |key: &str| -> Result<String, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{key}=")))
                .map(str::to_string)
                .ok_or_else(|| format!("set-up child printed no `{key}`"))
        };
        let num = |key: &str| -> Result<f64, String> {
            get(key)?.parse::<f64>().map_err(|e| format!("{key}: {e}"))
        };
        let mut p = Phases {
            datagen: num("datagen")?,
            scalar: num("scalar")?,
            features: num("features")?,
            build: num("build")?,
            save: num("save")?,
            shard: num("shard")?,
            daemon: 0.0,
        };
        corpus = Corpus {
            names: get("names")?.split(',').map(str::to_string).collect(),
            segments: num("segments")? as usize,
            monolith: ctx.work.join("monolith.plst"),
            monolith_bytes: num("monolith_bytes")? as u64,
            sharded: ctx.work.join("sharded.plst"),
            sharded_bytes: num("sharded_bytes")? as u64,
        };
        if daemon {
            let t = now();
            let (d, client) = Daemon::start(&ctx.store_bin, &corpus.sharded)?;
            p.daemon = t.elapsed().as_secs_f64();
            if last {
                live = Some((d, client));
            } else {
                d.stop(client)?;
            }
        }
        totals.push(p.datagen + p.build + p.save + p.shard + p.daemon);
        phases.push(p);
    }
    let med = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    Ok(Setup {
        corpus,
        setup_s: median(&totals),
        phases: Phases {
            datagen: med(|p| p.datagen),
            scalar: med(|p| p.scalar),
            features: med(|p| p.features),
            build: med(|p| p.build),
            save: med(|p| p.save),
            shard: med(|p| p.shard),
            daemon: med(|p| p.daemon),
        },
        daemon: live,
    })
}

/// Pid of the running daemon (0: none), for the watchdog in `main`. Only
/// the pid is published, so `Relaxed` suffices.
pub static DAEMON_PID: AtomicU32 = AtomicU32::new(0);

/// A `polygamy-store serve` child process. Dropping it kills the process
/// if it is still running and waits for it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral localhost port over `store`
    /// (lazy reads) and connects once: returns when the hello arrived.
    pub fn start(bin: &Path, store: &Path) -> Result<(Daemon, Client), String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--lazy"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        // "polygamy-serve: serving N data set(s) from <path> on <addr> (...)"
        let addr = line
            .rsplit_once(" on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_string);
        DAEMON_PID.store(child.id(), Ordering::Relaxed);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        daemon.addr =
            addr.ok_or_else(|| format!("daemon did not announce its address: {line:?}"))?;
        let client = Client::connect_retry(daemon.addr.as_str(), Duration::from_secs(10))
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        Ok((daemon, client))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn stop(mut self, client: Client) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        DAEMON_PID.store(0, Ordering::Relaxed);
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
