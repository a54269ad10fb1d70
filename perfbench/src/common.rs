//! Pieces every workload shares: run options, the result record, timing
//! statistics, the output checks' bookkeeping, and the layer-by-layer
//! study drivers the traced runs use.

use crate::trace::{self, Tracer};
use hgsim::{HgWorld, ScenarioConfig};
use offnet_analysis::truth::survey_metrics;
use offnet_core::study::{learn_reference_fingerprints, learn_reference_fingerprints_sharded};
use offnet_core::{
    artifact_fingerprint, parallel_map_isolated, process_corpus, process_snapshot_sharded,
    standard_validate_options, ArtifactBuilder, ArtifactError, CacheStats, CheckpointError,
    PipelineContext, SnapshotCorpus, SnapshotResult, StudyConfig, StudySeries, ValidationCache,
};
use scanner::{observe_snapshot, ScanEngine};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up time a run spends at least, over repeated set-ups.
const SETUP_SECONDS: f64 = 2.0;

/// Options of one run, from the command line.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Tracer>,
    /// Tiny worlds and windows, every output check still on.
    pub quick: bool,
    pub threads: usize,
    /// Scratch directory for artifacts and spill segments; removed at exit.
    pub work_dir: PathBuf,
}

impl RunOpts {
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// A fresh world for this run's seed; `paper` scale unless quick.
    pub fn world(&self, paper: bool) -> HgWorld {
        let config = if paper && !self.quick {
            ScenarioConfig::paper()
        } else {
            ScenarioConfig::small()
        };
        HgWorld::generate(config.with_seed(self.seed))
    }

    /// Keep timing set-ups (the median is `setup_s`): at least three,
    /// then until `SETUP_SECONDS` have gone. Traced and quick runs set up
    /// once.
    pub fn more_setups(&self, done: &[f64]) -> bool {
        if self.tracer.is_some() || self.quick {
            return done.is_empty();
        }
        done.len() < 3 || done.iter().sum::<f64>() < SETUP_SECONDS
    }

    /// Keep timing passes: at least one, then as long as another pass of
    /// the average length still ends within `seconds`. Traced and quick
    /// runs make one.
    pub fn more(&self, passes: usize, started: Instant) -> bool {
        if passes == 0 {
            return true;
        }
        let elapsed = started.elapsed().as_secs_f64();
        !self.quick && self.tracer.is_none() && elapsed + elapsed / passes as f64 <= self.seconds
    }
}

/// One metric value with its unit.
pub type Reading = (&'static str, f64, &'static str);

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// The workload's values for the spec's metrics (end-to-end when
    /// untraced, per-layer when traced), keyed by spec name.
    pub metrics: HashMap<&'static str, f64>,
    /// Workload-specific end-to-end figures (study_s, rerun_s,
    /// append_p50_ms, query_p99_ns, ...), printed and stored beside the
    /// contract metrics.
    pub details: Vec<Reading>,
    /// Provenance: window, sample counts, sizes.
    pub facts: Vec<(&'static str, String)>,
    /// Per-layer table and Chrome trace of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }
}

/// Operations attempted and failed, plus the output checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, by description.
    pub mismatches: Vec<String>,
    pub checks_run: u64,
}

impl Checks {
    /// Count one operation; `ok == false` is a failure.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one operation's result, reporting its error.
    pub fn op_result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true);
                Some(v)
            }
            Err(e) => {
                self.op(false);
                self.mismatches.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count each snapshot of a series as one operation; degraded ones fail.
    pub fn snapshots(&mut self, series: &StudySeries) {
        for s in &series.snapshots {
            self.op(s.quality.degraded_snapshot.is_none());
        }
    }

    /// An output check outside the timed region.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks_run += 1;
        if !ok {
            self.mismatches.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restart the peak-RSS count (`VmHWM`) at the current RSS, so
/// `peak_rss_mib` read after the timed passes covers them and not set-up.
/// The provenance records whether the kernel allowed it.
pub fn reset_peak_rss(out: &mut Outcome) {
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    out.fact(
        "peak_rss_since",
        if reset {
            "timed passes"
        } else {
            "process start"
        },
    );
}

/// The benchmark's study configuration over `window`, writing `artifact`.
pub fn study_config(window: (usize, usize), artifact: Option<&Path>) -> StudyConfig {
    StudyConfig {
        snapshots: window,
        artifact_out: artifact.map(Path::to_path_buf),
        ..Default::default()
    }
}

/// Render a study for byte comparison.
pub fn render(series: &StudySeries) -> String {
    offnet_bench::render_study(series)
}

/// Render one snapshot of a series as a one-snapshot study.
pub fn render_snapshot(series: &StudySeries, snapshot: SnapshotResult) -> String {
    render(&StudySeries {
        engine: series.engine,
        snapshots: vec![snapshot],
        netflix: Default::default(),
        header_fps: series.header_fps.clone(),
    })
}

/// Mean per-HG (recall, precision) against the world's ground truth,
/// averaged over every snapshot of the series.
pub fn truth_scores(world: &HgWorld, series: &StudySeries) -> (f64, f64) {
    let (mut recall, mut precision, mut n) = (0.0, 0.0, 0usize);
    for snap in &series.snapshots {
        for m in survey_metrics(world, snap, snap.snapshot_idx) {
            recall += m.recall;
            precision += m.precision;
            n += 1;
        }
    }
    (ratio(recall, n as f64), ratio(precision, n as f64))
}

/// Cert records seen over a series (the study workloads' unit of work).
pub fn cert_records(series: &StudySeries) -> usize {
    series
        .snapshots
        .iter()
        .map(|s| s.validation.total_records)
        .sum()
}

/// HTTP banner records seen over a series.
pub fn http_records(series: &StudySeries) -> usize {
    series
        .snapshots
        .iter()
        .map(|s| s.quality.banners_seen)
        .sum()
}

/// Confirmed over candidate (HG, AS) pairs over a series.
pub fn confirm_ratio(series: &StudySeries) -> f64 {
    let (mut confirmed, mut candidate) = (0usize, 0usize);
    for s in &series.snapshots {
        for r in s.per_hg.values() {
            confirmed += r.confirmed_ases.len();
            candidate += r.candidate_ases.len();
        }
    }
    ratio(confirmed as f64, candidate as f64)
}

/// Time the artifact read path's three steps on `path`, each under its
/// own span below `parent`, `n` times. Returns median seconds of
/// (read + SHA-256, table parse, full FrozenStudy::load).
pub fn probe_artifact_reads(
    tracer: &Tracer,
    parent: u32,
    path: &Path,
    n: usize,
    checks: &mut Checks,
) -> (f64, f64, f64) {
    let (mut read, mut parse, mut load) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let t0 = Instant::now();
        let payload = tracer.span("query.read", Some(parent), None, |_| {
            offnet_core::read_artifact_payload(path)
        });
        read.push(secs(t0));
        let Some((_, payload)) = checks.op_result("artifact read", payload) else {
            continue;
        };
        let t0 = Instant::now();
        let tables = tracer.span("query.parse", Some(parent), None, |_| {
            offnet_core::ArtifactTables::parse(&payload, path).map(|t| t.n_rows())
        });
        parse.push(secs(t0));
        checks.op_result("artifact parse", tables);
        let t0 = Instant::now();
        let frozen = tracer.span("query.load", Some(parent), None, |_| {
            offnet_query::FrozenStudy::load(path)
        });
        load.push(secs(t0));
        checks.op_result("artifact load", frozen);
    }
    (median(&read), median(&parse), median(&load))
}

/// Counts the layer-by-layer driver gathers besides its spans.
#[derive(Default)]
pub struct LayerCounts {
    pub cache: CacheStats,
    pub http_records: usize,
    pub interned_bytes: usize,
}

/// `run_study_parallel` driven one public call at a time, so each layer
/// gets its own span: reference learning, then the snapshot fan-out
/// (`observe_snapshot` → `SnapshotCorpus::build` with the shared cache →
/// `process_corpus`), then the in-order fold and the artifact write.
/// Renders byte-identically to `run_study_parallel` (the traced runs
/// check this).
pub fn layered_study(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
    threads: usize,
    artifact: &Path,
    tracer: &Tracer,
    parent: u32,
) -> Result<(StudySeries, LayerCounts), ArtifactError> {
    let header_fps = tracer.span("headers.ref_learn", Some(parent), None, |_| {
        learn_reference_fingerprints(world, engine, config.header_reference_snapshot)
    });
    let cache = Arc::new(ValidationCache::new());
    let mut ctx = PipelineContext::new(
        world.pki().root_store().clone(),
        world.org_db(),
        header_fps.clone(),
    )
    .with_threads(threads)
    .with_validation_cache(cache.clone());
    ctx.candidate_options = config.candidate_options.clone();
    ctx.confirm_mode = config.confirm_mode;
    let inner = ctx.clone().with_threads(1);
    let last = config.snapshots.1.min(world.n_snapshots() - 1);
    let ts: Vec<usize> = (config.snapshots.0..=last).collect();

    type SnapOut = (SnapshotResult, Vec<(u32, Vec<netsim::AsId>)>, usize, usize);
    let outputs = tracer.span(trace::FANOUT, Some(parent), None, |fanout| {
        parallel_map_isolated(&ts, ctx.threads, 1, |&t| -> Option<SnapOut> {
            tracer.span(trace::TASK, Some(fanout), Some(t), |task| {
                let obs = tracer.span("scanner.observe", Some(task), Some(t), |_| {
                    observe_snapshot(world, engine, t)
                })?;
                let http = obs.http80.as_ref().map_or(0, |s| s.records.len())
                    + obs.https443.as_ref().map_or(0, |s| s.records.len());
                let corpus = tracer.span("corpus.build", Some(task), Some(t), |_| {
                    SnapshotCorpus::build(
                        &obs,
                        &inner.roots,
                        &standard_validate_options(),
                        inner.validation_cache.as_deref(),
                    )
                });
                let interned = corpus.memory.interned_bytes;
                let result = tracer.span("pipeline.process", Some(task), Some(t), |_| {
                    process_corpus(&corpus, &inner)
                });
                let ip_to_as = world.ip_to_as(t);
                let origins = result
                    .http_only_ips
                    .iter()
                    .map(|&ip| (ip, ip_to_as.lookup(ip).to_vec()))
                    .collect();
                Some((result, origins, http, interned))
            })
        })
    });
    let mut counts = LayerCounts::default();
    let mut builder = ArtifactBuilder::new(
        engine.id,
        header_fps,
        artifact_fingerprint(world, engine, config),
    );
    for (outcome, &t) in outputs.into_iter().zip(&ts) {
        let out = match outcome {
            Ok(out) => out,
            Err(e) => Some((SnapshotResult::degraded(t, e.message), Vec::new(), 0, 0)),
        };
        let Some((result, origins, http, interned)) = out else {
            continue;
        };
        counts.http_records += http;
        counts.interned_bytes += interned;
        let origins: HashMap<u32, Vec<netsim::AsId>> = origins.into_iter().collect();
        tracer.span("artifact.fold", Some(parent), Some(t), |_| {
            builder.push_snapshot(result, |ip| origins.get(&ip).cloned().unwrap_or_default())
        });
    }
    tracer.span("artifact.persist", Some(parent), None, |_| {
        builder.save_to(artifact)
    })?;
    counts.cache = cache.stats();
    Ok((builder.finish().0, counts))
}

/// `run_study` with `config.sharding`, driven one public call at a time: the
/// streaming reference learner, then `process_snapshot_sharded` per
/// snapshot under a `shard_layer` span, the fold and the artifact write.
pub fn layered_sharded(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
    artifact: &Path,
    tracer: &Tracer,
    parent: u32,
    shard_layer: &'static str,
) -> Result<StudySeries, String> {
    let sharding = config.sharding.as_ref().expect("a sharded config");
    let header_fps = tracer.span("headers.ref_learn", Some(parent), None, |_| {
        learn_reference_fingerprints_sharded(
            world,
            engine,
            config.header_reference_snapshot,
            sharding.shard_size,
        )
    });
    let mut ctx = PipelineContext::new(
        world.pki().root_store().clone(),
        world.org_db(),
        header_fps.clone(),
    );
    ctx.candidate_options = config.candidate_options.clone();
    ctx.confirm_mode = config.confirm_mode;
    let mut builder = ArtifactBuilder::new(
        engine.id,
        header_fps,
        artifact_fingerprint(world, engine, config),
    );
    for t in config.snapshots.0..=config.snapshots.1.min(world.n_snapshots() - 1) {
        let outcome = tracer.span(shard_layer, Some(parent), Some(t), |_| {
            process_snapshot_sharded(world, engine, t, &ctx, sharding)
        });
        let Some(result) = outcome.map_err(|e: CheckpointError| e.to_string())? else {
            continue;
        };
        let ip_to_as = world.ip_to_as(t);
        tracer.span("artifact.fold", Some(parent), Some(t), |_| {
            builder.push_snapshot(result, |ip| ip_to_as.lookup(ip).to_vec())
        });
    }
    tracer
        .span("artifact.persist", Some(parent), None, |_| {
            builder.save_to(artifact)
        })
        .map_err(|e| e.to_string())?;
    Ok(builder.finish().0)
}

/// Size of a file, 0 when it is missing.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Remove a file or directory if present.
pub fn remove(path: &Path) {
    if path.is_dir() {
        let _ = std::fs::remove_dir_all(path);
    } else {
        let _ = std::fs::remove_file(path);
    }
}

/// Validation-cache counters of a traced run.
pub fn set_cache(out: &mut Outcome, cache: CacheStats) {
    out.set("validate.cache_hits", cache.hits as f64);
    out.set(
        "validate.cache_first_sightings",
        cache.first_sightings as f64,
    );
    out.set("validate.cache_promotions", cache.promotions as f64);
    out.set(
        "validate.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses()) as f64),
    );
}

/// Per-layer counts read off a study's results.
pub fn set_study_counts(out: &mut Outcome, series: &StudySeries) {
    out.set("scanner.cert_records", cert_records(series) as f64);
    if !out.metrics.contains_key("scanner.http_records") {
        out.set("scanner.http_records", http_records(series) as f64);
    }
    out.set("pipeline.confirm_ratio", confirm_ratio(series));
}
