//! Longitudinal study driver: the full 2013-10 … 2021-04 analysis over one
//! scan engine, including the §6.2 Netflix restorations.

use crate::artifact::{artifact_fingerprint, ArtifactBuilder, ArtifactError, StudyArtifact};
use crate::confirm::ConfirmMode;
use crate::corpus::SnapshotCorpus;
use crate::delta::{process_corpus_delta, DeltaReport, DeltaState};
use crate::errors::DataQualityReport;
use crate::headers::{
    learn_header_fingerprints_from_tallies, GlobalHeaderStats, HeaderFingerprints,
};
use crate::parallel::parallel_map_isolated;
use crate::pipeline::{process_corpus, standard_validate_options, PipelineContext, SnapshotResult};
use crate::shard::{process_snapshot_sharded, process_snapshot_sharded_delta, ShardingConfig};
use crate::validation_cache::ValidationCache;
use hgsim::{Endpoint, Hg, HgWorld, ALL_HGS};
use intern::Interner;
use netsim::AsId;
use scanner::{covers_snapshot, observe_snapshot, HttpScanStream, ScanEngine};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Snapshot at which header fingerprints are learned (the paper uses
    /// September 2020 on-net scans; index 28 = 2020-10).
    pub header_reference_snapshot: usize,
    pub confirm_mode: ConfirmMode,
    pub candidate_options: crate::candidates::CandidateOptions,
    /// Inclusive snapshot range to process.
    pub snapshots: (usize, usize),
    /// When set, snapshots are processed through the streaming sharded
    /// pipeline ([`crate::shard`]): bounded peak memory, spilled segments,
    /// byte-identical rendered output. Shard freezing fans out over the
    /// config's `workers` (default: the context's thread count) with a
    /// bounded `depth` of in-flight shards, so peak memory stays at
    /// `depth × shard` and the output is byte-identical at any worker
    /// count.
    pub sharding: Option<ShardingConfig>,
    /// When set, the study's results are also sealed into a
    /// [`crate::artifact::StudyArtifact`] at this path (batch drivers
    /// write it once at the end; the incremental engine re-persists after
    /// every append).
    pub artifact_out: Option<std::path::PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            header_reference_snapshot: 28,
            confirm_mode: ConfirmMode::HttpOrHttps,
            candidate_options: Default::default(),
            snapshots: (0, 30),
            sharding: None,
            artifact_out: None,
        }
    }
}

/// The §6.2 Netflix footprint variants, per snapshot.
#[derive(Debug, Clone, Default)]
pub struct NetflixVariants {
    /// Standard pipeline output.
    pub initial: Vec<usize>,
    /// Expired default certificates restored.
    pub with_expired: Vec<usize>,
    /// Additionally restoring IPs that previously served Netflix
    /// certificates and now answer only on HTTP.
    pub with_non_tls: Vec<usize>,
}

/// The set-up every driver shares: the reference header fingerprints,
/// a [`PipelineContext`] carrying the config's pipeline knobs, and the one
/// [`ArtifactBuilder`] the run accumulates through (snapshot results, the
/// §6.2 fold, reuse reports), so the emitted artifact cannot drift from
/// the in-memory series.
fn setup(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
) -> (PipelineContext, ArtifactBuilder) {
    let header_fps = reference_fingerprints(world, engine, config);
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
    if let Some(path) = &config.artifact_out {
        builder.attach_path(path);
    }
    (ctx, builder)
}

/// The inclusive snapshot range a config asks for, clamped to the world.
fn snapshot_range(world: &HgWorld, config: &StudyConfig) -> (usize, usize) {
    (
        config.snapshots.0,
        config.snapshots.1.min(world.n_snapshots() - 1),
    )
}

/// Seal a batch driver's builder: persist the artifact (when
/// `artifact_out` asked for one; batch drivers write no evidence tail)
/// and unwrap the series.
fn seal(builder: ArtifactBuilder) -> StudySeries {
    builder.persist(None).expect("study artifact write failed");
    builder.finish().0
}

/// The full longitudinal result for one engine.
#[derive(Debug)]
pub struct StudySeries {
    pub engine: scanner::EngineId,
    /// One entry per processed snapshot, in order.
    pub snapshots: Vec<SnapshotResult>,
    pub netflix: NetflixVariants,
    /// The header fingerprints the study ran with.
    pub header_fps: HeaderFingerprints,
}

impl StudySeries {
    /// Confirmed AS counts per snapshot for one HG, without allocating.
    pub fn confirmed_counts(&self, hg: Hg) -> impl Iterator<Item = usize> + '_ {
        self.snapshots
            .iter()
            .map(move |s| s.per_hg[&hg].confirmed_ases.len())
    }

    /// Certificate-only (candidate) AS counts per snapshot for one HG,
    /// without allocating.
    pub fn candidate_counts(&self, hg: Hg) -> impl Iterator<Item = usize> + '_ {
        self.snapshots
            .iter()
            .map(move |s| s.per_hg[&hg].candidate_ases.len())
    }

    /// [`Self::confirmed_counts`] collected into a `Vec`.
    pub fn confirmed_series(&self, hg: Hg) -> Vec<usize> {
        self.confirmed_counts(hg).collect()
    }

    /// [`Self::candidate_counts`] collected into a `Vec`.
    pub fn candidate_series(&self, hg: Hg) -> Vec<usize> {
        self.candidate_counts(hg).collect()
    }

    /// Confirmed AS set at a snapshot offset.
    pub fn confirmed_at(&self, hg: Hg, idx: usize) -> &BTreeSet<AsId> {
        &self.snapshots[idx].per_hg[&hg].confirmed_ases
    }

    /// The study-wide data-quality report: every snapshot's report merged
    /// (counts summed, degradation notes collected).
    pub fn aggregate_quality(&self) -> DataQualityReport {
        let mut merged = DataQualityReport::default();
        for snap in &self.snapshots {
            merged.merge(&snap.quality);
        }
        merged
    }
}

/// Endpoints per chunk when [`learn_reference_fingerprints`] streams the
/// reference snapshot: big enough that per-chunk overhead vanishes, small
/// enough that a chunk is a few MiB. The learned set is the same at any
/// chunk size.
const REFERENCE_CHUNK: usize = 20_000;

/// Learn the per-HG header fingerprints from a reference snapshot's on-net
/// banners (§4.4), using HTTPS banners where available and HTTP otherwise.
///
/// When the requested snapshot is missing from the corpus (engine coverage
/// window, or a dropped-snapshot fault), the nearest available snapshot is
/// used instead; with no observable snapshot at all, the fingerprints come
/// back empty and §4.5 simply confirms nothing.
pub fn learn_reference_fingerprints(
    world: &HgWorld,
    engine: &ScanEngine,
    reference_snapshot: usize,
) -> HeaderFingerprints {
    stream_reference_fingerprints(world, engine, reference_snapshot, REFERENCE_CHUNK)
}

/// [`learn_reference_fingerprints`] streaming the reference snapshot in
/// `shard_size` endpoint chunks, the sharded pipeline's unit of memory.
pub fn learn_reference_fingerprints_sharded(
    world: &HgWorld,
    engine: &ScanEngine,
    reference_snapshot: usize,
    shard_size: usize,
) -> HeaderFingerprints {
    stream_reference_fingerprints(world, engine, reference_snapshot, shard_size)
}

/// The snapshots a reference learner tries, in order: outward from the
/// requested index, t0, t0-1, t0+1, t0-2, … (earlier-first keeps the
/// learned set closest to the paper's September-2020 reference when the
/// exact month is missing).
fn reference_spiral(reference_snapshot: usize, n: usize) -> impl Iterator<Item = usize> {
    let t0 = reference_snapshot.min(n - 1);
    std::iter::once(t0).chain((1..n).flat_map(move |d| {
        let before = t0.checked_sub(d);
        let after = (t0 + d < n).then_some(t0 + d);
        before.into_iter().chain(after)
    }))
}

/// The one reference learner: the reference snapshot's endpoints are
/// generated in `chunk` pieces and only its banner stream is scanned (no
/// certificate scan, no second banner port), folding every banner into
/// the global tally and the tallies of the HGs whose ASes originate its
/// IP. Banners are never held as a record slice. The learned fingerprints
/// are string-typed and selection is independent of interning order, so
/// the result does not depend on the chunk size.
fn stream_reference_fingerprints(
    world: &HgWorld,
    engine: &ScanEngine,
    reference_snapshot: usize,
    chunk: usize,
) -> HeaderFingerprints {
    let n = world.n_snapshots();
    let Some(t) = reference_spiral(reference_snapshot, n).find(|&t| covers_snapshot(engine, t))
    else {
        return HeaderFingerprints::default();
    };
    // HTTPS banners where the corpus has them, HTTP otherwise; neither →
    // empty fingerprints.
    let Some(mut stream) =
        HttpScanStream::new(engine, t, 443, n).or_else(|| HttpScanStream::new(engine, t, 80, n))
    else {
        return HeaderFingerprints::default();
    };

    // AS → bitmask of the HGs whose keyword its organization matches, so
    // each banner costs one IP-to-AS lookup whatever the HG count.
    const _: () = assert!(ALL_HGS.len() <= 32);
    let mut hg_bits: HashMap<AsId, u32> = HashMap::new();
    for (i, hg) in ALL_HGS.iter().enumerate() {
        for asn in world.org_db().ases_matching(hg.spec().keyword) {
            *hg_bits.entry(asn).or_insert(0) |= 1 << i;
        }
    }
    let ip_to_as = world.ip_to_as(t);

    // One persistent interner across chunks keeps symbols consistent for
    // the cross-chunk tallies.
    let mut interner = Interner::default();
    let mut global = GlobalHeaderStats::default();
    let mut onnet = vec![GlobalHeaderStats::default(); ALL_HGS.len()];
    let mut absorb = |eps: &mut Vec<Endpoint>, interner: &mut Interner| {
        for r in stream.scan_chunk(eps, interner) {
            global.absorb(&r);
            let mut bits = ip_to_as
                .lookup(r.ip)
                .iter()
                .fold(0, |bits, a| bits | hg_bits.get(a).copied().unwrap_or(0));
            while bits != 0 {
                onnet[bits.trailing_zeros() as usize].absorb(&r);
                bits &= bits - 1;
            }
        }
        eps.clear();
    };
    let chunk = chunk.max(1);
    let mut eps: Vec<Endpoint> = Vec::with_capacity(chunk);
    world.for_each_endpoint(t, |ep| {
        eps.push(ep);
        if eps.len() == chunk {
            absorb(&mut eps, &mut interner);
        }
    });
    absorb(&mut eps, &mut interner);
    stream.finish();

    let mut fps = HeaderFingerprints::default();
    for (hg, tally) in ALL_HGS.iter().zip(&onnet) {
        fps.insert(learn_header_fingerprints_from_tallies(
            hg.spec().keyword,
            tally,
            &global,
            &interner,
        ));
    }
    fps
}

/// The reference fingerprints a config's study runs with.
fn reference_fingerprints(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
) -> HeaderFingerprints {
    let chunk = config
        .sharding
        .as_ref()
        .map_or(REFERENCE_CHUNK, |s| s.shard_size);
    stream_reference_fingerprints(world, engine, config.header_reference_snapshot, chunk)
}

/// Run the longitudinal study for `engine` over `world`.
pub fn run_study(world: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> StudySeries {
    let (ctx, mut builder) = setup(world, engine, config);
    let (lo, hi) = snapshot_range(world, config);
    for t in lo..=hi {
        if let Some(sharding) = &config.sharding {
            let outcome = process_snapshot_sharded(world, engine, t, &ctx, sharding)
                .expect("sharded snapshot processing failed");
            let Some(result) = outcome else {
                continue;
            };
            let ip_to_as = world.ip_to_as(t);
            builder.push_snapshot(result, |ip| ip_to_as.lookup(ip).to_vec());
            continue;
        }
        let Some(obs) = observe_snapshot(world, engine, t) else {
            continue;
        };
        // Observation → corpus → stages, threaded explicitly: the corpus
        // owns the frozen interner the downstream stages resolve through.
        let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);
        let result = process_corpus(&corpus, &ctx);
        builder.push_snapshot(result, |ip| corpus.ip_to_as.lookup(ip).to_vec());
    }

    seal(builder)
}

/// Parallel variant of [`run_study`]: snapshots are observed and processed
/// across `threads` workers sharing one cross-snapshot
/// [`ValidationCache`], then the order-dependent Netflix non-TLS
/// restoration is folded sequentially. Produces the same `StudySeries` as
/// the sequential driver for any thread count.
pub fn run_study_parallel(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
    threads: usize,
) -> StudySeries {
    let (ctx, mut builder) = setup(world, engine, config);
    let ctx = ctx
        .with_threads(threads)
        .with_validation_cache(Arc::new(ValidationCache::new()));

    // Observe + process each snapshot independently; alongside the result,
    // record the AS origins of its HTTP-only IPs so the observation bundle
    // can be dropped before the sequential fold below.
    let (lo, hi) = snapshot_range(world, config);
    let ts: Vec<usize> = (lo..=hi).collect();
    let inner = ctx.clone().with_threads(1);
    type SnapOut = (SnapshotResult, Vec<(u32, Vec<AsId>)>);
    // Per-snapshot panic isolation: a worker that dies past its retry
    // degrades that snapshot to an empty placeholder (flagged in its
    // quality report) instead of aborting the study.
    let outputs: Vec<Option<SnapOut>> = parallel_map_isolated(&ts, ctx.threads, 1, |&t| {
        let result = if let Some(sharding) = &config.sharding {
            // Sharded workers write disjoint per-snapshot spill
            // subdirectories, so they never contend on segments. An I/O
            // failure panics here and degrades this snapshot only.
            process_snapshot_sharded(world, engine, t, &inner, sharding)
                .expect("sharded snapshot processing failed")?
        } else {
            let obs = observe_snapshot(world, engine, t)?;
            // Build the corpus explicitly so validation shares the
            // study-wide cache; its frozen interner is what makes the
            // share-nothing worker safe to run without locks.
            let corpus = SnapshotCorpus::build(
                &obs,
                &inner.roots,
                &standard_validate_options(),
                inner.validation_cache.as_deref(),
            );
            process_corpus(&corpus, &inner)
        };
        let ip_to_as = world.ip_to_as(t);
        let http_only_origins = result
            .http_only_ips
            .iter()
            .map(|&ip| (ip, ip_to_as.lookup(ip).to_vec()))
            .collect();
        Some((result, http_only_origins))
    })
    .into_iter()
    .zip(&ts)
    .map(|(outcome, &t)| match outcome {
        Ok(out) => out,
        Err(e) => Some((SnapshotResult::degraded(t, e.message), Vec::new())),
    })
    .collect();

    // The §6.2 non-TLS restoration consults the cumulative IP history, so
    // it must run in snapshot order — but it is cheap set arithmetic.
    for (result, http_only_origins) in outputs.into_iter().flatten() {
        let origin_map: HashMap<u32, Vec<AsId>> = http_only_origins.into_iter().collect();
        builder.push_snapshot(result, |ip| {
            origin_map.get(&ip).cloned().unwrap_or_default()
        });
    }

    seal(builder)
}

/// The incremental study's output: the same [`StudySeries`] `run_study`
/// produces, plus per-snapshot delta-engine reuse accounting. The reuse
/// counters live *beside* the series, never inside it, so every rendered
/// study artifact stays byte-identical to the full recompute.
#[derive(Debug)]
pub struct IncrementalStudy {
    pub series: StudySeries,
    /// One report per processed snapshot, aligned with `series.snapshots`.
    pub reports: Vec<DeltaReport>,
}

/// Append-only incremental study driver: feed it snapshots in order and
/// it diffs each corpus against its predecessor, replaying clean HGs'
/// results and recomputing only dirty ones (see [`crate::delta`]). The
/// first appended snapshot — and any snapshot following a degraded one —
/// is a full compute.
///
/// Chain validation always runs through a shared [`ValidationCache`], so
/// §4.1 work on persisted chains is a skeleton replay; the per-snapshot
/// replay/reverify split lands in each [`DeltaReport`].
///
/// With an artifact attached ([`Self::with_artifact`]) the engine is
/// crash-resumable: every append re-persists the artifact together with
/// its latest delta evidence, and a relaunched engine adopts the file and
/// continues diffing where the killed one stopped.
#[derive(Clone)]
pub struct DeltaStudyEngine<'w> {
    world: &'w HgWorld,
    engine: ScanEngine,
    ctx: PipelineContext,
    cache: Arc<ValidationCache>,
    state: Option<DeltaState>,
    /// Accumulated results, fold state, and reuse reports — and, when an
    /// artifact path is attached, the on-disk artifact each append
    /// re-persists.
    builder: ArtifactBuilder,
    /// Cache (hits, misses) totals at the end of the previous append, so
    /// each report carries per-snapshot deltas.
    cache_mark: (u64, u64),
    /// The last snapshot index an adopted artifact covers: appends up to
    /// it return the recorded outcome instead of recomputing.
    adopted_through: Option<usize>,
    /// The study range from construction; an adopted artifact must lie
    /// inside it.
    range: (usize, usize),
    /// Streaming sharded processing, when the config asks for it.
    sharding: Option<ShardingConfig>,
}

impl<'w> DeltaStudyEngine<'w> {
    pub fn new(world: &'w HgWorld, engine: ScanEngine, config: &StudyConfig) -> Self {
        let (ctx, builder) = setup(world, &engine, config);
        let cache = Arc::new(ValidationCache::new());
        let ctx = ctx.with_validation_cache(cache.clone());
        Self {
            world,
            engine,
            ctx,
            cache,
            state: None,
            builder,
            cache_mark: (0, 0),
            adopted_through: None,
            range: snapshot_range(world, config),
            sharding: config.sharding.clone(),
        }
    }

    /// Attach `path` as the on-disk [`StudyArtifact`] this engine appends
    /// to — the resume point. When a valid artifact (written under the
    /// same config fingerprint) already exists there and nothing has been
    /// appended yet, it is adopted: appends up to its last snapshot return
    /// the recorded outcome without recomputing (snapshots it lacks were
    /// skipped by the run that wrote it), and later appends extend it in
    /// place, each one re-persisted atomically. Its delta-evidence tail
    /// restores the engine's diff state, so the first live append is a
    /// delta, not a full compute; an artifact without one (a batch
    /// driver's) makes that append a full compute — correct, just slower.
    ///
    /// A missing file starts a fresh artifact. A mismatched or corrupt one,
    /// or one holding a snapshot outside this engine's study range, is a
    /// typed [`ArtifactError`].
    pub fn with_artifact(
        mut self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<Self, ArtifactError> {
        let path = path.into();
        self.builder.attach_path(&path);
        if !path.exists() || !self.builder.snapshots().is_empty() {
            return Ok(self);
        }
        let artifact = StudyArtifact::load_expecting(&path, self.builder.fingerprint())?;
        let (lo, hi) = self.range;
        if let Some(s) = artifact
            .snapshots
            .iter()
            .find(|s| !(lo..=hi).contains(&s.snapshot_idx))
        {
            return Err(ArtifactError::RangeMismatch {
                path,
                snapshot_idx: s.snapshot_idx,
                range: self.range,
            });
        }
        let evidence = self.builder.adopt(artifact);
        // An artifact written by a batch driver carries no reuse reports;
        // synthesize full-compute markers so reports stay aligned with
        // snapshots.
        let missing: Vec<usize> = self
            .builder
            .snapshots()
            .iter()
            .skip(self.builder.reports().len())
            .map(|s| s.snapshot_idx)
            .collect();
        for snapshot_idx in missing {
            self.builder.push_report(DeltaReport {
                snapshot_idx,
                full_compute: true,
                ..Default::default()
            });
        }
        let last = self.builder.snapshots().last();
        self.adopted_through = last.map(|s| s.snapshot_idx);
        if let (Some(evidence), Some(result)) = (evidence, last) {
            if evidence.snapshot_idx != result.snapshot_idx {
                return Err(ArtifactError::Corrupt {
                    path,
                    detail: format!(
                        "evidence for snapshot {} but the last snapshot is {}",
                        evidence.snapshot_idx, result.snapshot_idx
                    ),
                });
            }
            self.state = Some(DeltaState {
                evidence,
                result: result.clone(),
            });
        }
        Ok(self)
    }

    /// Observe and process snapshot `t`, diffing against the previously
    /// appended snapshot. Returns `false` (appending nothing) when the
    /// engine's corpus does not cover `t` — the same snapshots
    /// `run_study` skips.
    ///
    /// Panics when the attached artifact cannot be written or a sharded
    /// segment cannot be spilled; [`Self::try_append_snapshot`] returns
    /// those errors instead.
    pub fn append_snapshot(&mut self, t: usize) -> bool {
        self.try_append_snapshot(t)
            .unwrap_or_else(|e| panic!("study append failed: {e}"))
    }

    /// [`Self::append_snapshot`] with persistence failures surfaced: the
    /// attached artifact is re-persisted (atomically, evidence tail
    /// included) after processing, and appends for snapshots an adopted
    /// artifact covers return their recorded outcome without recomputing.
    pub fn try_append_snapshot(&mut self, t: usize) -> Result<bool, ArtifactError> {
        if self.adopted_through.is_some_and(|last| t <= last) {
            return Ok(self.builder.snapshots().iter().any(|s| s.snapshot_idx == t));
        }
        let outcome = if let Some(sharding) = &self.sharding {
            process_snapshot_sharded_delta(
                self.world,
                &self.engine,
                t,
                &self.ctx,
                sharding,
                self.state.as_ref(),
            )?
        } else if let Some(obs) = observe_snapshot(self.world, &self.engine, t) {
            let chain_rows = obs.cert.chain_digests();
            let corpus = SnapshotCorpus::build(
                &obs,
                &self.ctx.roots,
                &standard_validate_options(),
                self.ctx.validation_cache.as_deref(),
            );
            Some(process_corpus_delta(
                &corpus,
                &self.ctx,
                chain_rows,
                self.state.as_ref(),
            ))
        } else {
            None
        };
        let Some((result, evidence, mut report)) = outcome else {
            return Ok(false);
        };
        let (hits, misses) = self.cache.hit_stats();
        report.chains_replayed = hits - self.cache_mark.0;
        report.chains_revalidated = misses - self.cache_mark.1;
        self.cache_mark = (hits, misses);

        // The §6.2 Netflix fold, identical to `run_study`'s.
        let ip_to_as = self.world.ip_to_as(t);
        self.builder
            .push_snapshot(result.clone(), |ip| ip_to_as.lookup(ip).to_vec());
        self.builder.push_report(report);
        self.state = Some(DeltaState { evidence, result });
        // Re-persist after every append, so the on-disk artifact always
        // reflects the grown prefix and resumes as a delta.
        self.builder
            .persist(self.state.as_ref().map(|s| &s.evidence))?;
        Ok(true)
    }

    /// Per-snapshot reuse reports so far.
    pub fn reports(&self) -> &[DeltaReport] {
        self.builder.reports()
    }

    /// The shared §4.1 validation cache (for its lifetime counters).
    pub fn cache(&self) -> &ValidationCache {
        &self.cache
    }

    pub fn finish(self) -> IncrementalStudy {
        self.builder
            .persist(self.state.as_ref().map(|s| &s.evidence))
            .expect("study artifact write failed");
        let (series, reports) = self.builder.finish();
        IncrementalStudy { series, reports }
    }
}

/// Incremental variant of [`run_study`]: the first snapshot is computed
/// in full, every later one as a delta against its predecessor. The
/// rendered series is byte-identical to the full recompute
/// (`tests/incremental.rs` pins this, faults included).
pub fn run_study_incremental(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
) -> IncrementalStudy {
    let mut driver = DeltaStudyEngine::new(world, engine.clone(), config);
    let (lo, hi) = snapshot_range(world, config);
    for t in lo..=hi {
        driver.append_snapshot(t);
    }
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgsim::ScenarioConfig;
    use std::sync::OnceLock;

    fn study() -> &'static StudySeries {
        static S: OnceLock<StudySeries> = OnceLock::new();
        S.get_or_init(|| {
            let world = HgWorld::generate(ScenarioConfig::small());
            run_study(&world, &ScanEngine::rapid7(), &StudyConfig::default())
        })
    }

    /// The monolithic learner the streaming one replaced, rebuilt from the
    /// record-slice helper: observe the whole first covered snapshot of
    /// the spiral, filter each HG's on-net banners, learn from the slice.
    fn monolithic_reference(
        world: &HgWorld,
        engine: &ScanEngine,
        reference_snapshot: usize,
    ) -> HeaderFingerprints {
        let mut fps = HeaderFingerprints::default();
        let Some(obs) = reference_spiral(reference_snapshot, world.n_snapshots())
            .find_map(|t| observe_snapshot(world, engine, t))
        else {
            return fps;
        };
        let Some(banners) = obs.https443.as_ref().or(obs.http80.as_ref()) else {
            return fps;
        };
        let global = GlobalHeaderStats::build(&banners.records);
        for hg in ALL_HGS {
            let hg_ases: std::collections::HashSet<AsId> = world
                .org_db()
                .ases_matching(hg.spec().keyword)
                .into_iter()
                .collect();
            let onnet: Vec<&scanner::HttpRecord> = banners
                .records
                .iter()
                .filter(|r| {
                    obs.ip_to_as
                        .lookup(r.ip)
                        .iter()
                        .any(|a| hg_ases.contains(a))
                })
                .collect();
            fps.insert(crate::headers::learn_header_fingerprints(
                hg.spec().keyword,
                &onnet,
                &global,
                &obs.interner,
            ));
        }
        fps
    }

    fn sorted(fps: &HeaderFingerprints) -> Vec<crate::HeaderFingerprint> {
        let mut v: Vec<_> = fps.iter().cloned().collect();
        v.sort_by(|a, b| a.keyword.cmp(&b.keyword));
        v
    }

    fn small_world() -> &'static HgWorld {
        static W: OnceLock<HgWorld> = OnceLock::new();
        W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
    }

    /// A plan that drops exactly snapshot `t` (and nothing else in the
    /// small world's range), so learning at `t` must take the spiral.
    fn dropping(t: usize) -> scanner::FaultPlan {
        let n = small_world().n_snapshots();
        (0..)
            .map(|seed| {
                scanner::FaultPlan::single(seed, scanner::FaultClass::DroppedSnapshot, 0.05)
            })
            .find(|plan| (0..n).all(|s| plan.drops_snapshot(s) == (s == t)))
            .expect("some seed drops only t")
    }

    /// The streaming learner equals the monolithic reference for one
    /// engine and fault set-up at t ∈ {5, 28, 30}.
    fn assert_learner_matches_reference(
        base: ScanEngine,
        plan: impl Fn(usize) -> Option<scanner::FaultPlan>,
    ) {
        let world = small_world();
        for t in [5, 28, 30] {
            let engine = match plan(t) {
                Some(p) => base.clone().with_faults(Arc::new(p)),
                None => base.clone(),
            };
            let reference = sorted(&monolithic_reference(world, &engine, t));
            assert!(reference
                .iter()
                .any(|fp| !fp.pairs.is_empty() || !fp.names.is_empty()));
            let learned = sorted(&learn_reference_fingerprints(world, &engine, t));
            assert_eq!(learned, reference, "{:?} t={t}", engine.id);
        }
    }

    #[test]
    fn learner_matches_monolithic_reference_rapid7_clean() {
        assert_learner_matches_reference(ScanEngine::rapid7(), |_| None);
    }

    #[test]
    fn learner_matches_monolithic_reference_censys_clean() {
        assert_learner_matches_reference(ScanEngine::censys(), |_| None);
    }

    #[test]
    fn learner_matches_monolithic_reference_rapid7_record_faults() {
        assert_learner_matches_reference(ScanEngine::rapid7(), |_| {
            Some(scanner::FaultPlan::uniform_record_faults(7, 0.1))
        });
    }

    #[test]
    fn learner_matches_monolithic_reference_censys_record_faults() {
        assert_learner_matches_reference(ScanEngine::censys(), |_| {
            Some(scanner::FaultPlan::uniform_record_faults(7, 0.1))
        });
    }

    #[test]
    fn learner_matches_monolithic_reference_rapid7_dropped_snapshot() {
        assert_learner_matches_reference(ScanEngine::rapid7(), |t| Some(dropping(t)));
    }

    #[test]
    fn learner_matches_monolithic_reference_censys_dropped_snapshot() {
        assert_learner_matches_reference(ScanEngine::censys(), |t| Some(dropping(t)));
    }

    #[test]
    fn learned_set_is_independent_of_chunk_size() {
        let world = small_world();
        let engine = ScanEngine::rapid7()
            .with_faults(Arc::new(scanner::FaultPlan::uniform_record_faults(7, 0.1)));
        let want = sorted(&learn_reference_fingerprints(world, &engine, 28));
        for chunk in [1, 777, 20_000] {
            let got = sorted(&learn_reference_fingerprints_sharded(
                world, &engine, 28, chunk,
            ));
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn series_covers_all_snapshots() {
        let s = study();
        assert_eq!(s.snapshots.len(), 31);
        assert_eq!(s.netflix.initial.len(), 31);
    }

    #[test]
    fn google_grows_roughly_3x() {
        let s = study();
        let series = s.confirmed_series(Hg::Google);
        let (start, end) = (series[0] as f64, series[30] as f64);
        assert!(start > 0.0);
        let growth = end / start;
        assert!((2.5..5.0).contains(&growth), "growth {growth}");
    }

    #[test]
    fn akamai_peaks_then_declines() {
        let s = study();
        let series = s.confirmed_series(Hg::Akamai);
        let peak = *series.iter().max().unwrap();
        let peak_idx = series.iter().position(|v| *v == peak).unwrap();
        assert!((12..26).contains(&peak_idx), "peak at {peak_idx}");
        assert!(series[30] < peak, "no decline: {} vs {peak}", series[30]);
    }

    #[test]
    fn facebook_zero_before_launch() {
        let s = study();
        let series = s.confirmed_series(Hg::Facebook);
        assert!(series[..10].iter().all(|v| *v <= 1), "{series:?}");
        assert!(series[30] > series[15]);
    }

    #[test]
    fn netflix_envelope_ordering() {
        let s = study();
        for t in 0..31 {
            assert!(
                s.netflix.initial[t] <= s.netflix.with_expired[t],
                "t={t}: initial {} > with_expired {}",
                s.netflix.initial[t],
                s.netflix.with_expired[t]
            );
            assert!(
                s.netflix.with_expired[t] <= s.netflix.with_non_tls[t],
                "t={t}"
            );
        }
        // Inside the expired window the envelope gap must be substantial.
        let t = 18;
        assert!(
            s.netflix.with_expired[t] > s.netflix.initial[t] * 2,
            "no expired-restoration effect at t={t}: {} vs {}",
            s.netflix.with_expired[t],
            s.netflix.initial[t]
        );
        // The non-TLS restoration must add ASes during the HTTP window.
        assert!(
            s.netflix.with_non_tls[t] > s.netflix.with_expired[t],
            "non-TLS restoration added nothing at t={t}"
        );
    }

    #[test]
    fn candidates_superset_of_confirmed() {
        let s = study();
        for snap in &s.snapshots {
            for hg in hgsim::TOP4 {
                let r = &snap.per_hg[&hg];
                assert!(
                    r.confirmed_ases.is_subset(&r.candidate_ases),
                    "{hg} at {}",
                    snap.snapshot_idx
                );
            }
        }
    }
}
