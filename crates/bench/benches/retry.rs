//! Transient-failure layer benchmarks: the cost of the deterministic
//! retry/backoff policy on a single-snapshot scan at increasing failure
//! rates (0, 5%, 20%), and the cost of the delta engine's per-append
//! artifact persist (encode + SHA-256 + atomic write + fsync-free rename)
//! of a full 31-snapshot study, with and without the delta-evidence tail
//! section that makes the artifact resumable.
//!
//! Rate 0 is the tentpole's zero-cost claim: the policy is consulted per
//! target but never injects, so the delta over the bare engine bounds the
//! overhead of carrying the layer. `BENCH_retry.json` records the figures.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use offnet_bench::small_world;
use offnet_core::{
    artifact_fingerprint, standard_validate_options, ArtifactBuilder, SnapshotCorpus,
    SnapshotEvidence, StudyConfig,
};
use scanner::{observe_snapshot, ScanEngine, TransientPolicy};
use std::sync::Arc;

fn bench_retry(c: &mut Criterion) {
    let world = small_world();
    let t = 30usize;
    let targets = {
        let obs = observe_snapshot(world, &ScanEngine::rapid7(), t).expect("snapshot in corpus");
        obs.cert.health.targets
    };

    let mut group = c.benchmark_group("retry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(targets as u64));
    group.bench_function("scan_no_policy", |b| {
        let engine = ScanEngine::rapid7();
        b.iter(|| std::hint::black_box(observe_snapshot(world, &engine, t)))
    });
    for (label, rate) in [
        ("scan_rate_0", 0.0),
        ("scan_rate_5pct", 0.05),
        ("scan_rate_20pct", 0.20),
    ] {
        let engine = ScanEngine::rapid7().with_transients(Arc::new(TransientPolicy::new(11, rate)));
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(observe_snapshot(world, &engine, t)))
        });
    }
    group.finish();

    // Per-append persist cost: the delta engine re-persists the whole
    // artifact after every append, tail section included. Timed at its
    // largest, the full 31-snapshot study with the t=30 evidence.
    let engine = ScanEngine::rapid7();
    let series = offnet_bench::small_study();
    let mut builder = ArtifactBuilder::new(
        engine.id,
        series.header_fps.clone(),
        artifact_fingerprint(world, &engine, &StudyConfig::default()),
    );
    for snap in &series.snapshots {
        let ip_to_as = world.ip_to_as(snap.snapshot_idx);
        builder.push_snapshot(snap.clone(), |ip| ip_to_as.lookup(ip).to_vec());
    }
    let evidence = {
        let obs = observe_snapshot(world, &engine, t).expect("snapshot in corpus");
        let chain_rows = obs.cert.chain_digests();
        let ctx = offnet_bench::small_ctx();
        let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);
        SnapshotEvidence::build(&corpus, chain_rows)
    };
    let dir = std::env::temp_dir().join(format!("offnet-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    builder.attach_path(dir.join("rapid7.offna"));

    let mut group = c.benchmark_group("artifact");
    group.sample_size(10);
    group.bench_function("persist_with_tail", |b| {
        b.iter(|| {
            builder
                .persist(Some(std::hint::black_box(&evidence)))
                .expect("persist")
        })
    });
    group.bench_function("persist_without_tail", |b| {
        b.iter(|| builder.persist(None).expect("persist"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_retry);
criterion_main!(benches);
