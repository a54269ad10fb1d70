//! Crash-resumable studies: the study artifact is the resume point. A
//! delta-engine run killed mid-study and relaunched on the same artifact
//! must render byte-identical output to an uninterrupted run — clean and
//! under injected faults and transients alike — and its first live append
//! must still be a delta, restored from the artifact's evidence tail.
//! Artifact corruption, configuration drift and a range the artifact does
//! not fit surface as typed errors with remediation, never as silent
//! wrong answers. The sharded pipeline composes with resume: segments
//! orphaned by a mid-snapshot crash are reused.
//!
//! `OFFNET_FAULT_RATE` (shared with `tests/incremental.rs` and the CI
//! kill/resume job) sets the corruption rate for the faulted comparison.

use hgsim::{HgWorld, ScenarioConfig};
use offnet_bench::render_study;
use offnet_core::{
    run_study, ArtifactError, DeltaStudyEngine, IncrementalStudy, ShardingConfig, StudyConfig,
};
use scanner::{FaultPlan, ScanEngine, TransientPolicy};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

fn fault_rate() -> f64 {
    std::env::var("OFFNET_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

/// A process-unique scratch directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offnet-resume-{tag}-{}", std::process::id()));
    // Stale files from a previous crashed test run must not leak in.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn config(range: (usize, usize)) -> StudyConfig {
    StudyConfig {
        snapshots: range,
        ..Default::default()
    }
}

/// Append `config`'s snapshots up to `kill_after` on top of the artifact
/// at `path`, then drop the engine without `finish()`: a kill, after
/// which only the per-append persists are on disk.
fn killed_run(engine: &ScanEngine, config: &StudyConfig, path: &Path, kill_after: usize) {
    let mut e = DeltaStudyEngine::new(world(), engine.clone(), config)
        .with_artifact(path)
        .expect("fresh artifact");
    for t in config.snapshots.0..=kill_after {
        e.try_append_snapshot(t).expect("append");
    }
}

/// Relaunch: adopt the artifact at `path` and append the whole range.
fn resumed_run(
    engine: &ScanEngine,
    config: &StudyConfig,
    path: &Path,
) -> Result<IncrementalStudy, ArtifactError> {
    let mut e = DeltaStudyEngine::new(world(), engine.clone(), config).with_artifact(path)?;
    for t in config.snapshots.0..=config.snapshots.1 {
        e.try_append_snapshot(t)?;
    }
    Ok(e.finish())
}

/// Killed after snapshot 25 and relaunched: the resumed study renders
/// byte-identical to an uninterrupted run, and so does the artifact it
/// leaves. Rerunning over the complete artifact changes nothing.
#[test]
fn kill_resume_is_byte_identical() {
    let engine = ScanEngine::rapid7();
    let cfg = config((20, 30));
    let uninterrupted = render_study(&run_study(world(), &engine, &cfg));

    let dir = temp_dir("clean");
    let path = dir.join("rapid7.offna");
    killed_run(&engine, &cfg, &path, 25);
    let resumed = resumed_run(&engine, &cfg, &path).expect("resumed run");
    assert_eq!(
        uninterrupted,
        render_study(&resumed.series),
        "resumed study diverged from the uninterrupted run"
    );
    let artifact = offnet_core::StudyArtifact::load(&path).expect("artifact");
    assert_eq!(uninterrupted, render_study(&artifact.to_series()));
    assert_eq!(
        artifact.snapshots.len(),
        11,
        "one row per snapshot in 20..=30"
    );

    // Resume is idempotent: everything is adopted, nothing recomputed,
    // and the file is rewritten byte for byte.
    let before = std::fs::read(&path).unwrap();
    let again = resumed_run(&engine, &cfg, &path).expect("idempotent run");
    assert_eq!(uninterrupted, render_study(&again.series));
    assert_eq!(again.reports, resumed.reports);
    assert_eq!(
        before,
        std::fs::read(&path).unwrap(),
        "rerun changed the file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first snapshot computed after the resume must be a *delta*
/// against the evidence the artifact carries, not a full-compute
/// fallback; adopted snapshots keep their original reuse reports.
#[test]
fn incremental_kill_resume_stays_incremental() {
    let engine = ScanEngine::rapid7();
    let cfg = config((20, 30));
    let dir = temp_dir("inc");
    let path = dir.join("rapid7.offna");
    killed_run(&engine, &cfg, &path, 25);
    let resumed = resumed_run(&engine, &cfg, &path).expect("resumed");

    assert_eq!(resumed.reports.len(), resumed.series.snapshots.len());
    let resume_point = resumed
        .reports
        .iter()
        .find(|r| r.snapshot_idx == 26)
        .expect("snapshot 26 was processed live");
    assert!(
        !resume_point.full_compute,
        "resume fell back to a full compute instead of diffing restored evidence"
    );
    assert!(resume_point.hgs_replayed > 0, "no HG replayed after resume");
    assert!(resumed.reports[0].full_compute, "t=20 was the cold start");
    assert!(
        resumed.reports[1..].iter().all(|r| !r.full_compute),
        "every snapshot after the cold start is a delta"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The robustness layers compose: with record faults and transient scan
/// failures both injected, a killed-and-resumed run still renders
/// byte-identical to an uninterrupted faulted run.
#[test]
fn kill_resume_is_byte_identical_under_faults_and_transients() {
    let rate = fault_rate();
    let engine = ScanEngine::rapid7()
        .with_faults(Arc::new(FaultPlan::uniform_record_faults(11, rate)))
        .with_transients(Arc::new(TransientPolicy::new(11, 0.2)));
    let cfg = config((22, 30));
    let uninterrupted = run_study(world(), &engine, &cfg);

    let dir = temp_dir("faulted");
    let path = dir.join("rapid7.offna");
    killed_run(&engine, &cfg, &path, 25);
    let resumed = resumed_run(&engine, &cfg, &path).expect("resumed run");
    assert_eq!(
        render_study(&uninterrupted),
        render_study(&resumed.series),
        "faulted resume diverged (fault rate {rate}, transient rate 0.2)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact written under a different configuration (here: another
/// fault plan) is refused with a typed `ConfigMismatch` carrying the
/// remedy; after deleting the file the run succeeds.
#[test]
fn mismatched_config_artifact_is_rejected_then_recoverable() {
    let cfg = config((28, 30));
    let dir = temp_dir("mismatch");
    let path = dir.join("rapid7.offna");
    resumed_run(&ScanEngine::rapid7(), &cfg, &path).expect("seed the artifact");

    let faulted =
        ScanEngine::rapid7().with_faults(Arc::new(FaultPlan::uniform_record_faults(5, 0.05)));
    let err = resumed_run(&faulted, &cfg, &path).expect_err("adopted a foreign artifact");
    assert!(
        matches!(err, ArtifactError::ConfigMismatch { .. }),
        "wrong error: {err}"
    );
    assert!(
        err.to_string()
            .ends_with("delete the artifact file or rerun without --resume"),
        "error lacks remediation: {err}"
    );

    std::fs::remove_file(&path).expect("delete the artifact");
    let rerun = resumed_run(&faulted, &cfg, &path).expect("rerun after delete");
    assert_eq!(
        render_study(&run_study(world(), &faulted, &cfg)),
        render_study(&rerun.series)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted artifact is a typed, recoverable error: the resumed run
/// refuses with `Corrupt` (never a panic, never a silent wrong answer),
/// and after deleting the file the rerun succeeds and still matches the
/// uninterrupted output.
#[test]
fn corrupt_artifact_is_rejected_then_recoverable() {
    let engine = ScanEngine::rapid7();
    let cfg = config((27, 30));
    let uninterrupted = render_study(&run_study(world(), &engine, &cfg));

    let dir = temp_dir("corrupt");
    let path = dir.join("rapid7.offna");
    killed_run(&engine, &cfg, &path, 28);
    let mut bytes = std::fs::read(&path).expect("artifact exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let err = resumed_run(&engine, &cfg, &path).expect_err("resumed over a corrupt artifact");
    assert!(
        matches!(err, ArtifactError::Corrupt { .. }),
        "wrong error: {err}"
    );
    assert!(
        err.to_string()
            .ends_with("delete the artifact file or rerun without --resume"),
        "error lacks remediation: {err}"
    );

    std::fs::remove_file(&path).expect("delete the artifact");
    let rerun = resumed_run(&engine, &cfg, &path).expect("rerun after delete");
    assert_eq!(uninterrupted, render_study(&rerun.series));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded run killed *mid-snapshot* — snapshot 24's segments spilled but
/// the artifact not yet re-persisted: the resumed run renders
/// byte-identical to an uninterrupted in-memory study, reuses the
/// orphaned segments instead of rescanning, and a lost segment is rebuilt
/// in isolation.
#[test]
fn sharded_kill_resume_reuses_spilled_segments() {
    let engine = ScanEngine::rapid7();
    let full_range = (20, 27);
    let uninterrupted = render_study(&run_study(world(), &engine, &config(full_range)));

    let dir = temp_dir("shard");
    let path = dir.join("rapid7.offna");
    let spill_dir = dir.join("segments");
    let sharded = || StudyConfig {
        sharding: Some(ShardingConfig::new(400, spill_dir.clone())),
        ..config(full_range)
    };

    // Run through t=23 and keep that artifact; then let t=24 spill its
    // segments and put the t=23 artifact back — the state a crash leaves
    // between the spill and the persist.
    killed_run(&engine, &sharded(), &path, 23);
    let before_24 = std::fs::read(&path).expect("artifact through t=23");
    killed_run(&engine, &sharded(), &path, 24);
    std::fs::write(&path, &before_24).unwrap();

    let resume_cfg = sharded();
    let resumed = resumed_run(&engine, &resume_cfg, &path).expect("resumed run");
    assert_eq!(
        uninterrupted,
        render_study(&resumed.series),
        "sharded resume diverged from the uninterrupted in-memory run"
    );
    let ledger = resume_cfg.sharding.as_ref().unwrap().ledger.clone();
    let rows = ledger.rows();
    // t=20..=23 were adopted from the artifact (their segments untouched);
    // t=24 reused every orphaned segment; t=25..=27 built fresh.
    assert!(ledger.segments_reused() > 0, "orphaned segments rescanned");
    assert!(
        rows.iter().all(|r| r.snapshot_idx >= 24),
        "adopted snapshots were reprocessed: {rows:?}"
    );
    assert!(
        rows.iter()
            .all(|r| r.snapshot_idx != 24 || (r.reused && r.segment_bytes > 0)),
        "t=24 segments were rebuilt instead of reused: {rows:?}"
    );
    assert!(
        rows.iter().any(|r| r.snapshot_idx == 25 && !r.reused),
        "post-kill snapshots should build fresh segments"
    );

    // Crash again before t=24's persist, this time with one segment also
    // lost: exactly that segment rebuilds, the rest are admitted from
    // disk, and the rendering still matches.
    std::fs::write(&path, &before_24).unwrap();
    let victim = spill_dir.join("t0024").join("shard_0001.seg");
    std::fs::remove_file(&victim).expect("lose one segment");
    let rerun_cfg = sharded();
    let rerun = resumed_run(&engine, &rerun_cfg, &path).expect("second resume");
    assert_eq!(uninterrupted, render_study(&rerun.series));
    let ledger = rerun_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(ledger.segments_built(), 1, "only the lost segment rebuilds");
    assert!(ledger.segments_reused() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The artifact fingerprint excludes the snapshot range, so an artifact
/// written over 14..=22 matches a run over 18..=22 — but it is not a
/// prefix of that study. Adopting it would return a series that includes
/// 14..=17, so the engine refuses with a typed `RangeMismatch`.
#[test]
fn start_shift_resume_is_rejected() {
    let engine = ScanEngine::rapid7();
    let dir = temp_dir("shift");
    let path = dir.join("rapid7.offna");
    resumed_run(&engine, &config((14, 22)), &path).expect("seed the artifact");

    let err = resumed_run(&engine, &config((18, 22)), &path)
        .expect_err("adopted snapshots outside the study range");
    assert!(
        matches!(
            err,
            ArtifactError::RangeMismatch {
                snapshot_idx: 14,
                range: (18, 22),
                ..
            }
        ),
        "wrong error: {err}"
    );
    assert!(
        err.to_string()
            .ends_with("delete the artifact file or rerun without --resume"),
        "error lacks remediation: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed artifact write is an error the append returns, not a panic:
/// here the artifact's parent directory is a regular file.
#[test]
fn artifact_write_failure_is_returned_not_panicked() {
    let dir = temp_dir("unwritable");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let mut e = DeltaStudyEngine::new(world(), ScanEngine::rapid7(), &config((30, 30)))
        .with_artifact(blocker.join("rapid7.offna"))
        .expect("a missing artifact starts fresh");
    let err = e.try_append_snapshot(30).expect_err("write must fail");
    assert!(
        matches!(err, ArtifactError::Io { .. }),
        "wrong error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
