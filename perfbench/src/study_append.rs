//! `study-append`: a `small` world appended month by month through
//! `DeltaStudyEngine::with_artifact`, starting from a fresh artifact path
//! and re-persisting the artifact after every append.

use crate::common::*;
use crate::trace;
use hgsim::HgWorld;
use offnet_core::{
    run_study_parallel, DeltaReport, DeltaStudyEngine, IncrementalStudy, StudyArtifact, StudyConfig,
};
use scanner::ScanEngine;
use std::path::Path;
use std::time::Instant;

fn window(opts: &RunOpts) -> (usize, usize) {
    if opts.quick {
        (26, 30)
    } else {
        (0, 30)
    }
}

/// A fresh engine on an empty artifact path.
fn engine_at<'w>(
    world: &'w HgWorld,
    config: &StudyConfig,
    artifact: &Path,
) -> Result<DeltaStudyEngine<'w>, offnet_core::ArtifactError> {
    remove(artifact);
    DeltaStudyEngine::new(world, ScanEngine::rapid7(), config).with_artifact(artifact)
}

/// Append every month of the window, timing each append.
fn append_all(
    opts: &RunOpts,
    engine: &mut DeltaStudyEngine<'_>,
    pass: Option<u32>,
    latencies: &mut Vec<f64>,
    checks: &mut Checks,
) {
    let (lo, hi) = window(opts);
    for t in lo..=hi {
        let t0 = Instant::now();
        let r = trace::span(opts.tracer(), "delta.append", pass, Some(t), |_| {
            engine.try_append_snapshot(t)
        });
        latencies.push(secs(t0));
        checks.op_result("append", r);
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let artifact = opts.work_dir.join("append.offna");
    let config = study_config(window(opts), None);

    // Set-up: world generation plus engine construction (which learns the
    // reference fingerprints), timed several times.
    let mut setup = Vec::new();
    while opts.tracer().is_none() && !opts.quick && opts.more_setups(&setup) {
        let t0 = Instant::now();
        let world = opts.world(false);
        let engine = engine_at(&world, &config, &artifact);
        setup.push(secs(t0));
        drop(engine);
    }
    let t0 = Instant::now();
    let world = trace::span(opts.tracer(), trace::SETUP, None, None, |p| {
        trace::span(opts.tracer(), "hgsim.generate", p, None, |_| {
            opts.world(false)
        })
    });
    let world = &world;
    let first = trace::span(opts.tracer(), trace::SETUP, None, None, |p| {
        trace::span(opts.tracer(), "headers.ref_learn", p, None, |_| {
            engine_at(world, &config, &artifact)
        })
    });
    setup.push(secs(t0));
    let mut engine = out.checks.op_result("engine construction", first);
    reset_peak_rss(&mut out);

    let mut passes = Vec::new();
    let mut latencies = Vec::new();
    let mut study: Option<IncrementalStudy> = None;
    let started = Instant::now();
    while opts.more(passes.len(), started) {
        // Every pass after the first starts over on a fresh artifact path;
        // built only once the pass is sure to run, so the last pass's
        // artifact stays on disk for the checks below.
        let next = match engine.take() {
            Some(e) => Some(e),
            None => out
                .checks
                .op_result("engine construction", engine_at(world, &config, &artifact)),
        };
        let Some(mut e) = next else {
            break;
        };
        let t0 = Instant::now();
        trace::span(opts.tracer(), trace::PASS, None, None, |pass| {
            append_all(opts, &mut e, pass, &mut latencies, &mut out.checks)
        });
        passes.push(secs(t0));
        if opts.tracer().is_some() {
            let cache = e.cache().stats();
            set_cache(&mut out, cache);
        }
        study = Some(e.finish());
    }
    out.set("peak_rss_mib", peak_rss_mib());
    let Some(study) = study else {
        out.checks.check(false, "no append pass completed");
        return out;
    };

    // Outside the timed region: the appended series equals the batch
    // driver's over the same world, and the artifact reloads to it.
    let rendered = render(&study.series);
    let batch = run_study_parallel(world, &ScanEngine::rapid7(), &config, opts.threads);
    out.checks.check(
        rendered == render(&batch),
        "appended series renders differently from run_study_parallel",
    );
    let reloaded = StudyArtifact::load(&artifact).map(|a| render(&a.to_series()));
    if let Some(r) = out.checks.op_result("artifact reload", reloaded) {
        out.checks
            .check(r == rendered, "reloaded artifact renders differently");
    }

    let records = cert_records(&study.series) as f64;
    let pass_s = median(&passes);
    if let Some(tracer) = opts.tracer() {
        set_reports(&mut out, &study.reports);
        set_study_counts(&mut out, &study.series);
        out.set("delta.append_s", latencies.iter().sum());
        out.set("artifact.bytes", file_bytes(&artifact) as f64);
        let (read, parse, load) = tracer.span(trace::PROBE, None, None, |probe| {
            probe_artifact_reads(tracer, probe, &artifact, 30, &mut out.checks)
        });
        out.set("query.read_s", read);
        out.set("query.parse_s", parse);
        out.set("query.load_s", load);
        // The untraced reference pass for the overhead figure.
        let mut untraced = Vec::new();
        if let Some(mut e) = out
            .checks
            .op_result("engine construction", engine_at(world, &config, &artifact))
        {
            let t0 = Instant::now();
            let (lo, hi) = window(opts);
            for t in lo..=hi {
                let r = e.try_append_snapshot(t);
                out.checks.op_result("append", r);
            }
            untraced.push(secs(t0));
        }
        out.set("trace.overhead_s", pass_s - median(&untraced));
        out.spans = tracer.spans();
    } else {
        let (recall, precision) = truth_scores(world, &study.series);
        out.set("setup_s", median(&setup));
        out.set("pass_s", pass_s);
        out.set("work_per_s", records / pass_s);
        out.set("truth_recall", recall);
        out.set("truth_precision", precision);
        out.detail("append_p50_ms", median(&latencies) * 1e3, "ms");
        out.detail("append_total_s", pass_s, "s");
    }
    let (lo, hi) = window(opts);
    out.fact("world", "small");
    out.fact("window", format!("{lo}-{hi}"));
    out.fact("passes", passes.len());
    out.fact("appends", latencies.len());
    out.fact("setups", setup.len());
    out.fact("cert_records", records);
    out.fact("artifact_bytes", file_bytes(&artifact));
    out
}

/// Delta-engine reuse counters summed over one pass's reports.
fn set_reports(out: &mut Outcome, reports: &[DeltaReport]) {
    let sum = |f: fn(&DeltaReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let replayed = sum(|r| r.cells_replayed as u64);
    let total = sum(|r| r.cells_total() as u64);
    out.set("delta.hgs_replayed", sum(|r| r.hgs_replayed as u64));
    out.set("delta.hgs_recomputed", sum(|r| r.hgs_recomputed as u64));
    out.set("delta.cells_replayed", replayed);
    out.set("delta.replay_ratio", ratio(replayed, total));
    out.set("delta.chains_replayed", sum(|r| r.chains_replayed));
    out.set("delta.chains_revalidated", sum(|r| r.chains_revalidated));
}
