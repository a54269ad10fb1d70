//! `study-batch`: a `paper` world over the latest snapshots through
//! `run_study_parallel` at `nproc` threads with the shared validation
//! cache and a monolithic corpus, writing the artifact at the end.

use crate::common::*;
use crate::trace::{self, Tracer};
use hgsim::HgWorld;
use offnet_core::{run_study_parallel, StudyArtifact, StudySeries};
use scanner::ScanEngine;
use std::time::Instant;

/// Study window: ends at the last snapshot and includes the reference
/// month 28.
pub const WINDOW: (usize, usize) = (28, 30);

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let engine = ScanEngine::rapid7();
    let artifact = opts.work_dir.join("batch.offna");
    let config = study_config(WINDOW, Some(&artifact));

    let (world, setup) = setup(opts, &mut out);
    reset_peak_rss(&mut out);

    // Untraced passes: world → artifact on disk.
    let mut passes = Vec::new();
    let mut series = None;
    let started = Instant::now();
    while opts.more(passes.len(), started) {
        remove(&artifact);
        let t0 = Instant::now();
        let s = run_study_parallel(&world, &engine, &config, opts.threads);
        passes.push(secs(t0));
        out.checks.snapshots(&s);
        out.checks.op(artifact.is_file());
        series = Some(s);
    }
    out.set("peak_rss_mib", peak_rss_mib());
    let series = series.expect("at least one pass");

    // Outside every timed region: the reloaded artifact must render as
    // the driver's series did.
    let rendered = render(&series);
    let reloaded = StudyArtifact::load(&artifact).map(|a| render(&a.to_series()));
    if let Some(r) = out.checks.op_result("artifact reload", reloaded) {
        out.checks
            .check(r == rendered, "reloaded artifact renders differently");
    }

    let records = cert_records(&series) as f64;
    let pass_s = median(&passes);
    if let Some(tracer) = opts.tracer() {
        traced(opts, tracer, &world, &engine, &series, pass_s, &mut out);
    } else {
        let (recall, precision) = truth_scores(&world, &series);
        out.set("setup_s", median(&setup));
        out.set("pass_s", pass_s);
        out.set("work_per_s", records / pass_s);
        out.set("truth_recall", recall);
        out.set("truth_precision", precision);
        out.detail("study_s", pass_s, "s");
        out.detail("records_per_s", records / pass_s, "1/s");
    }
    out.fact("window", format!("{}-{}", WINDOW.0, WINDOW.1));
    out.fact("passes", passes.len());
    out.fact("setups", setup.len());
    out.fact("cert_records", records);
    out.fact("artifact_bytes", file_bytes(&artifact));
    out
}

/// World generation, timed `opts.setups()` times; the last world is kept.
pub fn setup(opts: &RunOpts, out: &mut Outcome) -> (HgWorld, Vec<f64>) {
    let mut times = Vec::new();
    let mut world = None;
    while opts.more_setups(&times) {
        world.take();
        let t0 = Instant::now();
        let w = trace::span(opts.tracer(), trace::SETUP, None, None, |p| {
            trace::span(opts.tracer(), "hgsim.generate", p, None, |_| {
                opts.world(true)
            })
        });
        times.push(secs(t0));
        world = Some(w);
    }
    out.fact("world", if opts.quick { "small" } else { "paper" });
    (world.expect("at least one set-up"), times)
}

/// The traced run: the same study driven layer by layer under spans,
/// compared byte for byte with the untraced driver's output.
fn traced(
    opts: &RunOpts,
    tracer: &Tracer,
    world: &HgWorld,
    engine: &ScanEngine,
    untraced: &StudySeries,
    untraced_s: f64,
    out: &mut Outcome,
) {
    let artifact = opts.work_dir.join("batch-traced.offna");
    let config = study_config(WINDOW, None);
    let t0 = Instant::now();
    let layered = tracer.span(trace::PASS, None, None, |pass| {
        layered_study(
            world,
            engine,
            &config,
            opts.threads,
            &artifact,
            tracer,
            pass,
        )
    });
    let traced_s = secs(t0);
    let Some((series, counts)) = out.checks.op_result("traced study", layered) else {
        return;
    };
    out.checks.snapshots(&series);
    out.checks.check(
        render(&series) == render(untraced),
        "layer-by-layer study renders differently from run_study_parallel",
    );
    let (read, parse, load) = tracer.span(trace::PROBE, None, None, |probe| {
        probe_artifact_reads(tracer, probe, &artifact, 30, &mut out.checks)
    });

    out.set("scanner.http_records", counts.http_records as f64);
    out.set("corpus.interned_bytes", counts.interned_bytes as f64);
    set_cache(out, counts.cache);
    set_study_counts(out, &series);
    out.set("artifact.bytes", file_bytes(&artifact) as f64);
    out.set("query.read_s", read);
    out.set("query.parse_s", parse);
    out.set("query.load_s", load);
    out.set("trace.overhead_s", traced_s - untraced_s);
    out.detail("traced_pass_s", traced_s, "s");
    out.spans = tracer.spans();
}
