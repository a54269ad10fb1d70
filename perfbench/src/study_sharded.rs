//! `study-sharded-cold` and `study-sharded-warm`: the `study-batch` world
//! and window through `StudyConfig.sharding`, driven by `run_study`. The
//! cold workload times passes into a fresh spill directory. The warm
//! workload fills the directory once during set-up and times reruns that
//! admit its segments. Each direction has its own gated figures, so a
//! shard or codec change that helps one and hurts the other shows.

use crate::common::*;
use crate::study_batch::{setup, WINDOW};
use crate::trace::{self, Tracer};
use hgsim::HgWorld;
use offnet_core::{
    process_corpus, run_study, shard::admit_segments_for_bench, standard_validate_options,
    PipelineContext, ShardLedger, ShardingConfig, SnapshotCorpus, StudySeries,
};
use scanner::{observe_snapshot, ScanEngine};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Endpoints per shard: several shards per snapshot at either scale.
fn shard_size(opts: &RunOpts) -> usize {
    if opts.quick {
        1_000
    } else {
        20_000
    }
}

fn sharding(opts: &RunOpts, spill: &Path) -> ShardingConfig {
    ShardingConfig::new(shard_size(opts), spill).with_workers(opts.threads)
}

/// One sharded study over `spill`, writing `artifact`.
struct Pass {
    series: StudySeries,
    ledger: Arc<ShardLedger>,
    secs: f64,
}

fn pass(opts: &RunOpts, world: &HgWorld, engine: &ScanEngine, spill: &Path) -> Pass {
    let cfg = sharding(opts, spill);
    let mut config = study_config(WINDOW, Some(&opts.work_dir.join("sharded.offna")));
    config.sharding = Some(cfg.clone());
    let t0 = Instant::now();
    let series = run_study(world, engine, &config);
    Pass {
        series,
        ledger: cfg.ledger,
        secs: secs(t0),
    }
}

pub fn run_cold(opts: &RunOpts) -> Outcome {
    run(opts, false)
}

pub fn run_warm(opts: &RunOpts) -> Outcome {
    run(opts, true)
}

fn run(opts: &RunOpts, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let engine = ScanEngine::rapid7();
    let (world, setup) = setup(opts, &mut out);
    let spill = opts.work_dir.join("spill");

    // The warm workload's set-up also fills the spill directory once; its
    // time is added to the median world generation.
    let filled = warm.then(|| {
        trace::span(opts.tracer(), trace::SETUP, None, None, |p| {
            trace::span(opts.tracer(), "shard.fill", p, None, |_| {
                pass(opts, &world, &engine, &spill)
            })
        })
    });
    let setup_s = median(&setup) + filled.as_ref().map_or(0.0, |f| f.secs);
    reset_peak_rss(&mut out);

    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while opts.more(passes.len(), started) {
        if !warm {
            remove(&spill);
        }
        passes.push(pass(opts, &world, &engine, &spill));
    }
    out.set("peak_rss_mib", peak_rss_mib());
    for p in &passes {
        out.checks.snapshots(&p.series);
    }
    let last = passes.last().expect("at least one pass");
    match &filled {
        Some(cold) => {
            out.checks.snapshots(&cold.series);
            for p in &passes {
                check_rerun(cold, p, &mut out.checks);
            }
        }
        None => check_cold(opts, &world, &engine, last, &mut out.checks),
    }

    let records = cert_records(&last.series) as f64;
    let times: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let pass_s = median(&times);
    if let Some(tracer) = opts.tracer() {
        traced(
            opts,
            tracer,
            &world,
            &engine,
            last,
            filled.as_ref(),
            &mut out,
        );
    } else {
        let (recall, precision) = truth_scores(&world, &last.series);
        out.set("setup_s", setup_s);
        out.set("pass_s", pass_s);
        out.set("work_per_s", records / pass_s);
        out.set("truth_recall", recall);
        out.set("truth_precision", precision);
        if warm {
            out.detail("rerun_s", pass_s, "s");
        } else {
            out.detail("study_s", pass_s, "s");
            out.detail("records_per_s", records / pass_s, "1/s");
        }
    }
    out.fact("window", format!("{}-{}", WINDOW.0, WINDOW.1));
    out.fact("shard_size", shard_size(opts));
    out.fact("passes", passes.len());
    out.fact("setups", setup.len());
    out.fact("cert_records", records);
    if let Some(cold) = &filled {
        out.fact("fill_s", cold.secs);
        out.fact("segments", cold.ledger.segments_built());
    } else {
        out.fact("segments", last.ledger.segments_built());
    }
    out
}

/// A cold pass builds every segment and reuses none, and the window's last
/// snapshot equals the monolithic path's result for it.
fn check_cold(opts: &RunOpts, world: &HgWorld, engine: &ScanEngine, p: &Pass, checks: &mut Checks) {
    checks.check(
        p.ledger.segments_built() > 0 && p.ledger.segments_reused() == 0,
        format!(
            "cold pass built {} segments and reused {}",
            p.ledger.segments_built(),
            p.ledger.segments_reused()
        ),
    );
    let Some(sharded) = p.series.snapshots.last() else {
        checks.check(false, "cold pass returned no snapshot");
        return;
    };
    let t = sharded.snapshot_idx;
    let ctx = PipelineContext::new(
        world.pki().root_store().clone(),
        world.org_db(),
        p.series.header_fps.clone(),
    )
    .with_threads(opts.threads);
    let monolithic = observe_snapshot(world, engine, t).map(|obs| {
        let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);
        process_corpus(&corpus, &ctx)
    });
    checks.check(
        monolithic.is_some_and(|m| {
            render_snapshot(&p.series, m) == render_snapshot(&p.series, sharded.clone())
        }),
        format!("sharded snapshot {t} differs from the monolithic corpus"),
    );
}

/// A rerun renders as the cold pass that filled the directory did, builds
/// nothing and reuses every segment.
fn check_rerun(cold: &Pass, rerun: &Pass, checks: &mut Checks) {
    checks.check(
        render(&cold.series) == render(&rerun.series),
        "warm rerun renders differently from the cold pass",
    );
    let built = cold.ledger.segments_built();
    checks.check(
        built > 0 && rerun.ledger.segments_built() == 0 && rerun.ledger.segments_reused() == built,
        format!(
            "rerun rebuilt segments: cold built {built}, warm built {} and reused {}",
            rerun.ledger.segments_built(),
            rerun.ledger.segments_reused()
        ),
    );
}

/// The traced run: one pass of the workload's direction driven snapshot by
/// snapshot under spans (the cold one into a fresh directory, the warm one
/// over the filled directory), then, for the warm workload, a summary-path
/// admission probe over the segments.
fn traced(
    opts: &RunOpts,
    tracer: &Tracer,
    world: &HgWorld,
    engine: &ScanEngine,
    untraced: &Pass,
    filled: Option<&Pass>,
    out: &mut Outcome,
) {
    let (spill, layer) = match filled {
        Some(_) => (opts.work_dir.join("spill"), "shard.warm"),
        None => (opts.work_dir.join("spill-traced"), "shard.cold"),
    };
    if filled.is_none() {
        remove(&spill);
    }
    let artifact = opts.work_dir.join("sharded-traced.offna");
    let cfg = sharding(opts, &spill);
    let mut config = study_config(WINDOW, None);
    config.sharding = Some(cfg.clone());
    let t0 = Instant::now();
    let series = tracer.span(trace::PASS, None, None, |pass| {
        layered_sharded(world, engine, &config, &artifact, tracer, pass, layer)
    });
    let traced_s = secs(t0);
    if let Some(series) = out.checks.op_result("traced sharded study", series) {
        out.checks.snapshots(&series);
        out.checks.check(
            render(&series) == render(&untraced.series),
            format!("traced {layer} pass renders differently from run_study"),
        );
    }
    if filled.is_some() {
        let admit = tracer.span(trace::PROBE, None, None, |probe| {
            let t0 = Instant::now();
            for t in WINDOW.0..=WINDOW.1 {
                let r = tracer.span("shard.admit", Some(probe), Some(t), |_| {
                    admit_segments_for_bench(world, engine, t, &cfg, false)
                });
                out.checks.op_result("segment admission", r);
            }
            secs(t0)
        });
        out.set("shard.admit_s", admit);
    }

    let rows = cfg.ledger.rows();
    let built = cfg.ledger.segments_built();
    let reused = cfg.ledger.segments_reused();
    out.set("shard.segments_built", built as f64);
    out.set("shard.segments_reused", reused as f64);
    out.set(
        "shard.reuse_ratio",
        ratio(reused as f64, (built + reused) as f64),
    );
    out.set(
        "shard.spill_bytes",
        rows.iter().map(|r| r.segment_bytes).sum::<usize>() as f64,
    );
    out.set(
        "shard.peak_resident_bytes",
        cfg.ledger.peak_resident_interned_bytes() as f64,
    );
    out.set(
        "corpus.interned_bytes",
        rows.iter().map(|r| r.interned_bytes).sum::<usize>() as f64,
    );
    set_study_counts(out, &untraced.series);
    out.set("artifact.bytes", file_bytes(&artifact) as f64);
    out.set("trace.overhead_s", traced_s - untraced.secs);
    out.detail("traced_pass_s", traced_s, "s");
    out.spans = tracer.spans();
}
