//! `query-mix`: the artifact of a full `small` study, built during set-up,
//! served through `FrozenStudy`. Each pass loads the artifact and answers
//! one seeded query stream in fixed-size batches from a single caller that
//! waits for every answer (a closed loop).

use crate::common::*;
use crate::trace::{self, Tracer};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use offnet_core::{run_study_parallel, StudySeries};
use offnet_query::FrozenStudy;
use scanner::ScanEngine;
use std::path::Path;
use std::time::Instant;

/// Queries per timed batch; per-query latency is batch time over this.
const BATCH: usize = 256;

/// Passes a traced run times under spans.
const TRACED_PASSES: usize = 20;

/// Mixed into `--seed` to derive the query stream's seed.
const QUERY_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy)]
enum Query {
    Hosts(Hg, usize, u32),
    AsesHosting(Hg, usize),
    GrowthCurve(Hg),
    AsCurve(u32),
    HgsInAs(usize, u32),
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Point,
    List,
    Curve,
}

impl Query {
    fn kind(self) -> Kind {
        match self {
            Query::Hosts(..) => Kind::Point,
            Query::AsesHosting(..) | Query::HgsInAs(..) => Kind::List,
            Query::GrowthCurve(_) | Query::AsCurve(_) => Kind::Curve,
        }
    }
}

/// SplitMix64: a small, seedable generator for the query stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The seeded stream: 80% `hosts` point lookups (half hits, half
/// misses), then 8% `ases_hosting` and 4% each of `growth_curve`,
/// `as_curve` and `hgs_in_as`. The weights are an assumption that point
/// lookups dominate, not a measured traffic mix; the traced run times
/// each kind on its own as well.
fn stream(fs: &FrozenStudy, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng(seed ^ QUERY_SEED_SALT);
    let rows = fs.n_rows();
    let cells: Vec<(Hg, usize)> = (0..rows)
        .flat_map(|row| ALL_HGS.iter().map(move |&hg| (hg, row)))
        .filter(|&(hg, row)| !fs.ases_hosting(hg, row).is_empty())
        .collect();
    let max_asn = cells
        .iter()
        .flat_map(|&(hg, row)| fs.ases_hosting(hg, row).last().copied())
        .max()
        .unwrap_or(1);
    let hit = |rng: &mut Rng| {
        let (hg, row) = cells[rng.below(cells.len())];
        let ases = fs.ases_hosting(hg, row);
        (hg, row, ases[rng.below(ases.len())])
    };
    (0..n)
        .map(|_| {
            let roll = rng.below(100);
            let hg = ALL_HGS[rng.below(ALL_HGS.len())];
            let row = rng.below(rows);
            match roll {
                0..=39 if !cells.is_empty() => {
                    let (hg, row, asn) = hit(&mut rng);
                    Query::Hosts(hg, row, asn)
                }
                0..=79 => {
                    // A miss: an AS number the cell does not hold.
                    let mut asn = rng.below(2 * max_asn as usize + 2) as u32;
                    while fs.hosts(hg, row, asn) {
                        asn = asn.wrapping_add(1);
                    }
                    Query::Hosts(hg, row, asn)
                }
                80..=87 => Query::AsesHosting(hg, row),
                88..=91 => Query::GrowthCurve(hg),
                92..=95 if !cells.is_empty() => Query::AsCurve(hit(&mut rng).2),
                92..=95 => Query::AsCurve(rng.below(max_asn as usize + 1) as u32),
                _ if !cells.is_empty() => {
                    let (_, row, asn) = hit(&mut rng);
                    Query::HgsInAs(row, asn)
                }
                _ => Query::HgsInAs(row, 0),
            }
        })
        .collect()
}

/// Answer one query, folding the answer into a digest the caller keeps.
fn ask(fs: &FrozenStudy, q: Query) -> u64 {
    match q {
        Query::Hosts(hg, row, asn) => fs.hosts(hg, row, asn) as u64,
        Query::AsesHosting(hg, row) => {
            let ases = fs.ases_hosting(hg, row);
            ases.len() as u64 + ases.first().map_or(0, |&a| a as u64)
        }
        Query::GrowthCurve(hg) => fs.growth_curve(hg).iter().sum::<usize>() as u64,
        Query::AsCurve(asn) => fs.as_curve(asn).iter().sum::<usize>() as u64,
        Query::HgsInAs(row, asn) => fs.hgs_in_as(row, asn).len() as u64,
    }
}

/// The full answer as served by the artifact.
fn served(fs: &FrozenStudy, q: Query) -> Vec<u64> {
    let wide = |v: Vec<usize>| v.into_iter().map(|x| x as u64).collect();
    match q {
        Query::Hosts(hg, row, asn) => vec![fs.hosts(hg, row, asn) as u64],
        Query::AsesHosting(hg, row) => fs.ases_hosting(hg, row).iter().map(|&a| a as u64).collect(),
        Query::GrowthCurve(hg) => wide(fs.growth_curve(hg)),
        Query::AsCurve(asn) => wide(fs.as_curve(asn)),
        Query::HgsInAs(row, asn) => fs
            .hgs_in_as(row, asn)
            .into_iter()
            .map(|hg| offnet_query::hg_index(hg) as u64)
            .collect(),
    }
}

/// The same answer computed from the live series the study returned.
fn expected(series: &StudySeries, rows: &[usize], q: Query) -> Vec<u64> {
    let hosts = |hg: Hg, row: usize, asn: u32| {
        series.snapshots[rows[row]].per_hg[&hg]
            .confirmed_ases
            .contains(&AsId(asn))
    };
    match q {
        Query::Hosts(hg, row, asn) => vec![hosts(hg, row, asn) as u64],
        Query::AsesHosting(hg, row) => series.snapshots[rows[row]].per_hg[&hg]
            .confirmed_ases
            .iter()
            .map(|a| a.0 as u64)
            .collect(),
        Query::GrowthCurve(hg) => rows
            .iter()
            .map(|&i| series.snapshots[i].per_hg[&hg].confirmed_ases.len() as u64)
            .collect(),
        Query::AsCurve(asn) => (0..rows.len())
            .map(|row| ALL_HGS.iter().filter(|&&hg| hosts(hg, row, asn)).count() as u64)
            .collect(),
        Query::HgsInAs(row, asn) => ALL_HGS
            .iter()
            .enumerate()
            .filter(|&(_, &hg)| hosts(hg, row, asn))
            .map(|(i, _)| i as u64)
            .collect(),
    }
}

/// One pass: load the artifact, then answer the stream batch by batch.
/// Returns (load seconds, per-batch seconds, answer digest).
fn pass(
    path: &Path,
    queries: &[Query],
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Option<(f64, Vec<f64>, u64)> {
    trace::span(tracer, trace::PASS, None, None, |root| {
        let t0 = Instant::now();
        let fs = trace::span(tracer, "query.load", root, None, |_| {
            FrozenStudy::load(path)
        });
        let load_s = secs(t0);
        let fs = checks.op_result("artifact load", fs)?;
        let mut digest = 0u64;
        let mut batches = Vec::with_capacity(queries.len() / BATCH + 1);
        for batch in queries.chunks(BATCH) {
            let t0 = Instant::now();
            trace::span(tracer, "query.batch", root, None, |_| {
                for &q in batch {
                    digest = digest.wrapping_mul(31).wrapping_add(ask(&fs, q));
                }
            });
            batches.push(secs(t0));
        }
        Some((load_s, batches, digest))
    })
}

/// Set-up: a small world and a full study writing the artifact. Traced
/// runs build it layer by layer.
fn setup(opts: &RunOpts, path: &Path, out: &mut Outcome) -> (HgWorld, StudySeries, Vec<f64>) {
    let engine = ScanEngine::rapid7();
    let window = if opts.quick { (24, 30) } else { (0, 30) };
    out.fact("window", format!("{}-{}", window.0, window.1));
    let mut times = Vec::new();
    let mut built = None;
    while opts.more_setups(&times) {
        built.take();
        remove(path);
        let t0 = Instant::now();
        let made = trace::span(opts.tracer(), trace::SETUP, None, None, |p| {
            let world = trace::span(opts.tracer(), "hgsim.generate", p, None, |_| {
                opts.world(false)
            });
            let series = match opts.tracer() {
                Some(tracer) => {
                    let config = study_config(window, None);
                    layered_study(
                        &world,
                        &engine,
                        &config,
                        opts.threads,
                        path,
                        tracer,
                        p.unwrap_or(0),
                    )
                    .map(|(series, counts)| {
                        set_cache(out, counts.cache);
                        out.set("corpus.interned_bytes", counts.interned_bytes as f64);
                        out.set("scanner.http_records", counts.http_records as f64);
                        series
                    })
                    .map_err(|e| e.to_string())
                }
                None => Ok(run_study_parallel(
                    &world,
                    &engine,
                    &study_config(window, Some(path)),
                    opts.threads,
                )),
            };
            (world, series)
        });
        times.push(secs(t0));
        built = Some(made);
    }
    let (world, series) = built.expect("at least one set-up");
    let series = series.unwrap_or_else(|e| panic!("query-mix set-up study failed: {e}"));
    (world, series, times)
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let path = opts.work_dir.join("query.offna");
    let (world, series, setup) = setup(opts, &path, &mut out);
    out.checks.snapshots(&series);

    let Some(fs) = out
        .checks
        .op_result("artifact load", FrozenStudy::load(&path))
    else {
        return out;
    };
    let n = if opts.quick { 4 * BATCH } else { 256 * BATCH };
    let queries = stream(&fs, opts.seed, n);

    // Untimed: every answer must agree with the live series.
    let rows: Vec<usize> = (0..fs.n_rows())
        .map(|row| {
            series
                .snapshots
                .iter()
                .position(|s| s.snapshot_idx == fs.snapshot_idx(row))
                .unwrap_or(usize::MAX)
        })
        .collect();
    out.checks.check(
        fs.n_rows() == series.snapshots.len() && rows.iter().all(|&r| r != usize::MAX),
        "artifact rows differ from the live series' snapshots",
    );
    if !out.checks.correct() {
        return out;
    }
    let mut disagreements = 0;
    for &q in &queries {
        let ok = served(&fs, q) == expected(&series, &rows, q);
        out.checks.op(ok);
        disagreements += !ok as usize;
    }
    out.checks.check(
        disagreements == 0,
        format!("{disagreements} query answers disagree with the live series"),
    );
    let reference = queries
        .iter()
        .fold(0u64, |d, &q| d.wrapping_mul(31).wrapping_add(ask(&fs, q)));

    // Timed passes (untraced; traced runs time a second set under spans).
    let untraced_budget = if opts.tracer().is_some() {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let timed = |tracer: Option<&Tracer>, budget: f64, checks: &mut Checks| {
        let mut runs = Vec::new();
        let started = Instant::now();
        // A traced pass records a span per batch; a few passes suffice.
        let cap = if tracer.is_some() {
            TRACED_PASSES
        } else {
            usize::MAX
        };
        while runs.is_empty() || (!opts.quick && secs(started) < budget && runs.len() < cap) {
            let Some(r) = pass(&path, &queries, tracer, checks) else {
                break;
            };
            runs.push(r);
        }
        runs
    };
    reset_peak_rss(&mut out);
    let runs = timed(None, untraced_budget, &mut out.checks);
    out.set("peak_rss_mib", peak_rss_mib());
    for (_, _, digest) in &runs {
        out.checks.check(
            *digest == reference,
            "timed answers differ from checked answers",
        );
    }
    let loads: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let pass_times: Vec<f64> = runs.iter().map(|r| r.0 + r.1.iter().sum::<f64>()).collect();
    let per_query: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.1.iter())
        .map(|b| b / BATCH as f64)
        .collect();
    let query_time: f64 = runs.iter().flat_map(|r| r.1.iter()).sum();
    let answered = (runs.len() * queries.len()) as f64;

    if let Some(tracer) = opts.tracer() {
        let traced = timed(Some(tracer), opts.seconds / 2.0, &mut out.checks);
        let traced_times: Vec<f64> = traced
            .iter()
            .map(|r| r.0 + r.1.iter().sum::<f64>())
            .collect();
        out.set(
            "trace.overhead_s",
            median(&traced_times) - median(&pass_times),
        );
        tracer.span(trace::PROBE, None, None, |probe| {
            let (read, parse, load) =
                probe_artifact_reads(tracer, probe, &path, 30, &mut out.checks);
            out.set("query.read_s", read);
            out.set("query.parse_s", parse);
            out.set("query.load_s", load);
            for (kind, name) in [
                (Kind::Point, "query.point_ns"),
                (Kind::List, "query.list_ns"),
                (Kind::Curve, "query.curve_ns"),
            ] {
                out.set(name, kind_ns(&fs, &queries, kind));
            }
        });
        set_study_counts(&mut out, &series);
        out.set("artifact.bytes", file_bytes(&path) as f64);
        out.fact("traced_passes", traced.len());
        out.spans = tracer.spans();
    } else {
        let (recall, precision) = truth_scores(&world, &series);
        out.set("setup_s", median(&setup));
        // The mean, not the median: a shared host's speed can shift
        // between states lasting tens of seconds, and a median over these
        // short passes reports whichever state held most of the run.
        out.set(
            "pass_s",
            ratio(pass_times.iter().sum(), pass_times.len() as f64),
        );
        out.set("work_per_s", answered / query_time);
        out.set("truth_recall", recall);
        out.set("truth_precision", precision);
        out.detail("artifact_load_p50_ms", median(&loads) * 1e3, "ms");
        out.detail("query_p50_ns", median(&per_query) * 1e9, "ns");
        // A p99 needs at least ten batches beyond it.
        if per_query.len() >= 1000 {
            out.detail("query_p99_ns", quantile(&per_query, 0.99) * 1e9, "ns");
        }
        out.detail("queries_per_s", answered / query_time, "1/s");
    }
    out.fact("world", "small");
    out.fact("query_seed", opts.seed ^ QUERY_SEED_SALT);
    out.fact("queries_per_pass", queries.len());
    out.fact("batch", BATCH);
    out.fact("batches", per_query.len());
    out.fact("passes", runs.len());
    out.fact("setups", setup.len());
    out.fact("artifact_bytes", file_bytes(&path));
    out
}

/// Median per-query latency of one kind, from homogeneous batches.
fn kind_ns(fs: &FrozenStudy, queries: &[Query], kind: Kind) -> f64 {
    let only: Vec<Query> = queries
        .iter()
        .copied()
        .filter(|q| q.kind() == kind)
        .collect();
    let mut per_query = Vec::new();
    for _ in 0..5 {
        for batch in only.chunks(BATCH) {
            let t0 = Instant::now();
            let mut digest = 0u64;
            for &q in batch {
                digest = digest.wrapping_add(ask(fs, q));
            }
            std::hint::black_box(digest);
            per_query.push(secs(t0) / batch.len() as f64);
        }
    }
    median(&per_query) * 1e9
}
