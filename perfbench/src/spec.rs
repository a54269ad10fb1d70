//! What the benchmark measures: its workloads, its end-to-end metrics and
//! its per-layer metrics. `BENCHMARK.json` at the repository root is
//! rendered from these tables (`perfbench manifest`), so the file and the
//! code cannot drift apart.

/// The program and arguments that run one workload.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run spends in its timed region.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "study-batch",
        why: "paper world, snapshots 28-30, run_study_parallel at nproc threads with the shared \
              validation cache: the researcher's path, where scanner and corpus do the work",
    },
    Workload {
        name: "study-sharded-cold",
        why: "same world and window through StudyConfig.sharding, each pass into a fresh spill \
              directory: segment encode, SHA-256 and persist on the nproc-wide shard pipeline",
    },
    Workload {
        name: "study-sharded-warm",
        why: "same world and window; set-up fills the spill directory once, each pass reruns over \
              it and admits every segment through its summary: the warm direction on its own",
    },
    Workload {
        name: "study-append",
        why: "small world, DeltaStudyEngine appends all 31 months to a fresh artifact and \
              re-persists it after each: the operator path through delta and artifact",
    },
    Workload {
        name: "query-mix",
        why: "artifact of a full small study: FrozenStudy loads and a seeded closed-loop stream \
              of an assumed hosts-heavy query mix; no scan or pipeline layer runs when timed",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the metric is, per workload where the meaning differs.
    pub doc: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    doc: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        doc,
    }
}

/// Reported by every workload on an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "median of at least three set-ups: world generation, plus engine construction on \
         study-append and the input study and artifact on query-mix; on study-sharded-warm, \
         plus the one cold pass that fills the spill directory",
    ),
    e2e(
        "pass_s",
        "s",
        "lower",
        0.24,
        "wall time of one pass, the median over the run's passes (the mean on query-mix): the study to its artifact on disk (study-batch); the \
         sharded study into a fresh spill directory (study-sharded-cold) or over the filled one \
         (study-sharded-warm); 31 monthly appends (study-append); one artifact load plus the \
         query stream (query-mix)",
    ),
    e2e(
        "work_per_s",
        "1/s",
        "higher",
        0.24,
        "cert records processed per second of pass (study workloads), queries answered per \
         second of query time (query-mix)",
    ),
    e2e(
        "truth_recall",
        "ratio",
        "higher",
        0.15,
        "mean per-HG recall against hgsim ground truth over the study's snapshots",
    ),
    e2e(
        "truth_precision",
        "ratio",
        "higher",
        0.15,
        "mean per-HG precision against hgsim ground truth over the study's snapshots",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        "lower",
        0.15,
        "VmHWM of the process, which runs one workload: reset after set-up, read right after \
         the timed passes and before the output checks",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    doc: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        doc,
    }
}

/// Reported by every workload on a traced run (`--trace 1`). A layer the
/// workload never calls reads 0. Each `doc` names the end-to-end metric
/// the layer should move, and on which workload.
pub const PER_LAYER: &[Metric] = &[
    layer("hgsim.generate_s", "s", "lower", "setup_s, every workload"),
    layer(
        "headers.ref_learn_s",
        "s",
        "lower",
        "pass_s on study-batch, study-sharded-cold and study-sharded-warm (every driver learns \
         the reference fingerprints inside its study call); setup_s on study-append (engine construction) and \
         query-mix (input study)",
    ),
    layer(
        "scanner.observe_s",
        "s",
        "lower",
        "busy time summed over workers; pass_s and work_per_s on study-batch",
    ),
    layer(
        "scanner.cert_records",
        "count",
        "higher",
        "pass_s and work_per_s on study-batch",
    ),
    layer(
        "scanner.http_records",
        "count",
        "higher",
        "pass_s and work_per_s on study-batch",
    ),
    layer(
        "corpus.build_s",
        "s",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "validate.cache_hits",
        "count",
        "higher",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "validate.cache_first_sightings",
        "count",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "validate.cache_promotions",
        "count",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "validate.cache_hit_ratio",
        "ratio",
        "higher",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "corpus.interned_bytes",
        "bytes",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "pipeline.process_s",
        "s",
        "lower",
        "pass_s on study-batch, by at most its share of the pass; bears on truth_precision",
    ),
    layer(
        "pipeline.confirm_ratio",
        "ratio",
        "higher",
        "confirmed over candidate ASes; bears on truth_precision",
    ),
    layer(
        "parallel.idle_s",
        "s",
        "lower",
        "threads x fan-out wall minus busy time; pass_s on study-batch",
    ),
    layer(
        "artifact.fold_s",
        "s",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "artifact.persist_s",
        "s",
        "lower",
        "pass_s on study-batch and study-append",
    ),
    layer(
        "artifact.bytes",
        "bytes",
        "lower",
        "pass_s on study-batch and study-append (the artifact is rewritten whole on each append)",
    ),
    layer("shard.cold_s", "s", "lower", "pass_s on study-sharded-cold"),
    layer("shard.warm_s", "s", "lower", "pass_s on study-sharded-warm"),
    layer(
        "shard.admit_s",
        "s",
        "lower",
        "summary-path admission of the window's segments; pass_s on study-sharded-warm",
    ),
    layer(
        "shard.segments_built",
        "count",
        "lower",
        "pass_s on study-sharded-cold",
    ),
    layer(
        "shard.segments_reused",
        "count",
        "higher",
        "pass_s on study-sharded-warm",
    ),
    layer(
        "shard.reuse_ratio",
        "ratio",
        "higher",
        "pass_s on study-sharded-warm",
    ),
    layer(
        "shard.spill_bytes",
        "bytes",
        "lower",
        "pass_s on study-sharded-cold and study-sharded-warm",
    ),
    layer(
        "shard.peak_resident_bytes",
        "bytes",
        "lower",
        "peak_rss_mib on study-sharded-cold and study-sharded-warm",
    ),
    layer(
        "delta.append_s",
        "s",
        "lower",
        "pass_s on study-append (each append includes its artifact re-persist)",
    ),
    layer(
        "delta.hgs_replayed",
        "count",
        "higher",
        "pass_s on study-append",
    ),
    layer(
        "delta.hgs_recomputed",
        "count",
        "lower",
        "pass_s on study-append",
    ),
    layer(
        "delta.cells_replayed",
        "count",
        "higher",
        "pass_s on study-append",
    ),
    layer(
        "delta.replay_ratio",
        "ratio",
        "higher",
        "pass_s on study-append",
    ),
    layer(
        "delta.chains_replayed",
        "count",
        "higher",
        "pass_s on study-append",
    ),
    layer(
        "delta.chains_revalidated",
        "count",
        "lower",
        "pass_s on study-append",
    ),
    layer(
        "query.read_s",
        "s",
        "lower",
        "read_artifact_payload (read plus SHA-256), median call; pass_s on query-mix",
    ),
    layer(
        "query.parse_s",
        "s",
        "lower",
        "ArtifactTables::parse, median call; pass_s on query-mix",
    ),
    layer(
        "query.load_s",
        "s",
        "lower",
        "FrozenStudy::load, median call; pass_s on query-mix",
    ),
    layer(
        "query.point_ns",
        "ns",
        "lower",
        "hosts lookups; pass_s and work_per_s on query-mix",
    ),
    layer(
        "query.list_ns",
        "ns",
        "lower",
        "ases_hosting and hgs_in_as; pass_s and work_per_s on query-mix",
    ),
    layer(
        "query.curve_ns",
        "ns",
        "lower",
        "growth_curve and as_curve; pass_s and work_per_s on query-mix",
    ),
    layer(
        "trace.overhead_s",
        "s",
        "lower",
        "traced pass wall minus untraced pass wall",
    ),
    layer(
        "trace.unaccounted_share",
        "ratio",
        "lower",
        "share of the traced pass wall covered by no layer span",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Quote `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(", ");
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        list(COMMAND.iter().map(|s| quote(s)).collect())
    ));
    out.push_str(&format!(
        "  \"paths\": [{}],\n",
        list(PATHS.iter().map(|s| quote(s)).collect())
    ));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_stays_within_the_format_limits() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            names.push(m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(names.iter().all(|n| is_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names are used once");
        assert!(manifest().len() <= 64 * 1024);
    }
}
