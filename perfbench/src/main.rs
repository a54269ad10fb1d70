//! `perfbench`: the off-net study's benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed N --seconds S --trace 0|1 [--quick]
//! perfbench manifest
//! ```
//!
//! One workload per process, so peak RSS is the workload's own; each
//! workload reads it right after its timed passes, before its output
//! checks. The last
//! stdout line is the result: `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). Lines before it name each
//! workload-specific figure with its unit and give the run's provenance;
//! the full record, the per-layer table and the Chrome trace go to
//! `.bench_out/`. `--workload all` runs the workloads one after the
//! other in child processes and then rewrites `BENCHMARK.json` from the
//! tables in `spec.rs`; `manifest` prints that file.

mod common;
mod query_mix;
mod spec;
mod study_append;
mod study_batch;
mod study_sharded;
mod trace;

use common::{Outcome, RunOpts};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && spec::workload(&args.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("manifest") {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let threads = available_parallelism();
    let work_dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(trace::Tracer::default),
        quick: args.quick,
        threads,
        work_dir: work_dir.clone(),
    };
    let mut outcome = match args.workload.as_str() {
        "study-batch" => study_batch::run(&opts),
        "study-sharded-cold" => study_sharded::run_cold(&opts),
        "study-sharded-warm" => study_sharded::run_warm(&opts),
        "study-append" => study_append::run(&opts),
        "query-mix" => query_mix::run(&opts),
        _ => unreachable!("workload names are validated"),
    };
    common::remove(&work_dir);
    if args.trace {
        layer_metrics(&mut outcome, threads);
    }
    report(&args, &opts, &outcome)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git repository.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Print the run's figures and result line, and store the full record.
fn report(args: &Args, opts: &RunOpts, outcome: &Outcome) -> ExitCode {
    let metrics = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut provenance = vec![
        ("workload", spec::quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("quick", args.quick.to_string()),
        ("threads", opts.threads.to_string()),
        ("available_parallelism", available_parallelism().to_string()),
        ("cpu_model", spec::quote(&cpu_model())),
        ("git_revision", spec::quote(&git_revision())),
    ];
    for (k, v) in &outcome.facts {
        provenance.push((k, spec::quote(v)));
    }
    let provenance = provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", spec::quote(k)))
        .collect::<Vec<_>>()
        .join(", ");

    let w = &args.workload;
    for &(name, value, unit) in &outcome.details {
        println!("perfbench: {w} {name} = {} {unit}", num(value));
    }
    let attempted = outcome.checks.attempted.max(1);
    println!(
        "perfbench: {w} failed_ops_frac = {} ratio",
        num(outcome.checks.failed as f64 / attempted as f64)
    );
    for m in metrics {
        let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("perfbench: {w} {} = {} {}", m.name, num(v), m.unit);
    }
    for problem in &outcome.checks.mismatches {
        println!("perfbench: {w} CHECK FAILED: {problem}");
    }
    println!("perfbench: {w} provenance {{{provenance}}}");

    let stem = format!(
        "{w}-seed{}-trace{}{}",
        args.seed,
        args.trace as u8,
        if args.quick { "-quick" } else { "" }
    );
    let out_dir = PathBuf::from(OUT_DIR);
    if args.trace {
        let table = layer_table(outcome);
        print!("{table}");
        write(&out_dir.join(format!("{stem}.layers.txt")), &table);
        write(
            &out_dir.join(format!("{stem}.trace.json")),
            &trace::chrome_json(&outcome.spans, w),
        );
    }

    let metric_json = metrics
        .iter()
        .map(|m| {
            let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                spec::quote(m.name),
                num(v),
                spec::quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metric_json}}}}}",
        outcome.checks.correct(),
        attempted,
        outcome.checks.failed
    );
    let details = outcome
        .details
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                spec::quote(n),
                num(*v),
                spec::quote(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let moves = metrics
        .iter()
        .map(|m| format!("{}: {}", spec::quote(m.name), spec::quote(m.doc)))
        .collect::<Vec<_>>()
        .join(", ");
    let why = spec::workload(w).map_or("", |x| x.why);
    write(
        &out_dir.join(format!("{stem}.json")),
        &format!(
            "{{\"why\": {}, \"provenance\": {{{provenance}}}, \"result\": {result}, \
             \"details\": {{{details}}}, \"checks_run\": {}, \"metric_docs\": {{{moves}}}}}\n",
            spec::quote(why),
            outcome.checks.checks_run
        ),
    );
    println!("{result}");
    ExitCode::SUCCESS
}

fn write(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Fill each `<layer>_s` metric the workload did not set itself with the
/// layer's summed self time, and the unaccounted share of the pass.
fn layer_metrics(outcome: &mut Outcome, threads: usize) {
    let mut self_s: HashMap<&'static str, f64> = HashMap::new();
    for ((_, name), row) in trace::self_times(&outcome.spans) {
        let key = format!("{name}_s");
        if let Some(m) = spec::PER_LAYER.iter().find(|m| m.name == key) {
            *self_s.entry(m.name).or_default() += row.self_ns as f64 / 1e9;
        }
    }
    for (name, v) in self_s {
        outcome.metrics.entry(name).or_insert(v);
    }
    let idle = trace::fanout_idle_ns(&outcome.spans, threads) as f64 / 1e9;
    outcome.set("parallel.idle_s", idle);
    let (_, unaccounted) = trace::pass_coverage(&outcome.spans);
    outcome.set("trace.unaccounted_share", unaccounted);
}

/// Per-layer self time and span count of a traced run, by phase, with
/// each row's share of its phase's wall time, then the pass's unaccounted
/// share.
fn layer_table(outcome: &Outcome) -> String {
    let rows = trace::self_times(&outcome.spans);
    let mut phase_wall: HashMap<&str, f64> = HashMap::new();
    for s in outcome.spans.iter().filter(|s| s.parent.is_none()) {
        *phase_wall.entry(s.name).or_default() += s.dur_ns() as f64 / 1e9;
    }
    let mut out = format!(
        "{:<7} {:<20} {:>7} {:>12} {:>9}\n",
        "phase", "layer", "spans", "self_s", "of_phase"
    );
    for ((phase, name), row) in &rows {
        let s = row.self_ns as f64 / 1e9;
        let wall = phase_wall.get(phase).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{phase:<7} {name:<20} {:>7} {s:>12.6} {:>8.1}%\n",
            row.spans,
            100.0 * common::ratio(s, wall)
        ));
    }
    let (wall_ns, unaccounted) = trace::pass_coverage(&outcome.spans);
    out.push_str(&format!(
        "pass wall {:.6} s, unaccounted share {unaccounted:.4}, trace overhead {} s\n",
        wall_ns as f64 / 1e9,
        num(outcome
            .metrics
            .get("trace.overhead_s")
            .copied()
            .unwrap_or(0.0))
    ));
    out
}

/// Run every workload in its own child process, then rewrite
/// `BENCHMARK.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.output() {
            Ok(o) => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or("");
                ok &= o.status.success() && last.starts_with("{\"correct\": true");
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if !ok {
        eprintln!("perfbench: a workload failed; BENCHMARK.json left as it was");
        return ExitCode::FAILURE;
    }
    write(Path::new("BENCHMARK.json"), &spec::manifest());
    ExitCode::SUCCESS
}
