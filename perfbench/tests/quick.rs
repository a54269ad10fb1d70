//! Runs every workload in quick mode, untraced and traced, with all output
//! checks on, and pins `BENCHMARK.json` to the tables it is rendered from.

use std::path::Path;
use std::process::Command;

fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "perfbench {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The metric names of a result line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics key") + 12..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit('"').nth(1))
        .map(str::to_owned)
        .collect()
}

fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{section}\"")).expect("section");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_in_quick_mode() {
    let manifest = perfbench(&["manifest"]);
    let workloads = manifest_names(&manifest, "workloads");
    assert_eq!(workloads.len(), 5);
    for trace in ["0", "1"] {
        let section = if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        };
        let expected = manifest_names(&manifest, section);
        for w in &workloads {
            let out = perfbench(&[
                "--workload",
                w,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            let last = out.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{w} trace {trace}: {out}"
            );
            assert!(last.contains("\"failed\": 0,"), "{w} trace {trace}: {last}");
            assert_eq!(metric_names(last), expected, "{w} trace {trace}");
            assert!(out.contains(&format!("perfbench: {w} provenance {{")));
        }
    }
    let traces = Path::new(env!("CARGO_TARGET_TMPDIR")).join(".bench_out");
    let chrome = std::fs::read_to_string(traces.join("study-batch-seed5-trace1-quick.trace.json"))
        .expect("chrome trace written");
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"name\":\"scanner.observe\""));
}

#[test]
fn benchmark_json_is_rendered_from_the_spec() {
    let manifest = perfbench(&["manifest"]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(root).expect("BENCHMARK.json at the repo root");
    assert_eq!(checked_in, manifest, "regenerate with `perfbench manifest`");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "query-mix", "--trace", "2"],
        &["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("perfbench runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
