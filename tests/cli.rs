//! `reproduce` rejects malformed command lines with a usage error (exit
//! status 2, the usage line on stderr) before it generates a world or
//! runs a study.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env_remove("OFFNET_THREADS")
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_is_a_usage_error_and_runs_nothing() {
    let cases: &[(&[&str], &str)] = &[
        (&["--threads"], "--threads needs a value"),
        (&["--seed", "x"], "--seed must be an integer"),
        (
            &["--fault-rate", "2"],
            "--fault-rate must be a rate in [0, 1]",
        ),
        (
            &["--transient-rate", "NaN"],
            "--transient-rate must be a rate",
        ),
        (
            &["--shard-size", "0"],
            "--shard-size must be a positive integer",
        ),
        (&["--scale", "huge"], "unknown scale \"huge\""),
        (&["--resume", "table3"], "--resume needs --incremental"),
        (
            &["--resume", "--incremental", "table3"],
            "--resume needs --incremental",
        ),
        (&["--threds", "4", "table3"], "unknown option \"--threds\""),
        (
            &["--scale", "small", "tabel3"],
            "unknown experiment \"tabel3\"",
        ),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("[reproduce] usage error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: reproduce ["), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
        assert!(
            !stderr.contains("generating world"),
            "{args:?} started a run: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (code, stdout, stderr) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.is_empty());
    assert!(stderr.starts_with("usage: reproduce ["), "{stderr}");
}
