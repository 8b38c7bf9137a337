//! The benchmark's own test: `--smoke` runs every workload, untraced and
//! traced, on a short schedule, and fails unless every metric is emitted
//! with its unit and no operation failed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

#[test]
fn smoke_emits_every_metric_and_fails_nothing() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seed", "1"])
        .output()
        .expect("run perfbench --smoke");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "smoke run failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let results: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("{\"correct\""))
        .collect();
    assert_eq!(
        results.len(),
        8,
        "one result per workload and mode:\n{stdout}"
    );
    for result in results {
        assert!(result.contains("\"correct\": true"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "json_single", "--trace", "2"][..],
        &["--seconds"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must print no result");
    }
}
