//! Every workload declared in `BENCHMARK.json` runs, and each run emits
//! exactly the declared metrics of its mode with `"correct": true`.
//!
//! Each run sets up from scratch, so this takes minutes:
//! `cargo test --release --manifest-path frontbench/Cargo.toml -- --ignored`.

use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    // Entries are objects whose first key is "name"; take the names of
    // the given top-level list.
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let body = &text[start..];
    let end = body.find(']').expect("list ends");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn metric_names(line: &str) -> Vec<String> {
    // Each metric is written as `"<name>": {"value": ...`.
    line.match_indices("\": {\"value\"")
        .map(|(end, _)| {
            let start = line[..end].rfind('"').expect("opening quote") + 1;
            line[start..end].to_string()
        })
        .collect()
}

#[test]
#[ignore = "runs every workload end to end (minutes)"]
fn every_declared_workload_emits_every_declared_metric() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("declared");
    std::fs::create_dir_all(&dir).unwrap();
    for workload in declared("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            // 6 s lets every session_fleet user complete the
            // continuations its checks require.
            let out = Command::new(env!("CARGO_BIN_EXE_frontbench"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "6"])
                .args(["--trace", trace])
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            assert!(out.status.success(), "{workload} trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let line = stdout.lines().last().expect("a result line");
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            let mut got = metric_names(line);
            let mut want = declared(section);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
