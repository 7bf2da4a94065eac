//! Reduced-size self-test: every workload runs once untraced and once
//! traced, passes its checks, and emits exactly the metrics that
//! `BENCHMARK.json` names, each with its declared unit.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-suite", "stream", "spec-faulted"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section array closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "small"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for w in WORKLOADS {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w} --trace {trace} lacks {name}"));
                let rest = &line[at + entry.len()..];
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    rest[..rest.find('}').expect("entry closes") + 1].ends_with(&unit_field),
                    "{w}: {name} is not in {unit}"
                );
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{w} --trace {trace} emits only the declared metrics"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
