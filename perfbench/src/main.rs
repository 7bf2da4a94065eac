//! The repository benchmark: one command runs a named workload from a
//! seed, checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite --seed 0 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics: each layer's self time from spans the benchmark
//! records around its calls into `workloads`, `simx`, `trace` and
//! `cosmos`, sampled per-call costs of `cosmos` predictors and `accel`
//! hooks, the layers' own counters, and the tracing overhead. The spans
//! are written to `perfbench/out/` as Chrome trace-event JSON.
//!
//! Provenance (cores, commit, profile, threads, shards, seed) goes to a
//! line of its own; the last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. At the default seed
//! the outputs are compared with `perfbench/reference/`, which
//! `--write-reference` regenerates from the current code.

mod bench;
mod paper;
mod scale;
mod spans;
mod stats;
mod timed;

use bench::{parse_reference, render_reference, run, Config, Report, Size, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every workload, with its committed reference values.
const WORKLOADS: [(&str, &str); 3] = [
    ("paper-suite", include_str!("../reference/paper-suite.txt")),
    ("stream", include_str!("../reference/stream.txt")),
    (
        "spec-faulted",
        include_str!("../reference/spec-faulted.txt"),
    ),
];

struct Args {
    workload: String,
    cfg: Config,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: 12.0,
        trace: false,
        size: Size::Full,
    };
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                cfg.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    v => return Err(format!("--size takes full or small, not {v}")),
                }
            }
            "--write-reference" => write_reference = true,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if write_reference && (cfg.seed != DEFAULT_SEED || cfg.size != Size::Full) {
        return Err("--write-reference needs the default seed and full size".into());
    }
    Ok(Args {
        workload,
        cfg,
        write_reference,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a digest of the sources the benchmark builds (`crates/`, the root
/// manifest and lock file, and the benchmark's own `src/`), so results
/// from a checkout without git history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(path);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&bench_dir().join("src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints the provenance line and the result line. Every workload runs
/// on one thread.
fn print_result(args: &Args, report: &Report, shards: usize) {
    let cfg = &args.cfg;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"size\":\"{:?}\",\"host_cores\":{cores},\"threads\":1,\"shards\":{shards},\
         \"profile\":\"{profile}\",\"commit\":\"{}\",\"source_digest\":\"{}\",\
         \"pass_wall_s\":{:?},\"traced_pass_wall_s\":{:?}}}}}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.size,
        commit(),
        source_digest(),
        report.pass_walls.0,
        report.pass_walls.1,
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Pins glibc's mmap threshold at its default of 128 KiB. Left dynamic,
/// glibc raises the threshold as large blocks are freed, and where it
/// ends up depends on the address-space layout: the same `paper-suite`
/// pass then peaked at 26.3 or 30.6 MB from one process to the next.
/// Pinned, the peak repeats to within 1%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's allocator-tuning call. It takes two
    // integers, reads or writes no memory of ours, and runs here before
    // any other thread exists.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
        eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) was refused");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-suite|stream|spec-faulted> \
                 --seed N --seconds S --trace 0|1 [--size full|small] [--write-reference]"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let reference_text = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, r)| *r)
        .unwrap_or_default();
    let reference = (cfg.seed == DEFAULT_SEED && cfg.size == Size::Full && !args.write_reference)
        .then(|| parse_reference(reference_text));

    let (seed, size) = (cfg.seed, cfg.size);
    let (report, shards) = match args.workload.as_str() {
        "paper-suite" => (run(&paper::PaperSuite { seed, size }, cfg, reference), 0),
        "spec-faulted" => (run(&paper::SpecFaulted { seed, size }, cfg, reference), 0),
        _ => (
            run(&scale::Stream { seed, size }, cfg, reference),
            scale::SHARDS,
        ),
    };

    if cfg.trace {
        let out = bench_dir().join("out");
        let path = out.join(format!(
            "spans-{}-{:?}-seed{}.json",
            args.workload, size, seed
        ));
        if let Err(e) = std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, report.tracer.chrome_json()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    if args.write_reference {
        let path = bench_dir().join(format!("reference/{}.txt", args.workload));
        if let Err(e) = std::fs::write(&path, render_reference(&report.outputs)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print_result(&args, &report, shards);
    ExitCode::SUCCESS
}
