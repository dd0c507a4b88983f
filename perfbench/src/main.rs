//! End-to-end benchmark of the MixQ-GNN pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-products --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a run header, human-readable lines starting with `#`, and as the
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits non-zero when any operation or check failed.

mod ledger;
mod pipeline;
mod run;
mod stats;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pipeline::Workload;
use stats::Metrics;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    format!("unknown workload {val:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The git commit when the source tree is a git checkout, read from
/// `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return Some(c.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|c| c.trim().to_string()))
}

/// FNV-1a digest of the sources the benchmark was built from (workspace
/// manifests, build config and every file under `crates/` and
/// `perfbench/src/`), identifying the build when there is no git commit.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain([0]).chain(body) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn simd_features() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else {
        "baseline"
    }
}

fn header(a: &Args, threads: usize, nproc: usize) -> String {
    let root = repo_root();
    format!(
        "# mixq-perfbench workload={} seed={} seconds={} trace={} threads={} nproc={} simd={} commit={} source=fnv64:{:016x}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        threads,
        nproc,
        simd_features(),
        git_commit(&root).unwrap_or_else(|| "none".to_string()),
        source_digest(&root)
    )
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mixq-perfbench: {e}");
            eprintln!(
                "usage: mixq-perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // One thread per CPU; the kernels give bit-identical results at any
    // count, so outputs do not depend on it. With one thread on a shared
    // 2-CPU host, runs split into fast and slow modes by which CPU the
    // thread landed on (integer inference p50 25 ms against 37 ms); with
    // both CPUs every run sees the same pair.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    mixq_tensor::set_num_threads(nproc);
    mixq_telemetry::set_enabled(false);
    println!("{}", header(&args, mixq_tensor::num_threads(), nproc));

    let (metrics, ledger) = if args.trace {
        let out = traced::run(args.workload, args.seed);
        for n in &out.notes {
            println!("{n}");
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &out.trace_json)) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("mixq-perfbench: could not write {}: {e}", path.display()),
        }
        (out.metrics, out.ledger)
    } else {
        let out = run::run(args.workload, args.seed, args.seconds);
        for n in &out.notes {
            println!("{n}");
        }
        (out.metrics, out.ledger)
    };
    for line in ledger.report() {
        println!("{line}");
    }
    for m in metrics.iter() {
        println!("# metric {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = ledger.failed == 0 && metrics.iter().next().is_some();
    println!(
        "{}",
        result_json(correct, ledger.attempted.max(1), ledger.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload train-arxiv --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TrainArxiv);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1",
            "--workload serve-products",
            "--workload serve-products --seed x",
            "--workload serve-products --seed 1 --trace 2",
            "--workload serve-products --seed 1 --seconds 0",
            "--workload serve-products --seed 1 --bogus 1",
            "--workload serve-products --seed",
        ] {
            assert!(args(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
