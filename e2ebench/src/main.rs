//! End-to-end benchmark of the IMC low-rank evaluation stack.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep_cold --seed 2025 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `sweep_cold` (cold in-process spec runs) and `serve_zipf`
//! (Zipf-popular spec traffic against an in-process server). With
//! `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` the workload runs once untraced and once traced, and the last
//! line carries the per-layer metrics. See `README.md` for the metric
//! definitions.

mod check;
mod load;
mod probe;
mod rng;
mod serve_zipf;
mod specs;
mod stats;
mod store_probe;
mod sweep_cold;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the benchmark keeps its scratch files and trace dumps, relative to
/// the working directory.
const OUT_DIR: &str = ".e2ebench";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: specs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds > 0.0 && config.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if config.workload.is_empty() {
        return Err("--workload is required (sweep_cold or serve_zipf)".to_owned());
    }
    Ok(config)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric a traced run reports, with its unit. A workload
/// reports each of them; one whose layer the workload does not drive reads
/// `0`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("process.peak_rss_mb", "MB"),
    ("session.decomp_ms", "ms"),
    ("experiment.cold_ms", "ms"),
    ("experiment.warm_ms", "ms"),
    ("session.misses.weights", "count"),
    ("session.misses.matrices", "count"),
    ("session.misses.block_svds", "count"),
    ("session.misses.decompositions", "count"),
    ("session.misses.window_searches", "count"),
    ("session.misses.lowrank_cycles", "count"),
    ("session.resident_mb", "MB"),
    ("frontier.evaluated_frac", "ratio"),
    ("spec.resolve_ms", "ms"),
    ("record.jsonl_ms", "ms"),
    ("serve.src.cache_frac", "ratio"),
    ("serve.src.computed_frac", "ratio"),
    ("serve.src.coalesced_frac", "ratio"),
    ("serve.cache_p50_ms", "ms"),
    ("serve.computed_p50_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.redundant_cell_frac", "ratio"),
    ("store.get_ms_p50", "ms"),
    ("store.get_ms_p99", "ms"),
    ("store.put_ms_p50", "ms"),
    ("store.put_ms_p99", "ms"),
    ("store.open_ms", "ms"),
    ("store.hit_frac", "ratio"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer names of the six session-cache kinds' miss counts, in
/// `CacheStats::per_kind` order.
pub const MISS_METRICS: [&str; 6] = [
    "session.misses.weights",
    "session.misses.matrices",
    "session.misses.block_svds",
    "session.misses.decompositions",
    "session.misses.window_searches",
    "session.misses.lowrank_cycles",
];

/// The full per-layer metric list, filled from `values` (by name) plus the
/// process's peak resident memory.
pub fn per_layer_metrics(values: &[(&str, f64)]) -> Vec<Metric> {
    let peak = [("process.peak_rss_mb", peak_rss_mb())];
    let values: Vec<(&str, f64)> = values.iter().chain(&peak).copied().collect();
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, value, unit)
        })
        .collect()
}

/// The end-to-end metrics of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub cells_per_s: f64,
    pub req_per_s: f64,
    pub req_p50_ms: f64,
    pub req_p99_ms: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let ok = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        };
        vec![
            metric("cells_per_s", self.cells_per_s, "1/s"),
            metric("req_per_s", self.req_per_s, "1/s"),
            metric("req_p50_ms", self.req_p50_ms, "ms"),
            metric("req_p99_ms", self.req_p99_ms, "ms"),
            metric("setup_s", self.setup_s, "s"),
            metric("ok_frac", ok, "ratio"),
        ]
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside the timed operations failed (reference
    /// mismatch, digest mismatch).
    pub check_failed: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && !self.check_failed
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The benchmark's per-process scratch directory; removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(OUT_DIR).join(format!("work-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(config: &Config) -> Result<Outcome, String> {
    let tracer = trace::Tracer::new(config.trace);
    let outcome = match config.workload.as_str() {
        "sweep_cold" => sweep_cold::run(config, &tracer),
        "serve_zipf" => serve_zipf::run(config, &tracer),
        other => return Err(format!("unknown workload {other}")),
    }?;
    if config.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            config.workload, config.seed
        ));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| tracer.write(&path))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "e2ebench: {} of {} operations failed their check",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let config = parse_args(&args(
            "--workload serve_zipf --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(config.workload, "serve_zipf");
        assert_eq!(config.seed, 7);
        assert_eq!(config.seconds, 3.0);
        assert!(config.trace);
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seconds")).is_err());
    }

    #[test]
    fn outcome_json_has_exactly_the_result_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            check_failed: false,
            metrics: vec![metric("req_per_s", 12.5, "1/s")],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"req_per_s\":{\"value\":12.5,\"unit\":\"1/s\"}}}"
        );
        let failed = Outcome {
            failed: 1,
            ..outcome
        };
        assert!(failed.to_json().starts_with("{\"correct\":false"));
    }
}
