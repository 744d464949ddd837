//! `sweep_cold`: a fixed batch of specs run the way `imc run` runs them, in
//! process and on cold caches: `ExperimentSpec::from_json`, then
//! `into_experiment(&Registry::new())`, then `run` (or `frontier`) on a
//! throwaway session, then `to_jsonl`.
//!
//! Cold decompositions in `linalg`/`core` do most of the work; `serve` and
//! `store` do none.

use std::collections::BTreeMap;
use std::time::Instant;

use imc_sim::{EvalSession, Experiment, ExperimentRun, ExperimentSpec, Registry};

use crate::check::{check_pinned, fingerprint, StatsDigest};
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::{per_layer_metrics, specs, store_probe, Config, EndToEnd, Outcome, MISS_METRICS};

/// Simulated-statistics digest of the batch at the default seed.
const PINNED_DIGEST: u64 = 0x3bdd_088f_b795_ae23;

/// Set-up repetitions before every spec run of a pass; `setup_s` is the
/// median over all of them. The set-up is a fraction of a millisecond of
/// small allocations and lookups whose speed drifts over seconds (bursts of
/// repetitions a few seconds apart differed by up to 1.6×), so the
/// repetitions are spread evenly over the window.
const SETUP_REPS_PER_SPEC: usize = 2;

/// A resolved spec of the batch.
struct Resolved {
    experiment: Experiment,
    frontier: bool,
    precision: imc_sim::Precision,
}

fn resolve(json: &str, registry: &Registry) -> imc_sim::Result<Resolved> {
    let spec = ExperimentSpec::from_json(json)?;
    Ok(Resolved {
        experiment: spec.into_experiment(registry)?,
        frontier: spec.frontier,
        precision: spec.precision,
    })
}

/// A completed spec run, before serialization.
struct Completed {
    run: ExperimentRun,
    /// Grid cells evaluated.
    cells: usize,
    /// `(cells_evaluated, grid_cells)` of a frontier search.
    frontier: Option<(usize, usize)>,
}

/// Runs a resolved spec on `session`, or on a throwaway one (`None`) the way
/// `imc run` does.
fn complete(resolved: Resolved, session: Option<&EvalSession>) -> imc_sim::Result<Completed> {
    let experiment = resolved.experiment;
    if resolved.frontier {
        let outcome = match session {
            Some(session) => experiment.frontier_in(session)?,
            None => experiment.frontier()?,
        };
        Ok(Completed {
            run: outcome.run,
            cells: outcome.cells_evaluated,
            frontier: Some((outcome.cells_evaluated, outcome.grid_cells)),
        })
    } else {
        let cells = experiment.planned_cells();
        let run = match session {
            Some(session) => experiment.run_in(session)?,
            None => experiment.run()?,
        };
        Ok(Completed {
            run,
            cells,
            frontier: None,
        })
    }
}

/// Resolve, run on a throwaway session, serialize: one `imc run`.
fn run_spec(json: &str, registry: &Registry) -> imc_sim::Result<(String, usize)> {
    let completed = complete(resolve(json, registry)?, None)?;
    Ok((completed.run.to_jsonl()?, completed.cells))
}

/// Registry construction plus resolving the whole batch.
fn setup_once(batch: &[String]) -> Result<f64, String> {
    let started = Instant::now();
    let registry = Registry::new();
    for json in batch {
        resolve(json, &registry).map_err(|e| format!("batch spec does not resolve: {e}"))?;
    }
    Ok(started.elapsed().as_secs_f64())
}

/// One untraced pass over the batch.
struct Pass {
    seconds: f64,
    cells: usize,
    latencies_ms: Vec<f64>,
    failed: u64,
    /// Set-up times measured between the spec runs, outside `seconds`.
    setup_s: Vec<f64>,
}

fn untraced_pass(batch: &[String], registry: &Registry, refs: &[u64]) -> Result<Pass, String> {
    let started = Instant::now();
    let mut pass = Pass {
        seconds: 0.0,
        cells: 0,
        latencies_ms: Vec::with_capacity(batch.len()),
        failed: 0,
        setup_s: Vec::with_capacity(batch.len() * SETUP_REPS_PER_SPEC),
    };
    for (json, &reference) in batch.iter().zip(refs) {
        for _ in 0..SETUP_REPS_PER_SPEC {
            pass.setup_s.push(setup_once(batch)?);
        }
        let op = Instant::now();
        let result = run_spec(json, registry);
        pass.latencies_ms.push(op.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok((bytes, cells)) if fingerprint(&bytes) == reference => pass.cells += cells,
            Ok(_) => {
                eprintln!("sweep_cold: run bytes differ from the reference");
                pass.failed += 1;
            }
            Err(e) => {
                eprintln!("sweep_cold: run failed: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.seconds = started.elapsed().as_secs_f64() - pass.setup_s.iter().sum::<f64>();
    Ok(pass)
}

/// Whole passes until `seconds` have elapsed (at least one).
fn untraced_passes(
    batch: &[String],
    registry: &Registry,
    refs: &[u64],
    seconds: f64,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        passes.push(untraced_pass(batch, registry, refs)?);
    }
    Ok(passes)
}

/// Per-layer figures of one traced pass.
#[derive(Default)]
struct TracedPass {
    misses: [u64; 6],
    resident_bytes: usize,
    frontier: Option<(usize, usize)>,
    failed: u64,
}

/// One traced pass: every spec is resolved, run cold on a fresh session and
/// serialized under one `sweep.spec` span, then run again warm on the same
/// session.
fn traced_pass(
    batch: &[String],
    registry: &Registry,
    refs: &[u64],
    tracer: &Tracer,
) -> Result<TracedPass, String> {
    let pass_trace = tracer.new_trace();
    let mut out = TracedPass::default();
    for (json, &reference) in batch.iter().zip(refs) {
        let (cold, bytes, session) = tracer.span("sweep.spec", None, pass_trace, |root| {
            let resolved = tracer
                .span("spec.resolve", Some(root), pass_trace, |_| {
                    resolve(json, registry)
                })
                .map_err(|e| format!("batch spec does not resolve: {e}"))?;
            let session = EvalSession::builder().precision(resolved.precision).build();
            let cold = tracer
                .span("experiment.cold", Some(root), pass_trace, |_| {
                    complete(resolved, Some(&session))
                })
                .map_err(|e| format!("cold run failed: {e}"))?;
            let bytes = tracer
                .span("record.to_jsonl", Some(root), pass_trace, |_| {
                    cold.run.to_jsonl()
                })
                .map_err(|e| format!("serialization failed: {e}"))?;
            Ok::<_, String>((cold, bytes, session))
        })?;
        let stats = session.stats();
        for (slot, (_, kind)) in out.misses.iter_mut().zip(stats.per_kind()) {
            *slot += kind.misses;
        }
        out.resident_bytes += stats.resident_bytes;
        out.frontier = out.frontier.or(cold.frontier);
        let warm = resolve(json, registry).map_err(|e| format!("re-resolve failed: {e}"))?;
        let warm = tracer
            .span("experiment.warm", None, pass_trace, |_| {
                complete(warm, Some(&session))
            })
            .and_then(|w| w.run.to_jsonl())
            .map_err(|e| format!("warm run failed: {e}"))?;
        out.failed += u64::from(fingerprint(&bytes) != reference);
        out.failed += u64::from(fingerprint(&warm) != reference);
    }
    Ok(out)
}

pub fn run(config: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let batch = specs::sweep_batch(config.seed);
    let registry = Registry::new();

    // Reference runs, before any timing.
    let mut digest = StatsDigest::default();
    let mut refs = Vec::with_capacity(batch.len());
    for json in &batch {
        let (bytes, _) =
            run_spec(json, &registry).map_err(|e| format!("reference run failed: {e}"))?;
        digest
            .absorb(&bytes)
            .map_err(|e| format!("reference run does not parse: {e}"))?;
        refs.push(fingerprint(&bytes));
    }
    let mut outcome = Outcome {
        check_failed: !check_pinned("sweep_cold", config.seed, digest, PINNED_DIGEST),
        ..Outcome::default()
    };
    let passes = untraced_passes(&batch, &registry, &refs, config.seconds)?;
    outcome.attempted = (passes.len() * batch.len()) as u64;
    outcome.failed = passes.iter().map(|p| p.failed).sum();
    let latencies = Latencies::new(passes.iter().flat_map(|p| p.latencies_ms.clone()).collect());
    eprintln!(
        "sweep_cold: {} passes of {} specs; {}",
        passes.len(),
        batch.len(),
        latencies.describe("per-spec run time")
    );
    // The batch mixes specs of very different sizes, so the latency figures
    // are taken over the specs' own median run times: p50 is the median
    // spec, p99 the slowest one.
    let per_spec = Latencies::new(
        (0..batch.len())
            .map(|i| median(&passes.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()))
            .collect(),
    );
    let untraced_pass_s = median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>());

    if !config.trace {
        let end_to_end = EndToEnd {
            cells_per_s: median(
                &passes
                    .iter()
                    .map(|p| p.cells as f64 / p.seconds)
                    .collect::<Vec<_>>(),
            ),
            req_per_s: median(
                &passes
                    .iter()
                    .map(|p| batch.len() as f64 / p.seconds)
                    .collect::<Vec<_>>(),
            ),
            req_p50_ms: per_spec.p(50.0),
            req_p99_ms: per_spec.p(99.0),
            setup_s: median(
                &passes
                    .iter()
                    .flat_map(|p| p.setup_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            attempted: outcome.attempted,
            failed: outcome.failed,
        };
        outcome.metrics = end_to_end.metrics();
        return Ok(outcome);
    }

    // Traced passes for the same duration.
    let started = Instant::now();
    let mut traced = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < config.seconds {
        traced.push(traced_pass(&batch, &registry, &refs, tracer)?);
    }
    outcome.attempted += (traced.len() * batch.len() * 2) as u64;
    outcome.failed += traced.iter().map(|p| p.failed).sum::<u64>();

    // Per-pass sums of span durations, by span name.
    let mut per_pass: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    for span in tracer.spans() {
        *per_pass
            .entry(span.trace)
            .or_default()
            .entry(span.name)
            .or_default() += (span.end_ns - span.start_ns) as f64 / 1e6;
    }
    let pass_median = |name: &str| {
        median(
            &per_pass
                .values()
                .map(|sums| sums.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let cold_ms = pass_median("experiment.cold");
    let warm_ms = pass_median("experiment.warm");
    let first = &traced[0];
    let (evaluated, grid) = first.frontier.unwrap_or((0, 1));
    let mut values: Vec<(&str, f64)> = MISS_METRICS
        .iter()
        .zip(first.misses)
        .map(|(&name, misses)| (name, misses as f64))
        .collect();
    values.extend([
        ("session.decomp_ms", cold_ms - warm_ms),
        ("experiment.cold_ms", cold_ms),
        ("experiment.warm_ms", warm_ms),
        (
            "session.resident_mb",
            first.resident_bytes as f64 / (1 << 20) as f64,
        ),
        ("frontier.evaluated_frac", evaluated as f64 / grid as f64),
        ("spec.resolve_ms", pass_median("spec.resolve")),
        ("record.jsonl_ms", pass_median("record.to_jsonl")),
        (
            "trace.overhead_frac",
            pass_median("sweep.spec") / (untraced_pass_s * 1e3) - 1.0,
        ),
    ]);
    // The store layer, probed directly (see `store_probe`).
    let store = store_probe::probe(config.seed, tracer)?;
    outcome.attempted += store.attempted;
    outcome.failed += store.failed;
    outcome.check_failed |= !store.checks_passed;
    values.extend(store.values);
    outcome.metrics = per_layer_metrics(&values);
    Ok(outcome)
}
