//! `serve_zipf`: one long-lived in-process `Server` (default config, no
//! store) under one closed-loop client posting specs drawn from a seeded
//! Zipf distribution over a corpus of distinct, heavily cell-overlapping
//! specs.
//!
//! Head requests exercise HTTP, parsing and the response-cache lookup; tail
//! requests recompute on the warm session, so `experiment` and `record` do
//! the work while `linalg` idles.

use std::collections::BTreeSet;

use imc_sim::{EvalSession, Precision, Registry};

use crate::check::{check_pinned, fingerprint, StatsDigest};
use crate::load::{self, Request, Session};
use crate::specs;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{per_layer_metrics, Config, Outcome, MISS_METRICS};

/// Simulated-statistics digest of the warm-up specs at the default seed.
const PINNED_DIGEST: u64 = 0xfb3c_efd2_edff_3524;

/// Closed-loop clients. One: a recomputed request already runs on both
/// cores of the two-core reference host, so a second client's requests
/// would queue for a processor and the figures would follow the scheduler
/// (two clients spread about twice as wide from run to run).
const CLIENTS: usize = 1;

/// Requests per client that warm the server before the window, so the
/// response cache is full and evicting when timing starts.
const WARM_REQUESTS: usize = 8000;

/// Set-up repetitions after every [`SETUP_EVERY`] reference runs; `setup_s`
/// is the median over all of them. One burst of repetitions reads the
/// processor at one moment, so they are spread across the reference phase,
/// on a processor as busy as in the window.
const SETUP_REPS: usize = 8;
const SETUP_EVERY: usize = 200;

/// Pre-drawn window requests per client per second; a client that outruns
/// its sequence wraps around.
const REQUESTS_PER_CLIENT_SECOND: f64 = 1000.0;

pub fn run(config: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let corpus = specs::serve_corpus(config.seed, specs::SERVE_CORPUS_SPECS);
    let len = WARM_REQUESTS + ((config.seconds * REQUESTS_PER_CLIENT_SECOND) as usize).max(100);
    let ranks: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| specs::zipf_sequence(config.seed, c, len, corpus.specs.len(), specs::SERVE_ZIPF_S))
        .collect();

    // Reference runs, before any timing, on one benchmark-side session:
    // the warm-up specs first (cold), then every distinct requested spec.
    let registry = Registry::new();
    let session = EvalSession::builder().precision(Precision::F64).build();
    let reference = |json: &str| -> Result<String, String> {
        specs::resolve(json, &registry)
            .and_then(|e| e.run_in(&session))
            .and_then(|run| run.to_jsonl())
            .map_err(|e| format!("reference run failed: {e}"))
    };
    let mut digest = StatsDigest::default();
    let mut warmup = Vec::new();
    for spec in &corpus.warmup {
        let bytes = reference(&spec.json)?;
        digest
            .absorb(&bytes)
            .map_err(|e| format!("reference run does not parse: {e}"))?;
        warmup.push((spec.json.as_str(), fingerprint(&bytes)));
    }
    let distinct: BTreeSet<usize> = ranks.iter().flatten().copied().collect();
    let mut refs = vec![0u64; corpus.specs.len()];
    let mut distinct_bytes = 0;
    let mut setup = Vec::new();
    for (k, &i) in distinct.iter().enumerate() {
        let bytes = reference(&corpus.specs[i].json)?;
        distinct_bytes += bytes.len();
        refs[i] = fingerprint(&bytes);
        if k % SETUP_EVERY == 0 {
            setup.extend(load::setup_samples(SETUP_REPS)?);
        }
    }
    let setup_s = median(&setup);
    // The session references stand in for `Experiment::run`; confirm that
    // on the first request with a cold, throwaway-session run.
    let first = &corpus.specs[ranks[0][0]];
    let cold = specs::resolve(&first.json, &registry)
        .and_then(|e| e.run())
        .and_then(|run| run.to_jsonl())
        .map_err(|e| format!("cold reference run failed: {e}"))?;
    let mut outcome = Outcome {
        check_failed: !check_pinned("serve_zipf", config.seed, digest, PINNED_DIGEST)
            || fingerprint(&cold) != refs[ranks[0][0]],
        ..Outcome::default()
    };
    drop(session);
    eprintln!(
        "serve_zipf: corpus of {} specs; {} distinct among {} pre-drawn requests, \
         their responses {:.1} MiB in total",
        corpus.specs.len(),
        distinct.len(),
        CLIENTS * len,
        distinct_bytes as f64 / (1 << 20) as f64
    );

    let sequences: Vec<Vec<Request<'_>>> = ranks
        .iter()
        .map(|client| {
            client
                .iter()
                .map(|&i| Request {
                    json: &corpus.specs[i].json,
                    reference: refs[i],
                    cells: &corpus.specs[i].cells,
                })
                .collect()
        })
        .collect();

    let session = |tracer: &Tracer| {
        load::serve_session(&warmup, &sequences, WARM_REQUESTS, config.seconds, tracer)
    };
    let quiet = Tracer::new(false);
    let untraced = session(&quiet)?;
    let untraced_e2e = load::end_to_end("serve_zipf", &untraced, setup_s);
    outcome.attempted = untraced_e2e.attempted;
    outcome.failed = untraced_e2e.failed;
    if !config.trace {
        outcome.metrics = untraced_e2e.metrics();
        return Ok(outcome);
    }

    let traced = session(tracer)?;
    let traced_e2e = load::end_to_end("serve_zipf", &traced, setup_s);
    outcome.attempted += traced_e2e.attempted;
    outcome.failed += traced_e2e.failed;
    outcome.metrics = per_layer_metrics(&serve_layer_values(
        &traced,
        untraced_e2e.req_per_s / traced_e2e.req_per_s - 1.0,
    ));
    Ok(outcome)
}

/// The per-layer values of a traced serving session.
fn serve_layer_values(traced: &Session, overhead: f64) -> Vec<(&'static str, f64)> {
    let window = &traced.window;
    let (before, after) = &traced.histogram;
    let computed: Vec<_> = window
        .samples()
        .filter(|s| s.source.as_deref() == Some("computed"))
        .collect();
    let computed_cells: usize = computed.iter().map(|s| s.records).sum();
    let redundant: usize = computed.iter().map(|s| s.redundant_cells).sum();
    let mut values = load::source_fractions(window);
    values.extend(
        MISS_METRICS
            .iter()
            .copied()
            .zip(traced.misses().map(|m| m as f64)),
    );
    values.extend([
        ("serve.cache_p50_ms", load::source_p50_ms(window, "cache")),
        (
            "serve.computed_p50_ms",
            load::source_p50_ms(window, "computed"),
        ),
        (
            "serve.server_p50_ms",
            load::histogram_quantile(before, after, 0.50),
        ),
        (
            "serve.server_p99_ms",
            load::histogram_quantile(before, after, 0.99),
        ),
        (
            "serve.redundant_cell_frac",
            redundant as f64 / computed_cells.max(1) as f64,
        ),
        (
            "session.resident_mb",
            traced
                .after
                .sessions
                .iter()
                .map(|(_, s)| s.resident_bytes as f64)
                .sum::<f64>()
                / (1 << 20) as f64,
        ),
        ("trace.overhead_frac", overhead),
    ]);
    values
}
