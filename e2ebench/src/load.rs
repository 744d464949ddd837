//! Closed-loop load generation against an in-process server.
//!
//! Each client thread sends its next request only after the previous one
//! completed, walking its pre-drawn sequence (and wrapping around if the
//! window outlasts it). Every response is compared with its reference
//! fingerprint.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use imc_sim::{JsonValue, ServeClient, ServeConfig, ServeMetrics, Server};

use crate::check::fingerprint;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;

/// One request of a client's sequence.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub json: &'a str,
    /// Fingerprint of the reference run.
    pub reference: u64,
    /// Cell identities of the response, one per record.
    pub cells: &'a [u32],
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub ms: f64,
    pub ok: bool,
    /// `x-imc-source` of the response; traced runs only.
    pub source: Option<String>,
    pub records: usize,
    /// Cells that an earlier response of the stream had already returned.
    pub redundant_cells: usize,
    pub end: Instant,
}

/// Consecutive chunks of a window's completions whose median rate is
/// reported: about one a second of a 25-second window.
const RATE_CHUNKS: usize = 30;

/// The window's samples, per client, and its extent.
pub struct Window {
    pub clients: Vec<Vec<Sample>>,
    pub started: Instant,
    pub seconds: f64,
}

impl Window {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flatten()
    }

    pub fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples().map(|s| s.ms).collect()
    }

    /// The window's samples in completion order, cut into `chunks`
    /// consecutive runs, each with the time it spans.
    fn chunks(&self, chunks: usize) -> Vec<(Vec<&Sample>, f64)> {
        let mut done: Vec<&Sample> = self.samples().collect();
        done.sort_by_key(|s| s.end);
        let chunks = chunks.min(done.len()).max(1);
        let mut out = Vec::with_capacity(chunks);
        let mut chunk_start = self.started;
        for k in 0..chunks {
            let chunk = done[k * done.len() / chunks..(k + 1) * done.len() / chunks].to_vec();
            let Some(last) = chunk.last() else { continue };
            let chunk_end = last.end;
            out.push((chunk, (chunk_end - chunk_start).as_secs_f64().max(1e-9)));
            chunk_start = chunk_end;
        }
        out
    }

    /// Requests and checked records completed per second: the median over
    /// [`RATE_CHUNKS`] consecutive runs of completions, so a burst of
    /// interference moves one chunk, not the figure.
    pub fn median_rates(&self) -> (f64, f64) {
        let chunks = self.chunks(RATE_CHUNKS);
        if chunks.is_empty() {
            return (0.0, 0.0);
        }
        let requests: Vec<f64> = chunks.iter().map(|(c, s)| c.len() as f64 / s).collect();
        let records: Vec<f64> = chunks
            .iter()
            .map(|(c, s)| c.iter().filter(|x| x.ok).map(|x| x.records).sum::<usize>() as f64 / s)
            .collect();
        (median(&requests), median(&records))
    }

    /// Latency percentile `p` as the median over consecutive chunks of the
    /// window, using as many chunks (up to [`RATE_CHUNKS`]) as still leave
    /// each chunk ten samples beyond `p`.
    pub fn median_latency(&self, p: f64) -> f64 {
        let n = self.attempted() as usize;
        let per_chunk = (crate::stats::TAIL_BEYOND as f64 / (1.0 - p / 100.0)).ceil() as usize;
        let chunks = self.chunks((n / per_chunk.max(1)).clamp(1, RATE_CHUNKS));
        median(
            &chunks
                .iter()
                .map(|(c, _)| Latencies::new(c.iter().map(|s| s.ms).collect()).p(p))
                .collect::<Vec<_>>(),
        )
    }
}

/// `reps` times from `Server::bind` (default config) to the first healthy
/// response.
pub fn setup_samples(reps: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let server = Server::bind(ServeConfig::new()).map_err(|e| format!("bind failed: {e}"))?;
        ServeClient::new(server.local_addr().to_string())
            .health()
            .map_err(|e| format!("health check failed: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        server.shutdown();
        server.wait();
    }
    Ok(times)
}

/// Posts `json` and checks the bytes; the returned error is printed by the
/// caller.
pub fn post_checked(client: &ServeClient, json: &str, reference: u64) -> Result<(), String> {
    let bytes = client.post_run(json).map_err(|e| e.to_string())?;
    if fingerprint(&bytes) == reference {
        Ok(())
    } else {
        Err("response differs from the reference run".to_owned())
    }
}

/// How a batch of closed-loop clients talks to the server.
pub struct Driver<'a> {
    pub addr: &'a str,
    /// Send through the header-keeping probe client (to learn each
    /// response's source) instead of `ServeClient`.
    pub probe: bool,
    pub tracer: &'a Tracer,
    /// Cells returned so far by the request stream; updated only with
    /// `probe` set.
    pub returned: &'a Mutex<HashSet<u32>>,
}

impl Driver<'_> {
    /// Drives one closed-loop client per sequence: for `seconds` (wrapping
    /// around a sequence the window outlasts), or with `None` once through
    /// each sequence.
    pub fn drive(&self, sequences: &[&[Request<'_>]], seconds: Option<f64>) -> Window {
        let barrier = Barrier::new(sequences.len() + 1);
        let client = ServeClient::new(self.addr).timeout(Duration::from_secs(120));
        let (clients, started, seconds) = std::thread::scope(|scope| {
            let handles: Vec<_> = sequences
                .iter()
                .map(|&sequence| {
                    let (barrier, client) = (&barrier, &client);
                    scope.spawn(move || {
                        barrier.wait();
                        let deadline = seconds.map(|s| Instant::now() + Duration::from_secs_f64(s));
                        let mut samples = Vec::new();
                        loop {
                            let position = samples.len();
                            let more = match deadline {
                                Some(deadline) => Instant::now() < deadline,
                                None => position < sequence.len(),
                            };
                            if !more {
                                break;
                            }
                            let request = sequence[position % sequence.len()];
                            samples.push(self.one_request(client, request));
                        }
                        (samples, Instant::now())
                    })
                })
                .collect();
            let started = Instant::now();
            barrier.wait();
            let mut clients = Vec::new();
            let mut ended = started;
            for handle in handles {
                let (samples, end) = handle.join().expect("load client panicked");
                clients.push(samples);
                ended = ended.max(end);
            }
            (clients, started, (ended - started).as_secs_f64())
        });
        Window {
            clients,
            started,
            seconds,
        }
    }

    fn one_request(&self, client: &ServeClient, request: Request<'_>) -> Sample {
        let tracer = self.tracer;
        let started = Instant::now();
        let response = if self.probe {
            tracer.span("serve.request", None, tracer.new_trace(), |_| {
                crate::probe::post_run(self.addr, request.json)
                    .map(|(source, body)| (Some(source), body))
            })
        } else {
            client
                .post_run(request.json)
                .map(|body| (None, body))
                .map_err(|e| e.to_string())
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (source, ok) = match response {
            Ok((source, body)) => {
                let ok = fingerprint(&body) == request.reference;
                if !ok {
                    eprintln!("response differs from the reference run: {}", request.json);
                }
                (source, ok)
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                (None, false)
            }
        };
        let mut redundant_cells = 0;
        if self.probe {
            let mut returned = self.returned.lock().expect("returned-cell set poisoned");
            if source.as_deref() == Some("computed") {
                redundant_cells = request
                    .cells
                    .iter()
                    .filter(|c| returned.contains(c))
                    .count();
            }
            returned.extend(request.cells.iter().copied());
        }
        Sample {
            ms,
            ok,
            source,
            records: request.cells.len(),
            redundant_cells,
            end: Instant::now(),
        }
    }
}

/// One measured serving session on a fresh server.
pub struct Session {
    /// The timed window.
    pub window: Window,
    /// Server metrics and `/v1/metrics` latency histogram at the start and
    /// end of the window.
    pub before: ServeMetrics,
    pub after: ServeMetrics,
    pub histogram: (Histogram, Histogram),
    /// Failed warm-up requests (they count as failed operations).
    pub warmup_failed: u64,
}

impl Session {
    /// Per-kind session-cache misses during the window.
    pub fn misses(&self) -> [u64; 6] {
        let (before, after) = (session_misses(&self.before), session_misses(&self.after));
        std::array::from_fn(|i| after[i] - before[i])
    }
}

/// Binds a server with the default config, warms it (the `warmup` specs one
/// by one, then the first `warm` requests of every sequence under its
/// closed-loop client), then times the rest of the sequences for
/// `seconds`. A traced session sends through the probe client and records
/// spans in the window.
pub fn serve_session(
    warmup: &[(&str, u64)],
    sequences: &[Vec<Request<'_>>],
    warm: usize,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Session, String> {
    let server = Server::bind(ServeConfig::new()).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr().to_string();
    let client = ServeClient::new(addr.clone());
    let mut warmup_failed = 0;
    for (json, reference) in warmup {
        if let Err(e) = post_checked(&client, json, *reference) {
            eprintln!("warm-up request failed: {e}");
            warmup_failed += 1;
        }
    }
    assert!(
        sequences.iter().all(|s| s.len() > warm),
        "sequences must outlast the warm-up"
    );
    let heads: Vec<&[Request<'_>]> = sequences.iter().map(|s| &s[..warm]).collect();
    let rests: Vec<&[Request<'_>]> = sequences.iter().map(|s| &s[warm..]).collect();
    let returned = Mutex::new(HashSet::new());
    let quiet = Tracer::new(false);
    let warm_driver = Driver {
        addr: &addr,
        probe: tracer.enabled(),
        tracer: &quiet,
        returned: &returned,
    };
    let warm_window = warm_driver.drive(&heads, None);
    warmup_failed += warm_window.failed();
    let before = server.metrics();
    let histogram_before = server_histogram(&client)?;
    let window = Driver {
        tracer,
        ..warm_driver
    }
    .drive(&rests, Some(seconds));
    let after = server.metrics();
    let histogram_after = server_histogram(&client)?;
    server.shutdown();
    server.wait();
    Ok(Session {
        window,
        before,
        after,
        histogram: (histogram_before, histogram_after),
        warmup_failed,
    })
}

/// The end-to-end metrics of a session's window.
pub fn end_to_end(workload: &str, session: &Session, setup_s: f64) -> crate::EndToEnd {
    let window = &session.window;
    let latencies = Latencies::new(window.latencies_ms());
    let (before, after) = (&session.before, &session.after);
    eprintln!(
        "{workload}: {} requests in {:.2} s ({} computed, {} coalesced, {} from the \
         response cache); {}",
        window.attempted(),
        window.seconds,
        after.runs_computed - before.runs_computed,
        after.runs_coalesced - before.runs_coalesced,
        after.response_cache_hits - before.response_cache_hits,
        latencies.describe("client latency")
    );
    let (req_per_s, cells_per_s) = window.median_rates();
    crate::EndToEnd {
        cells_per_s,
        req_per_s,
        req_p50_ms: window.median_latency(50.0),
        req_p99_ms: window.median_latency(99.0),
        setup_s,
        attempted: window.attempted(),
        failed: window.failed() + session.warmup_failed,
    }
}

/// Run-latency histogram buckets: (upper bound in ms, count).
pub type Histogram = Vec<(f64, u64)>;

/// The server-side run-latency histogram from the `/v1/metrics` document.
pub fn server_histogram(client: &ServeClient) -> Result<Histogram, String> {
    let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("metrics document: {e}"))?;
    let latency = doc.get("latency_ms").ok_or("metrics lack latency_ms")?;
    let numbers = |key: &str| -> Result<Vec<f64>, String> {
        match latency.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Number(n) => n.parse::<f64>().map_err(|e| e.to_string()),
                    _ => Err(format!("{key} holds a non-number")),
                })
                .collect(),
            _ => Err(format!("metrics lack {key}")),
        }
    };
    let bounds = numbers("bucket_bounds_ms")?;
    let counts = numbers("bucket_counts")?;
    Ok(counts
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            (
                bounds.get(i).copied().unwrap_or(f64::INFINITY),
                count as u64,
            )
        })
        .collect())
}

/// The `q`-quantile of the observations added between two histogram
/// snapshots: the upper bound of the bucket it falls in.
pub fn histogram_quantile(before: &[(f64, u64)], after: &[(f64, u64)], q: f64) -> f64 {
    let counts: Vec<(f64, u64)> = after
        .iter()
        .zip(before)
        .map(|(&(bound, a), &(_, b))| (bound, a - b))
        .collect();
    let total: u64 = counts.iter().map(|c| c.1).sum();
    if total == 0 {
        return 0.0;
    }
    let needed = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (bound, count) in counts {
        seen += count;
        if seen >= needed {
            return bound;
        }
    }
    f64::INFINITY
}

/// Per-kind session-cache misses summed over every precision session.
fn session_misses(metrics: &ServeMetrics) -> [u64; 6] {
    let mut out = [0u64; 6];
    for (_, stats) in &metrics.sessions {
        for (slot, (_, kind)) in out.iter_mut().zip(stats.per_kind()) {
            *slot += kind.misses;
        }
    }
    out
}

/// Share of the window's responses with each `x-imc-source`.
pub fn source_fractions(window: &Window) -> Vec<(&'static str, f64)> {
    let total = window.attempted().max(1) as f64;
    let share = |tag: &str| {
        window
            .samples()
            .filter(|s| s.source.as_deref() == Some(tag))
            .count() as f64
            / total
    };
    vec![
        ("serve.src.cache_frac", share("cache")),
        ("serve.src.computed_frac", share("computed")),
        ("serve.src.coalesced_frac", share("coalesced")),
    ]
}

/// Median client latency of the window's responses with source `tag`.
pub fn source_p50_ms(window: &Window, tag: &str) -> f64 {
    let samples: Vec<f64> = window
        .samples()
        .filter(|s| s.source.as_deref() == Some(tag))
        .map(|s| s.ms)
        .collect();
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_use_the_window_difference() {
        let before = [(1.0, 5), (2.5, 0), (f64::INFINITY, 0)];
        let after = [(1.0, 15), (2.5, 10), (f64::INFINITY, 0)];
        assert_eq!(histogram_quantile(&before, &after, 0.5), 1.0);
        assert_eq!(histogram_quantile(&before, &after, 0.51), 2.5);
        assert_eq!(histogram_quantile(&before, &before, 0.5), 0.0);
    }
}
