//! The `store` layer probe: a `RunStore` holding thousands of cell-range
//! shards (the documents `imc sweep` workers and `imc run --cells --store`
//! write), opened and then read and written directly with a seeded key
//! sequence: uniform reads of stored shards, with a minority of novel
//! shards written through with fsync. Every probe starts from a copy of the
//! same pristine fixture.
//!
//! The store is measured per layer only, in the traced `sweep_cold` run:
//! its fsync-bound latencies on a shared disk spread too widely from run to
//! run to hold an end-to-end bound.

use std::path::Path;
use std::time::Instant;

use imc_sim::store::entry_name;
use imc_sim::{EvalSession, ExperimentSpec, Precision, Registry, RunKey, RunStore};

use crate::check::{check_pinned, fingerprint, StatsDigest};
use crate::specs::{self, StoreInputs, StoreRequest};
use crate::stats::Latencies;
use crate::trace::Tracer;
use crate::WorkDir;

/// Simulated-statistics digest of the fixture's full grids at the default
/// seed.
const PINNED_DIGEST: u64 = 0x52da_c096_4471_f8dc;

/// Store operations replayed per probe.
const REPLAY_REQUESTS: usize = 1500;

/// The pristine store contents plus everything needed to check and replay
/// requests against it.
pub struct Fixture {
    pub entry_keys: Vec<RunKey>,
    pub entry_refs: Vec<u64>,
    pub novel_keys: Vec<RunKey>,
    /// Reference bytes of the novel specs the sequences use (empty for the
    /// others).
    pub novel_bytes: Vec<String>,
    pub digest: StatsDigest,
    /// Whether a cold `Experiment::run` agreed with the session-computed
    /// bytes of the first entry.
    pub cold_check: bool,
}

fn key_of(json: &str) -> Result<RunKey, String> {
    ExperimentSpec::from_json(json)
        .map(|spec| RunKey::of(&spec))
        .map_err(|e| format!("fixture spec does not parse: {e}"))
}

/// Computes every shard of `inputs` (and the novel specs in `needed`) on
/// one session and writes the shards to `dir` as store entries, with an
/// index journal. Deterministic: the same inputs give the same files.
pub fn build_fixture(inputs: &StoreInputs, needed: &[bool], dir: &Path) -> Result<Fixture, String> {
    let registry = Registry::new();
    let session = EvalSession::builder().precision(Precision::F64).build();
    let compute = |json: &str| -> Result<String, String> {
        specs::resolve(json, &registry)
            .and_then(|e| e.run_in(&session))
            .and_then(|run| run.to_jsonl())
            .map_err(|e| format!("fixture run failed: {e}"))
    };
    // The full grids first: they warm the session for the shards and carry
    // the pinned digest.
    let mut digest = StatsDigest::default();
    for json in &inputs.bases {
        digest
            .absorb(&compute(json)?)
            .map_err(|e| format!("fixture run does not parse: {e}"))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("fixture dir: {e}"))?;
    let mut entry_keys = Vec::with_capacity(inputs.entries.len());
    let mut entry_refs = Vec::with_capacity(inputs.entries.len());
    for json in &inputs.entries {
        let key = key_of(json)?;
        let bytes = compute(json)?;
        std::fs::write(dir.join(entry_name(&key)), &bytes)
            .map_err(|e| format!("fixture write: {e}"))?;
        entry_keys.push(key);
        entry_refs.push(fingerprint(&bytes));
    }
    let mut novel_keys = Vec::with_capacity(inputs.novel.len());
    let mut novel_bytes = Vec::with_capacity(inputs.novel.len());
    for (json, &needed) in inputs.novel.iter().zip(needed) {
        novel_keys.push(key_of(json)?);
        novel_bytes.push(if needed {
            compute(json)?
        } else {
            String::new()
        });
    }
    // Writes the index journal (every entry at tick 0).
    RunStore::open(dir)
        .and_then(|store| store.gc(u64::MAX))
        .map_err(|e| format!("fixture index: {e}"))?;
    let cold = specs::resolve(&inputs.entries[0], &registry)
        .and_then(|e| e.run())
        .and_then(|run| run.to_jsonl())
        .map_err(|e| format!("cold reference run failed: {e}"))?;
    Ok(Fixture {
        cold_check: fingerprint(&cold) == entry_refs[0],
        entry_keys,
        entry_refs,
        novel_keys,
        novel_bytes,
        digest,
    })
}

/// Copies a flat directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let listing = std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for dirent in listing {
        let dirent = dirent.map_err(|e| format!("list {}: {e}", from.display()))?;
        std::fs::copy(dirent.path(), to.join(dirent.file_name()))
            .map_err(|e| format!("copy {}: {e}", dirent.path().display()))?;
    }
    Ok(())
}

/// What the probe measured.
pub struct Probe {
    pub values: Vec<(&'static str, f64)>,
    /// Operations whose result did not match the fixture.
    pub failed: u64,
    pub attempted: u64,
    /// Whether the digest and cold-run checks of the fixture passed.
    pub checks_passed: bool,
}

/// Builds the fixture for `seed` in a scratch directory, opens a copy and
/// replays the seeded key sequence against it.
pub fn probe(seed: u64, tracer: &Tracer) -> Result<Probe, String> {
    let scratch = WorkDir::create("store").map_err(|e| format!("work dir: {e}"))?;
    let work = scratch.path();
    let inputs = specs::store_inputs(seed);
    let requests = specs::store_sequence(
        seed,
        REPLAY_REQUESTS,
        inputs.entries.len(),
        inputs.novel.len(),
    );
    let mut needed = vec![false; inputs.novel.len()];
    for request in &requests {
        if let StoreRequest::Novel(i) = *request {
            needed[i] = true;
        }
    }
    let pristine = work.join("pristine");
    let fixture = build_fixture(&inputs, &needed, &pristine)?;
    let checks_passed =
        check_pinned("store", seed, fixture.digest, PINNED_DIGEST) && fixture.cold_check;

    let dir = work.join("replay");
    copy_dir(&pristine, &dir)?;
    let trace = tracer.new_trace();
    let started = Instant::now();
    let store = tracer
        .span("store.open", None, trace, |_| RunStore::open(&dir))
        .map_err(|e| format!("store open failed: {e}"))?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let (entries, bytes) = (store.len(), store.total_bytes());
    let (mut gets, mut puts, mut hits, mut failed) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for request in &requests {
        let op = Instant::now();
        match *request {
            StoreRequest::Read(i) => {
                let got = tracer.span("store.get", None, trace, |_| {
                    store.get(&fixture.entry_keys[i])
                });
                gets.push(op.elapsed().as_secs_f64() * 1e3);
                hits += u64::from(got.is_some());
                if got.map(|bytes| fingerprint(&bytes)) != Some(fixture.entry_refs[i]) {
                    failed += 1;
                }
            }
            StoreRequest::Novel(i) => {
                let put = tracer.span("store.put", None, trace, |_| {
                    store.put(&fixture.novel_keys[i], &fixture.novel_bytes[i])
                });
                puts.push(op.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = put {
                    eprintln!("store probe: put failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    let gets_done = gets.len().max(1) as f64;
    let (gets, puts) = (Latencies::new(gets), Latencies::new(puts));
    eprintln!(
        "store probe over {entries} entries: {}; {}",
        gets.describe("RunStore::get"),
        puts.describe("RunStore::put")
    );
    Ok(Probe {
        values: vec![
            ("store.get_ms_p50", gets.p(50.0)),
            ("store.get_ms_p99", gets.p(99.0)),
            ("store.put_ms_p50", puts.p(50.0)),
            ("store.put_ms_p99", puts.p(99.0)),
            ("store.open_ms", open_ms),
            ("store.hit_frac", hits as f64 / gets_done),
            ("store.entries", entries as f64),
            ("store.bytes", bytes as f64),
        ],
        failed,
        attempted: requests.len() as u64,
        checks_passed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file of a flat directory, by name.
    fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|d| {
                let d = d.unwrap();
                (
                    d.file_name().to_string_lossy().into_owned(),
                    std::fs::read(d.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn fixture_restores_identical_contents_on_every_run() {
        let work = WorkDir::create("fixture-test").unwrap();
        let mut inputs = specs::store_inputs(specs::DEFAULT_SEED);
        inputs.entries.truncate(40);
        inputs.novel.truncate(3);
        let needed = [true, false, true];
        let first = build_fixture(&inputs, &needed, &work.path().join("a")).unwrap();
        let second = build_fixture(&inputs, &needed, &work.path().join("b")).unwrap();
        assert!(first.cold_check);
        assert_eq!(first.entry_refs, second.entry_refs);
        let a = contents(&work.path().join("a"));
        assert_eq!(a.len(), 41, "40 entries plus the index journal");
        assert_eq!(a, contents(&work.path().join("b")));
        // A session's copy starts from exactly the pristine contents, even
        // after an earlier session changed its copy.
        let live = work.path().join("live");
        copy_dir(&work.path().join("a"), &live).unwrap();
        std::fs::write(live.join("stray"), b"x").unwrap();
        std::fs::remove_dir_all(&live).unwrap();
        copy_dir(&work.path().join("a"), &live).unwrap();
        assert_eq!(contents(&live), a);
        // The store adopts every entry and serves the fixture bytes.
        let store = RunStore::open(&live).unwrap();
        assert_eq!(store.len(), 40);
        let bytes = store.get(&first.entry_keys[7]).unwrap();
        assert_eq!(fingerprint(&bytes), first.entry_refs[7]);
    }
}
