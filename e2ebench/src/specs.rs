//! The workloads' inputs: `imc.experiment-spec` documents generated from
//! the benchmark seed.
//!
//! The program only ever sees the generated documents; the seed picks the
//! networks' weight seeds, the corpus contents and the request order.

use imc_sim::{ExperimentSpec, Registry};

use crate::rng::{SplitMix64, Zipf};

/// The seed whose simulated statistics are pinned (the paper's seed).
pub const DEFAULT_SEED: u64 = 2025;

/// The array sizes every workload sweeps.
pub const ARRAYS: [usize; 3] = [32, 64, 128];

/// The networks of the cold-sweep batch: ResNet-20 plus the four curated
/// synthetic scenarios. WRN16-4 is left out: one cold run takes seconds.
pub const SWEEP_NETWORKS: [&str; 5] = [
    "resnet20",
    "synthetic:deep-thin",
    "synthetic:wide-shallow",
    "synthetic:depthwise-heavy",
    "synthetic:matmul-projection",
];

/// The eight strategies of every cold-sweep and store-fixture grid.
pub const SWEEP_STRATEGIES: [&str; 8] = [
    r#"{"method":"im2col"}"#,
    r#"{"method":"sdk"}"#,
    r#"{"method":"lowrank","groups":1,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":2,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":4,"rank":{"divisor":4},"sdk":true}"#,
    r#"{"method":"lowrank","groups":4,"rank":{"divisor":8},"sdk":false}"#,
    r#"{"method":"patdnn","entries":4}"#,
    r#"{"method":"pairs","entries":4}"#,
];

/// The networks of the serve corpus.
pub const SERVE_NETWORKS: [&str; 4] = [
    "resnet20",
    "synthetic:deep-thin",
    "synthetic:depthwise-heavy",
    "synthetic:matmul-projection",
];

/// Weight seeds per serve network (bench seed, bench seed + 1).
pub const SERVE_SEEDS: usize = 2;

/// The shared strategy pool every serve-corpus spec draws a subset of.
pub const SERVE_POOL: [&str; 16] = [
    r#"{"method":"im2col"}"#,
    r#"{"method":"sdk"}"#,
    r#"{"method":"lowrank","groups":1,"rank":{"divisor":4},"sdk":true}"#,
    r#"{"method":"lowrank","groups":1,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":2,"rank":{"divisor":4},"sdk":true}"#,
    r#"{"method":"lowrank","groups":2,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":4,"rank":{"divisor":4},"sdk":true}"#,
    r#"{"method":"lowrank","groups":4,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":8,"rank":{"divisor":4},"sdk":true}"#,
    r#"{"method":"lowrank","groups":8,"rank":{"divisor":8},"sdk":true}"#,
    r#"{"method":"lowrank","groups":2,"rank":{"divisor":8},"sdk":false}"#,
    r#"{"method":"lowrank","groups":4,"rank":{"divisor":8},"sdk":false}"#,
    r#"{"method":"patdnn","entries":2}"#,
    r#"{"method":"patdnn","entries":4}"#,
    r#"{"method":"pairs","entries":2}"#,
    r#"{"method":"pairs","entries":4}"#,
];

/// Distinct specs in the serve corpus. Their responses total well over the
/// server's 64 MiB response cache.
pub const SERVE_CORPUS_SPECS: usize = 2000;

/// Zipf exponent of the serve popularity distribution.
pub const SERVE_ZIPF_S: f64 = 1.1;

/// The networks whose grids the store fixture shards.
pub const STORE_NETWORKS: [&str; 3] = [
    "synthetic:matmul-projection",
    "synthetic:deep-thin",
    "synthetic:depthwise-heavy",
];

/// Cell-range lengths of the fixture entries; novel requests use longer
/// ranges, so they are never in the fixture.
const STORE_RANGE_LENS: std::ops::RangeInclusive<usize> = 1..=4;
const STORE_NOVEL_LENS: std::ops::RangeInclusive<usize> = 5..=8;

/// Pinned worker counts of the fixture entries (`None` = unpinned). Each is
/// a distinct store key, as with shards written by differently-sized sweep
/// workers.
const STORE_PARALLELISM: [Option<usize>; 9] = [
    None,
    Some(1),
    Some(2),
    Some(3),
    Some(4),
    Some(5),
    Some(6),
    Some(7),
    Some(8),
];

/// One spec document.
pub fn spec_json(
    seed: u64,
    precision: &str,
    networks: &[&str],
    arrays: &[usize],
    strategies: &[&str],
    extra: &str,
) -> String {
    let networks: Vec<String> = networks.iter().map(|n| format!("\"{n}\"")).collect();
    let arrays: Vec<String> = arrays.iter().map(ToString::to_string).collect();
    format!(
        "{{\"format\":\"imc.experiment-spec\",\"version\":1,\"seed\":{seed},\"precision\":\"{precision}\",\
         \"networks\":[{}],\"arrays\":[{}],\"strategies\":[{}]{extra}}}",
        networks.join(","),
        arrays.join(","),
        strategies.join(","),
    )
}

/// The cold-sweep batch: every sweep network over all arrays at `f64` and
/// `f32`, plus one frontier-mode Fig. 6 spec, in a seed-shuffled order.
pub fn sweep_batch(seed: u64) -> Vec<String> {
    let mut batch = Vec::new();
    for precision in ["f64", "f32"] {
        for network in SWEEP_NETWORKS {
            batch.push(spec_json(
                seed,
                precision,
                &[network],
                &ARRAYS,
                &SWEEP_STRATEGIES,
                "",
            ));
        }
    }
    batch.push(fig6_frontier_spec(seed));
    SplitMix64::derive(seed, 1).shuffle(&mut batch);
    batch
}

/// The Fig. 6 grid (ResNet-20, 64×64 arrays, 33 strategies) as a frontier
/// search request.
fn fig6_frontier_spec(seed: u64) -> String {
    let resnet = Registry::new()
        .build_network("resnet20")
        .expect("resnet20 is a built-in network");
    let mut spec = imc_sim::fig6_experiment(&resnet, 64, seed)
        .to_spec()
        .expect("the Fig. 6 grid is spec-serializable");
    spec.frontier = true;
    spec.to_json()
}

/// One serve-corpus request and the grid cells its response carries.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    pub json: String,
    /// Cell identities (network, weight seed, array, pool strategy), the
    /// same across every spec that shares the cell.
    pub cells: Vec<u32>,
}

#[derive(Debug, Clone)]
pub struct ServeCorpus {
    /// One full-pool spec per (network, weight seed): the warm-up requests
    /// that fill the server's session caches with every corpus cell.
    pub warmup: Vec<CorpusSpec>,
    /// Distinct specs, most popular first.
    pub specs: Vec<CorpusSpec>,
}

fn cell_id(network: usize, seed: usize, array: usize, strategy: usize) -> u32 {
    (((network * SERVE_SEEDS + seed) * ARRAYS.len() + array) * SERVE_POOL.len() + strategy) as u32
}

fn corpus_spec(
    seed: u64,
    network: usize,
    seed_index: usize,
    arrays: &[usize],
    strategies: &[usize],
) -> CorpusSpec {
    let array_sizes: Vec<usize> = arrays.iter().map(|&a| ARRAYS[a]).collect();
    let pool: Vec<&str> = strategies.iter().map(|&s| SERVE_POOL[s]).collect();
    let mut cells = Vec::new();
    for &a in arrays {
        for &s in strategies {
            cells.push(cell_id(network, seed_index, a, s));
        }
    }
    CorpusSpec {
        json: spec_json(
            seed.wrapping_add(seed_index as u64),
            "f64",
            &[SERVE_NETWORKS[network]],
            &array_sizes,
            &pool,
            "",
        ),
        cells,
    }
}

/// Fixed seed of the serve corpus shape.
const CORPUS_SHAPE_SEED: u64 = 0x5EED;

/// Strategies per serve-corpus spec.
const SERVE_SPEC_STRATEGIES: usize = 6;

/// The serve corpus: `n` distinct specs over a few networks and weight
/// seeds, each with two of the three arrays and six strategies of the
/// shared pool (in pool order), so specs overlap heavily in cells.
///
/// The seed sets the weight seeds (so every record value) and, through
/// [`zipf_sequence`], the request order. The corpus shape (which network,
/// arrays and strategies sit at each popularity rank) is the same for every
/// seed, so the cost profile of the popularity curve does not move with it.
pub fn serve_corpus(seed: u64, n: usize) -> ServeCorpus {
    let all_arrays: Vec<usize> = (0..ARRAYS.len()).collect();
    let all_strategies: Vec<usize> = (0..SERVE_POOL.len()).collect();
    let mut warmup = Vec::new();
    for network in 0..SERVE_NETWORKS.len() {
        for seed_index in 0..SERVE_SEEDS {
            warmup.push(corpus_spec(
                seed,
                network,
                seed_index,
                &all_arrays,
                &all_strategies,
            ));
        }
    }
    let mut rng = SplitMix64::derive(CORPUS_SHAPE_SEED, 2);
    let mut seen = std::collections::HashSet::new();
    let mut specs = Vec::with_capacity(n);
    while specs.len() < n {
        let network = specs.len() % SERVE_NETWORKS.len();
        let seed_index = rng.below(SERVE_SEEDS);
        let mut arrays = all_arrays.clone();
        arrays.remove(rng.below(ARRAYS.len()));
        let mut strategies = all_strategies.clone();
        rng.shuffle(&mut strategies);
        strategies.truncate(SERVE_SPEC_STRATEGIES);
        strategies.sort_unstable();
        let spec = corpus_spec(seed, network, seed_index, &arrays, &strategies);
        if seen.insert(spec.json.clone()) {
            specs.push(spec);
        }
    }
    ServeCorpus { warmup, specs }
}

/// A client's request sequence over `n` popularity ranks.
pub fn zipf_sequence(seed: u64, client: usize, len: usize, n: usize, s: f64) -> Vec<usize> {
    let zipf = Zipf::new(n, s);
    let mut rng = SplitMix64::derive(seed, 100 + client as u64);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// The store probe's inputs.
#[derive(Debug, Clone)]
pub struct StoreInputs {
    /// Full-grid specs of the sharded networks.
    pub bases: Vec<String>,
    /// Cell-range shards held by the fixture store.
    pub entries: Vec<String>,
    /// Cell-range specs absent from the fixture, seed-shuffled: each is
    /// written at most once.
    pub novel: Vec<String>,
}

fn shard_specs(seed: u64, lens: std::ops::RangeInclusive<usize>) -> Vec<String> {
    let grid = ARRAYS.len() * SWEEP_STRATEGIES.len();
    let mut out = Vec::new();
    for network in STORE_NETWORKS {
        for len in lens.clone() {
            for start in 0..=grid - len {
                for parallelism in STORE_PARALLELISM {
                    let mut extra =
                        format!(",\"cells\":{{\"start\":{start},\"end\":{}}}", start + len);
                    if let Some(p) = parallelism {
                        extra.push_str(&format!(",\"parallelism\":{p}"));
                    }
                    out.push(spec_json(
                        seed,
                        "f64",
                        &[network],
                        &ARRAYS,
                        &SWEEP_STRATEGIES,
                        &extra,
                    ));
                }
            }
        }
    }
    out
}

pub fn store_inputs(seed: u64) -> StoreInputs {
    let bases = STORE_NETWORKS
        .iter()
        .map(|n| spec_json(seed, "f64", &[n], &ARRAYS, &SWEEP_STRATEGIES, ""))
        .collect();
    let mut novel = shard_specs(seed, STORE_NOVEL_LENS);
    SplitMix64::derive(seed, 3).shuffle(&mut novel);
    StoreInputs {
        bases,
        entries: shard_specs(seed, STORE_RANGE_LENS),
        novel,
    }
}

/// One operation of the store probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRequest {
    /// Read of fixture entry `i`.
    Read(usize),
    /// Novel spec `i`: computed, then written through.
    Novel(usize),
}

/// Share of store requests that are novel specs.
pub const STORE_NOVEL_SHARE: f64 = 0.1;

/// The store probe's key sequence: uniform reads over the fixture with a
/// minority of novel specs, each written once.
pub fn store_sequence(seed: u64, len: usize, entries: usize, novel: usize) -> Vec<StoreRequest> {
    let mut rng = SplitMix64::derive(seed, 200);
    let mut next_novel = 0;
    (0..len)
        .map(|_| {
            if rng.unit() < STORE_NOVEL_SHARE && next_novel < novel {
                next_novel += 1;
                StoreRequest::Novel(next_novel - 1)
            } else {
                StoreRequest::Read(rng.below(entries))
            }
        })
        .collect()
}

/// Parses and resolves a spec exactly as the server does.
pub fn resolve(json: &str, registry: &Registry) -> imc_sim::Result<imc_sim::Experiment> {
    ExperimentSpec::from_json(json)?.into_experiment(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_spec_resolves_through_the_default_registry() {
        let registry = Registry::new();
        let corpus = serve_corpus(DEFAULT_SEED, 300);
        let store = store_inputs(DEFAULT_SEED);
        let all = sweep_batch(DEFAULT_SEED)
            .into_iter()
            .chain(corpus.warmup.iter().map(|s| s.json.clone()))
            .chain(corpus.specs.iter().map(|s| s.json.clone()))
            .chain(store.bases)
            .chain(store.entries)
            .chain(store.novel);
        for json in all {
            let experiment = resolve(&json, &registry)
                .unwrap_or_else(|e| panic!("{json} does not resolve: {e}"));
            assert!(experiment.planned_cells() > 0);
        }
    }

    #[test]
    fn corpus_cells_match_the_grid() {
        let registry = Registry::new();
        for spec in serve_corpus(7, 50).specs {
            let experiment = resolve(&spec.json, &registry).unwrap();
            assert_eq!(experiment.grid_cells(), spec.cells.len());
        }
    }

    #[test]
    fn inputs_are_deterministic_for_a_seed() {
        assert_eq!(sweep_batch(5), sweep_batch(5));
        assert_eq!(serve_corpus(5, 100).specs, serve_corpus(5, 100).specs);
        assert_ne!(serve_corpus(5, 100).specs, serve_corpus(6, 100).specs);
        assert_eq!(
            serve_corpus(5, 100).specs[9].cells,
            serve_corpus(6, 100).specs[9].cells
        );
        assert_eq!(store_inputs(5).novel, store_inputs(5).novel);
        assert_eq!(
            store_sequence(5, 500, 100, 40),
            store_sequence(5, 500, 100, 40)
        );
    }

    #[test]
    fn corpus_specs_are_distinct_and_novel_specs_miss_the_fixture() {
        let corpus = serve_corpus(DEFAULT_SEED, SERVE_CORPUS_SPECS);
        let distinct: std::collections::HashSet<_> = corpus.specs.iter().map(|s| &s.json).collect();
        assert_eq!(distinct.len(), SERVE_CORPUS_SPECS);
        let store = store_inputs(DEFAULT_SEED);
        let entries: std::collections::HashSet<_> = store.entries.iter().collect();
        assert!(store.entries.len() >= 2000, "thousands of fixture entries");
        assert!(store.novel.iter().all(|n| !entries.contains(n)));
    }
}
