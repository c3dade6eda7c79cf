//! Workloads shared by the integration tests that replay served traffic.

use lpo_corpus::{generate_corpus, rq1_suite, rq2_suite, CorpusConfig};
use lpo_extract::{ExtractConfig, Extractor};
use lpo_ir::function::Function;

/// Table 4's sampled sequences, built as `lpo_bench::rq3_experiment` does.
pub fn table4_samples(samples: usize) -> Vec<Function> {
    let corpus = generate_corpus(&CorpusConfig {
        modules_per_project: 4,
        functions_per_module: 4,
        ..CorpusConfig::default()
    });
    let mut sequences = Vec::new();
    for module in corpus.iter().flat_map(|project| &project.modules) {
        let mut extractor = Extractor::new(ExtractConfig { min_instructions: 2, ..ExtractConfig::default() });
        for seq in extractor.extract_module(module) {
            sequences.push(seq.function);
            if sequences.len() == samples {
                return sequences;
            }
        }
    }
    sequences
}

/// The corpus-discover sequence list: a 5×5 corpus, one extractor per
/// module.
pub fn corpus_discover() -> Vec<Function> {
    let corpus = generate_corpus(&CorpusConfig {
        modules_per_project: 5,
        functions_per_module: 5,
        ..CorpusConfig::default()
    });
    let mut sequences = Vec::new();
    for module in corpus.iter().flat_map(|project| &project.modules) {
        let mut extractor = Extractor::new(ExtractConfig { min_instructions: 2, ..ExtractConfig::default() });
        sequences.extend(extractor.extract_module(module).into_iter().map(|seq| seq.function));
    }
    sequences
}

/// The served sets: the rq1 and rq2 suites, Table 4's 60 samples and the
/// corpus-discover extraction.
pub fn suites() -> Vec<(&'static str, Vec<Function>)> {
    vec![
        ("rq1", rq1_suite().into_iter().map(|case| case.function).collect()),
        ("rq2", rq2_suite().into_iter().map(|case| case.function).collect()),
        ("table4", table4_samples(60)),
        ("corpus-discover", corpus_discover()),
    ]
}

/// A fixed block of `count` random-function seeds (`salt` tells one test's
/// block from another's), plus a rotating block derived from
/// `LPO_FUZZ_SEED` (decimal or `0x` hex) when it is set; `fuzz` names the
/// test in the log line.
pub fn fuzz_seeds(count: u64, salt: u64, fuzz: &str) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..count).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).collect();
    if let Ok(raw) = std::env::var("LPO_FUZZ_SEED") {
        let raw = raw.trim();
        let rotating = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        }
        .unwrap_or_else(|_| panic!("LPO_FUZZ_SEED must be a u64 (decimal or 0x hex), got {raw:?}"));
        eprintln!("{fuzz}: appending {count} rotating seeds from LPO_FUZZ_SEED={rotating:#x}");
        seeds.extend((0..count).map(|i| rotating.wrapping_add(i.wrapping_mul(0x9e37_79b9))));
    }
    seeds
}
