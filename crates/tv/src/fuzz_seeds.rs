//! Seed blocks for the crate's randomized tests.

/// The base seed block plus, when `LPO_FUZZ_SEED` is set (decimal or `0x`
/// hex), a rotating block derived from it — the protocol of
/// `tests/plane_differential.rs`, so a failure replays with
/// `LPO_FUZZ_SEED=<seed> cargo test --release -p lpo-tv <test name>`.
/// `label` names the suite in the logged seed line.
pub(crate) fn seed_block(count: usize, salt: u64, label: &str) -> Vec<u64> {
    let mut seeds: Vec<u64> =
        (0..count as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt)).collect();
    if let Ok(raw) = std::env::var("LPO_FUZZ_SEED") {
        let raw = raw.trim();
        let rotating = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        }
        .unwrap_or_else(|_| panic!("LPO_FUZZ_SEED must be a u64 (decimal or 0x hex), got {raw:?}"));
        eprintln!("{label} fuzz: appending {} rotating seeds from LPO_FUZZ_SEED={rotating:#x}", count / 4);
        seeds.extend(
            (0..count as u64 / 4).map(|i| rotating.wrapping_add(salt).wrapping_add(i.wrapping_mul(0x9e37_79b9))),
        );
    }
    seeds
}
