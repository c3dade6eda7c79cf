//! Persistence glue between the pipeline and the durable
//! [`lpo_store::VerdictStore`]: version strings, verdict serialization, and
//! checkpoint keys.
//!
//! The store itself is content-agnostic (it moves opaque blobs); this module
//! owns the two blob formats —
//! [`lpo_tv::refine::Verdict`] records for the verified-once-ever
//! cache, and [`CaseReport`](crate::report::CaseReport) checkpoint records
//! (see [`CaseReport::checkpoint_blob`](crate::report::CaseReport::checkpoint_blob))
//! for `--resume` — plus the versioning that keeps stale records from ever
//! being replayed.
//!
//! # Versioning
//!
//! A stored verdict is replayed only under the exact pipeline revision it
//! was recorded under, and only for the exact `(source, candidate)` pair:
//!
//! * [`PIPELINE_REVISION`] must be bumped by any change that can alter a
//!   Stage-3 verdict or a case report (verifier semantics, input generation,
//!   canonicalization, prompt construction, ...). Old records then simply
//!   stop matching — they are never migrated, never trusted.
//! * the pair is keyed by [`hash_function_named`](lpo_ir::hash::hash_function_named)
//!   digests, which cover every printed name. A counterexample prints the
//!   source's parameter names and a signature error prints both
//!   signatures, so a renamed twin must miss rather than replay the other
//!   function's names.
//! * the model profile is not part of the key. A verdict relates a source
//!   and a candidate and nothing else, so every model of a run (Table 2's
//!   six) shares one table.
//!
//! # Determinism
//!
//! Every blob round-trips exactly: a replayed verdict reproduces the same
//! `Verdict` value (including the full counterexample text fed back to the
//! model), so a run with a warm store is byte-identical to a cold one —
//! `tests/determinism.rs` pins this.

use lpo_tv::refine::{Counterexample, Verdict, VerdictTier};

/// The pipeline revision stamped into every store record. Bump on any change
/// that can alter a verdict or case report (see the module docs).
///
/// r2: verdict blobs and checkpoint records carry the deciding
/// [`VerdictTier`] (abstract pre-verification tier).
///
/// r3: a poison divisor of `udiv`/`sdiv`/`urem`/`srem`, a literal `undef`
/// one, and a zero one under a poison or undef dividend are immediate UB in
/// every evaluator (they used to yield poison or undef), so a target that
/// divides by one no longer refines a source, and the constant folder no
/// longer folds such a division. Records stored under r2 may hold the old
/// verdict.
///
/// r4: the abstract pre-verification tier is gone, and with it the
/// `refuted-abstract` tier name. An r3 record carrying that name would no
/// longer decode; under r4 no r3 record is read.
///
/// r5: verdict keys are name-exact digests and carry no model profile. An
/// r4 key could hand a renamed twin a counterexample naming the other
/// function's parameters.
pub const PIPELINE_REVISION: u32 = 5;

/// The version string verdict records carry: the pipeline revision.
pub fn store_version() -> String {
    format!("r{PIPELINE_REVISION}")
}

/// The store key of one case inside one run: round, input position, and the
/// input's structural digest (so a changed input misses instead of replaying
/// a stale report).
pub fn case_key(round: u64, case_index: usize, digest: u64) -> String {
    format!("round{round}/case{case_index}/{digest:016x}")
}

/// Unit separator between verdict-blob fields. The joined fields are all
/// text this codebase renders itself (reasons, behaviour descriptions) and
/// never contain control characters; a blob that fails to parse is treated
/// as a miss, never trusted.
const SEP: char = '\x1f';

/// Prefix of the optional trailing tier field.
const TIER_PREFIX: &str = "tier=";

/// Serializes a [`Verdict`] plus the [`VerdictTier`] that decided it into a
/// store blob. The tier rides as an optional trailing `tier=<name>` field so
/// the decoder stays tolerant of records written without one.
pub fn encode_verdict(verdict: &Verdict, tier: Option<VerdictTier>) -> String {
    let mut blob = match verdict {
        Verdict::Correct { inputs_checked, exhaustive } => {
            format!("correct{SEP}{inputs_checked}{SEP}{exhaustive}")
        }
        Verdict::Incorrect(cex) => {
            let mut blob = format!(
                "incorrect{SEP}{}{SEP}{}{SEP}{}",
                cex.reason, cex.src_behaviour, cex.tgt_behaviour
            );
            for (name, value) in &cex.args {
                blob.push(SEP);
                blob.push_str(name);
                blob.push(SEP);
                blob.push_str(value);
            }
            blob
        }
        Verdict::Error(message) => format!("error{SEP}{message}"),
    };
    if let Some(tier) = tier {
        blob.push(SEP);
        blob.push_str(TIER_PREFIX);
        blob.push_str(tier.as_str());
    }
    blob
}

/// Splits an optional trailing `tier=<name>` field off a field list. A last
/// field that carries the prefix but not a known tier name is malformed.
fn split_tier(fields: &mut Vec<&str>) -> Result<Option<VerdictTier>, ()> {
    match fields.last().and_then(|f| f.strip_prefix(TIER_PREFIX)) {
        Some(name) => {
            let tier = VerdictTier::parse(name).ok_or(())?;
            fields.pop();
            Ok(Some(tier))
        }
        None => Ok(None),
    }
}

/// Parses a blob produced by [`encode_verdict`]. `None` = malformed; the
/// caller recomputes. The tier half is `None` for records that predate it
/// (argument names and values never contain `tier=`, they are rendered
/// `%name = <value>` pairs, so the trailing field is unambiguous).
pub fn decode_verdict(blob: &str) -> Option<(Verdict, Option<VerdictTier>)> {
    let mut fields: Vec<&str> = blob.split(SEP).collect();
    let tier = split_tier(&mut fields).ok()?;
    let mut fields = fields.into_iter();
    let verdict = match fields.next()? {
        "correct" => {
            let inputs_checked = fields.next()?.parse::<usize>().ok()?;
            let exhaustive = fields.next()?.parse::<bool>().ok()?;
            fields
                .next()
                .is_none()
                .then_some(Verdict::Correct { inputs_checked, exhaustive })?
        }
        "incorrect" => {
            let reason = fields.next()?.to_string();
            let src_behaviour = fields.next()?.to_string();
            let tgt_behaviour = fields.next()?.to_string();
            let rest: Vec<&str> = fields.collect();
            if !rest.len().is_multiple_of(2) {
                return None;
            }
            let args = rest
                .chunks(2)
                .map(|pair| (pair[0].to_string(), pair[1].to_string()))
                .collect();
            Verdict::Incorrect(Counterexample { reason, args, src_behaviour, tgt_behaviour })
        }
        "error" => {
            let message = fields.next()?.to_string();
            fields.next().is_none().then_some(Verdict::Error(message))?
        }
        _ => return None,
    };
    Some((verdict, tier))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_blobs_round_trip() {
        let verdicts = [
            Verdict::Correct { inputs_checked: 10752, exhaustive: false },
            Verdict::Correct { inputs_checked: 65536, exhaustive: true },
            Verdict::Error("signature mismatch: i8 vs i32".to_string()),
            Verdict::Incorrect(Counterexample {
                reason: "Value mismatch".to_string(),
                args: vec![
                    ("%x".to_string(), "i32 7".to_string()),
                    ("%y".to_string(), "i32 poison".to_string()),
                ],
                src_behaviour: "returns i8 3".to_string(),
                tgt_behaviour: "returns i8 5".to_string(),
            }),
            Verdict::Incorrect(Counterexample {
                reason: "Target is more poisonous than source".to_string(),
                args: Vec::new(),
                src_behaviour: "UB".to_string(),
                tgt_behaviour: "poison".to_string(),
            }),
        ];
        let tiers = [
            None,
            Some(VerdictTier::Proved),
            Some(VerdictTier::Tested),
            Some(VerdictTier::RefutedConcrete),
        ];
        for verdict in verdicts {
            for tier in tiers {
                let blob = encode_verdict(&verdict, tier);
                assert_eq!(decode_verdict(&blob), Some((verdict.clone(), tier)), "blob: {blob:?}");
            }
        }
    }

    #[test]
    fn tierless_blobs_decode_with_no_tier() {
        // The exact byte format records carried before the tier field.
        let legacy = "correct\u{1f}256\u{1f}true";
        assert_eq!(
            decode_verdict(legacy),
            Some((Verdict::Correct { inputs_checked: 256, exhaustive: true }, None))
        );
    }

    #[test]
    fn malformed_blobs_are_misses() {
        for blob in [
            "",
            "corrupt",
            "correct\u{1f}x\u{1f}true",
            "correct\u{1f}5",
            "incorrect\u{1f}a",
            // An unknown tier name is malformed, never silently dropped.
            "correct\u{1f}5\u{1f}true\u{1f}tier=solved",
            "correct\u{1f}5\u{1f}true\u{1f}tier=refuted-abstract",
        ] {
            assert_eq!(decode_verdict(blob), None, "blob: {blob:?}");
        }
    }

    #[test]
    fn versioning_covers_the_revision_only() {
        assert_eq!(store_version(), format!("r{PIPELINE_REVISION}"));
        assert_eq!(case_key(2, 17, 0xabcd), "round2/case17/000000000000abcd");
    }
}
