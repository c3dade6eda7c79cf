//! Result types for pipeline runs.

use lpo_ir::function::Function;
use lpo_tv::refine::VerdictTier;
use std::time::Duration;

/// What happened to one extracted instruction sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseOutcome {
    /// A verified, interesting candidate was found (a potential missed optimization).
    Found {
        /// The candidate after `opt` canonicalization.
        candidate: Function,
    },
    /// The model's candidate was not interesting (usually: identical to the input).
    NotInteresting,
    /// Every attempt failed the correctness check.
    Rejected,
    /// Every attempt failed to parse / verify syntactically.
    SyntaxError,
    /// The case did not complete: its model session failed (typed
    /// [`SessionError`](lpo_llm::model::SessionError)) or the case panicked
    /// and was contained by the engine's per-case `catch_unwind`. The run
    /// carries on; the error text says why this case did not.
    Failed {
        /// Rendering of the session error or panic payload.
        error: String,
    },
}

impl CaseOutcome {
    /// Returns `true` when a potential missed optimization was recorded.
    pub fn is_found(&self) -> bool {
        matches!(self, CaseOutcome::Found { .. })
    }

    /// Returns `true` when the case failed (session error or contained
    /// panic) rather than completing with a verdict.
    pub fn is_failed(&self) -> bool {
        matches!(self, CaseOutcome::Failed { .. })
    }
}

/// The per-sequence report produced by [`Lpo::optimize_sequence`](crate::Lpo::optimize_sequence).
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// The outcome.
    pub outcome: CaseOutcome,
    /// How many LLM attempts were made (1..=ATTEMPT_LIMIT).
    pub attempts: usize,
    /// Real wall-clock time spent by this reproduction on the case.
    pub wall_time: Duration,
    /// Modelled end-to-end time (LLM inference latency + verification), the
    /// quantity Table 4 reports.
    pub modeled_time: Duration,
    /// Modelled API cost in USD for this case (zero for local models).
    pub cost_usd: f64,
    /// Which verification tier decided the case's final Stage-3 verdict
    /// (abstract proof, concrete sweep, abstract or concrete refutation).
    /// `None` when the case never reached Stage 3 (syntax errors,
    /// uninteresting candidates, session failures) or the report predates
    /// tier tracking. Informational — deliberately excluded from
    /// [`fingerprint`](Self::fingerprint), which pins behaviour, not
    /// machinery.
    pub tier: Option<VerdictTier>,
    /// How many of this case's Stage-3 verdicts replayed from the attached
    /// [`VerdictStore`](lpo_store::VerdictStore) instead of being computed
    /// (0 without a store, or when every lookup missed). Like `tier` this is
    /// machinery, not behaviour: excluded from
    /// [`fingerprint`](Self::fingerprint) and from
    /// [`checkpoint_blob`](Self::checkpoint_blob) (a replayed checkpoint
    /// reports 0 — it did no lookups).
    pub store_hits: usize,
}

impl CaseReport {
    /// A canonical text rendering of every *deterministic* field — everything
    /// except the real `wall_time`, which varies run to run.
    ///
    /// Two runs of the execution engine are considered bit-identical exactly
    /// when their report streams produce equal fingerprints; the determinism
    /// tests compare `--jobs 1` against `--jobs N` this way. Costs are
    /// rendered via [`f64::to_bits`] so the comparison is exact.
    pub fn fingerprint(&self) -> String {
        let outcome = match &self.outcome {
            CaseOutcome::Found { candidate } => {
                format!("found:{}", lpo_ir::printer::print_function(candidate))
            }
            CaseOutcome::NotInteresting => "not-interesting".to_string(),
            CaseOutcome::Rejected => "rejected".to_string(),
            CaseOutcome::SyntaxError => "syntax-error".to_string(),
            CaseOutcome::Failed { error } => format!("failed:{error}"),
        };
        format!(
            "outcome={outcome};attempts={};modeled_ns={};cost_bits={:#018x}",
            self.attempts,
            self.modeled_time.as_nanos(),
            self.cost_usd.to_bits()
        )
    }

    /// A `Failed` report for a case that did not complete.
    pub fn failed(error: String, attempts: usize, wall_time: Duration) -> Self {
        Self {
            outcome: CaseOutcome::Failed { error },
            attempts,
            wall_time,
            modeled_time: Duration::ZERO,
            cost_usd: 0.0,
            tier: None,
            store_hits: 0,
        }
    }

    /// Serializes every deterministic field into the blob format the
    /// checkpoint store persists.
    /// [`from_checkpoint_blob`](Self::from_checkpoint_blob) round-trips it;
    /// `wall_time` is not persisted (a replayed case did no work). The
    /// `tier=` line is emitted only when a tier was recorded, so reports
    /// without one serialize exactly as they did before tier tracking.
    pub fn checkpoint_blob(&self) -> String {
        let (kind, detail) = match &self.outcome {
            CaseOutcome::Found { candidate } => {
                ("found", lpo_ir::printer::print_function(candidate))
            }
            CaseOutcome::NotInteresting => ("not-interesting", String::new()),
            CaseOutcome::Rejected => ("rejected", String::new()),
            CaseOutcome::SyntaxError => ("syntax-error", String::new()),
            CaseOutcome::Failed { error } => ("failed", error.clone()),
        };
        let tier = match self.tier {
            Some(tier) => format!("tier={tier}\n"),
            None => String::new(),
        };
        format!(
            "attempts={}\nmodeled_ns={}\ncost_bits={:#018x}\n{tier}outcome={kind}\n{detail}",
            self.attempts,
            self.modeled_time.as_nanos(),
            self.cost_usd.to_bits(),
        )
    }

    /// Parses a [`checkpoint_blob`](Self::checkpoint_blob). Returns `None`
    /// for any malformed blob — callers treat that as a cache miss and
    /// recompute, never trusting a corrupt record. Blobs written before tier
    /// tracking (no `tier=` line) parse with `tier: None`.
    pub fn from_checkpoint_blob(blob: &str) -> Option<Self> {
        let (attempts_line, rest) = blob.split_once('\n')?;
        let (modeled_line, rest) = rest.split_once('\n')?;
        let (cost_line, rest) = rest.split_once('\n')?;
        let attempts = attempts_line.strip_prefix("attempts=")?.parse::<usize>().ok()?;
        let modeled_ns = modeled_line.strip_prefix("modeled_ns=")?.parse::<u64>().ok()?;
        let cost_hex = cost_line.strip_prefix("cost_bits=")?.strip_prefix("0x")?;
        let cost_usd = f64::from_bits(u64::from_str_radix(cost_hex, 16).ok()?);
        let (tier, rest) = match rest.strip_prefix("tier=") {
            Some(tiered) => {
                let (name, rest) = tiered.split_once('\n')?;
                (Some(VerdictTier::parse(name)?), rest)
            }
            None => (None, rest),
        };
        let (kind_line, detail) = rest.split_once('\n').unwrap_or((rest, ""));
        let kind = kind_line.strip_prefix("outcome=")?;
        let outcome = match kind {
            "found" => CaseOutcome::Found {
                candidate: lpo_ir::parser::parse_function(detail).ok()?,
            },
            "not-interesting" => CaseOutcome::NotInteresting,
            "rejected" => CaseOutcome::Rejected,
            "syntax-error" => CaseOutcome::SyntaxError,
            "failed" => CaseOutcome::Failed { error: detail.to_string() },
            _ => return None,
        };
        Some(Self {
            outcome,
            attempts,
            wall_time: Duration::ZERO,
            modeled_time: Duration::from_nanos(modeled_ns),
            cost_usd,
            tier,
            store_hits: 0,
        })
    }
}

/// Aggregate statistics over a run of many sequences.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Number of sequences processed.
    pub cases: usize,
    /// Number of potential missed optimizations found.
    pub found: usize,
    /// Number of uninteresting candidates.
    pub not_interesting: usize,
    /// Number rejected by the correctness check on every attempt.
    pub rejected: usize,
    /// Number that never parsed.
    pub syntax_errors: usize,
    /// Number that failed (session error or contained panic) instead of
    /// completing.
    pub failed: usize,
    /// Sum of modelled per-case times.
    pub total_modeled_time: Duration,
    /// Sum of modelled per-case costs.
    pub total_cost_usd: f64,
}

impl RunSummary {
    /// Folds a case report into the summary.
    pub fn add(&mut self, report: &CaseReport) {
        self.cases += 1;
        match report.outcome {
            CaseOutcome::Found { .. } => self.found += 1,
            CaseOutcome::NotInteresting => self.not_interesting += 1,
            CaseOutcome::Rejected => self.rejected += 1,
            CaseOutcome::SyntaxError => self.syntax_errors += 1,
            CaseOutcome::Failed { .. } => self.failed += 1,
        }
        self.total_modeled_time += report.modeled_time;
        self.total_cost_usd += report.cost_usd;
    }

    /// Builds a summary from a slice of reports.
    pub fn from_reports(reports: &[CaseReport]) -> Self {
        let mut s = Self::default();
        for r in reports {
            s.add(r);
        }
        s
    }

    /// Average modelled seconds per case.
    pub fn seconds_per_case(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            self.total_modeled_time.as_secs_f64() / self.cases as f64
        }
    }

    /// A canonical text rendering of the summary, exact on floats — the
    /// aggregate counterpart of [`CaseReport::fingerprint`].
    pub fn fingerprint(&self) -> String {
        format!(
            "cases={};found={};not_interesting={};rejected={};syntax_errors={};failed={};modeled_ns={};cost_bits={:#018x}",
            self.cases,
            self.found,
            self.not_interesting,
            self.rejected,
            self.syntax_errors,
            self.failed,
            self.total_modeled_time.as_nanos(),
            self.total_cost_usd.to_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcome: CaseOutcome, secs: f64) -> CaseReport {
        CaseReport {
            outcome,
            attempts: 1,
            wall_time: Duration::from_millis(1),
            modeled_time: Duration::from_secs_f64(secs),
            cost_usd: 0.001,
            tier: None,
            store_hits: 0,
        }
    }

    #[test]
    fn checkpoint_blobs_round_trip_the_tier() {
        for tier in [
            None,
            Some(VerdictTier::Proved),
            Some(VerdictTier::Tested),
            Some(VerdictTier::RefutedConcrete),
        ] {
            let original = CaseReport { tier, ..report(CaseOutcome::Rejected, 2.0) };
            let parsed = CaseReport::from_checkpoint_blob(&original.checkpoint_blob())
                .expect("round trip");
            assert_eq!(parsed.tier, tier);
            assert_eq!(parsed.fingerprint(), original.fingerprint());
        }
        // Records written before tier tracking still parse.
        let legacy = "attempts=1\nmodeled_ns=5\ncost_bits=0x0000000000000000\noutcome=rejected\n";
        let parsed = CaseReport::from_checkpoint_blob(legacy).expect("legacy blob");
        assert_eq!(parsed.tier, None);
        assert_eq!(parsed.attempts, 1);
        // A tier line with an unknown name is malformed, not ignored.
        for name in ["solved", "refuted-abstract"] {
            let bad = format!(
                "attempts=1\nmodeled_ns=5\ncost_bits=0x0000000000000000\ntier={name}\noutcome=rejected\n"
            );
            assert!(CaseReport::from_checkpoint_blob(&bad).is_none(), "tier={name}");
        }
    }

    #[test]
    fn summary_aggregation() {
        let reports = vec![
            report(CaseOutcome::NotInteresting, 5.0),
            report(CaseOutcome::Rejected, 10.0),
            report(CaseOutcome::SyntaxError, 3.0),
            report(
                CaseOutcome::Found {
                    candidate: lpo_ir::function::Function::new("c", lpo_ir::types::Type::Void),
                },
                6.0,
            ),
        ];
        let s = RunSummary::from_reports(&reports);
        assert_eq!(s.cases, 4);
        assert_eq!(s.found, 1);
        assert_eq!(s.not_interesting, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.syntax_errors, 1);
        assert!((s.seconds_per_case() - 6.0).abs() < 1e-9);
        assert!((s.total_cost_usd - 0.004).abs() < 1e-9);
        assert!(reports[3].outcome.is_found());
        assert!(!reports[0].outcome.is_found());
    }

    #[test]
    fn empty_summary() {
        let s = RunSummary::default();
        assert_eq!(s.seconds_per_case(), 0.0);
        assert_eq!(s.cases, 0);
    }
}
