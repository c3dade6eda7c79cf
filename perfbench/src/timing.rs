//! Timing decorators around the public layer interfaces: the model
//! factory/session pair, the Stage-3 sweep driver and the serve factory
//! provider. Each forwards every call unchanged, so decorated runs produce
//! the same reports as undecorated ones.

use crate::trace::Recorder;
use lpo_llm::model::{Completion, ModelFactory, ModelSession, Prompt, SessionError};
use lpo_llm::profiles::ModelProfile;
use lpo_serve::server::{DefaultFactoryProvider, FactoryProvider};
use lpo_tv::frozen::{SweepDriver, SweepShard, SweepSlot};
use lpo_tv::prelude::EvalArena;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Model-call accounting shared by every session of a decorated factory.
#[derive(Debug, Default)]
pub struct LlmCounters {
    calls: AtomicU64,
    failures: AtomicU64,
    nanos: AtomicU64,
}

impl LlmCounters {
    /// `(calls, failures, seconds in calls)` so far.
    pub fn snapshot(&self) -> (u64, u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.failures.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    fn record(&self, start: Instant, failed: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.failures
            .fetch_add(u64::from(failed), Ordering::Relaxed);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A [`ModelFactory`] whose sessions time every model call.
pub struct TimedFactory {
    inner: Box<dyn ModelFactory>,
    counters: Arc<LlmCounters>,
}

impl TimedFactory {
    pub fn new(inner: Box<dyn ModelFactory>, counters: Arc<LlmCounters>) -> Self {
        Self { inner, counters }
    }
}

impl ModelFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> Option<&ModelProfile> {
        self.inner.profile()
    }

    fn session(&self, round: u64, case_index: u64) -> Box<dyn ModelSession> {
        Box::new(TimedSession {
            inner: self.inner.session(round, case_index),
            counters: self.counters.clone(),
        })
    }
}

struct TimedSession {
    inner: Box<dyn ModelSession>,
    counters: Arc<LlmCounters>,
}

impl ModelSession for TimedSession {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, prompt: &Prompt) -> Completion {
        let start = Instant::now();
        let completion = self.inner.propose(prompt);
        self.counters.record(start, false);
        completion
    }

    fn try_propose(&mut self, prompt: &Prompt) -> Result<Completion, SessionError> {
        let start = Instant::now();
        let result = self.inner.try_propose(prompt);
        self.counters.record(start, result.is_err());
        result
    }
}

/// The serve provider of a traced run: the default provider's factories,
/// wrapped in [`TimedFactory`].
pub struct TimedProvider {
    pub counters: Arc<LlmCounters>,
}

impl FactoryProvider for TimedProvider {
    fn build(&self, profile: ModelProfile, seed: u64) -> Box<dyn ModelFactory> {
        Box::new(TimedFactory::new(
            DefaultFactoryProvider.build(profile, seed),
            self.counters.clone(),
        ))
    }
}

/// A [`SweepDriver`] that records each `drive` call as a `tv.sweep` span of
/// the case being replayed.
pub struct SpanDriver<'a> {
    pub inner: &'a dyn SweepDriver,
    pub recorder: &'a Recorder,
}

impl SweepDriver for SpanDriver<'_> {
    fn drive(&self, shards: Vec<SweepShard>, arena: &mut EvalArena) -> Vec<SweepSlot> {
        self.recorder
            .time("tv.sweep", || self.inner.drive(shards, arena))
    }
}
