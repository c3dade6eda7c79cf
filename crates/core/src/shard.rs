//! The work-stealing shard scheduler: the workspace's one worker pool, with
//! intra-case parallelism for the execution engine.
//!
//! Scheduling whole *cases* — one extracted sequence, optimized and verified
//! end-to-end on one worker — leaves a big machine idle whenever the batch is
//! dominated by one huge case (a 10k-input survivor sweep). This module makes
//! the unit of scheduling a **shard**: a case decomposes into an ordered list
//! of independent work units (Stage-3 input-range [`SweepShard`]s), and idle
//! workers steal them from a shared deque instead of waiting on the per-case
//! cursor. Callers whose cases fork no shards (the Souper/Minotaur batches,
//! the benchmark drivers) use [`ShardRuntime::run_cases`] as a plain ordered
//! parallel map.
//!
//! # Topology
//!
//! A [`ShardRuntime`] owns one shard deque and is shared by all workers of a
//! batch. Workers run whole cases off an atomic case cursor
//! ([`ShardRuntime::run_cases`]); when a case hits a decomposable step it
//! calls [`ShardRuntime::fork_join`], which enqueues the shards and then
//! *helps*: the owning worker executes queued shards (its own or any other
//! case's — shards are leaves and never block) until its group completes.
//! Workers whose case cursor is exhausted drain the deque as dedicated
//! helpers until the batch shuts down. Wall clock therefore tracks cores,
//! not the worst case.
//!
//! # Determinism and cancellation
//!
//! Scheduling never influences results: each group's slots are reassembled
//! **in shard order**, and the first-refuting-shard merge (see
//! [`lpo_tv::frozen`]) makes the merged outcome a pure function of the shard
//! list. Cancellation is monotone — task `i` may be skipped only when some
//! task `j < i` has already *cut* (reported a refutation), and every task
//! below the serial-first cut point executes and reports no finding — so
//! which shards were cancelled varies with timing, but never what the merge
//! returns. The [`ShardStats`] counters (`executed`, `stolen`,
//! `cancellations`) are observability, not results: `stolen` in particular
//! is scheduling-dependent by nature.

use lpo_tv::frozen::{SweepDriver, SweepShard, SweepSlot};
use lpo_tv::prelude::EvalArena;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

/// A snapshot of shard-scheduler accounting.
///
/// `executed` counts shards that actually ran; `stolen` the subset that ran
/// on a worker other than the one that forked them; `cancellations` shards
/// skipped because an earlier sibling already refuted. `stolen` is
/// scheduling-dependent by nature; `executed`/`cancellations` can also vary
/// by a few shards with cut-propagation timing — report them, never compare
/// them across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards executed to completion (including the refuting shard).
    pub executed: usize,
    /// Executed shards that ran on a worker other than their forker.
    pub stolen: usize,
    /// Shards skipped because an earlier sibling shard cut the group.
    pub cancellations: usize,
}

impl ShardStats {
    /// The counters accumulated since `earlier` was taken.
    pub fn since(self, earlier: ShardStats) -> ShardStats {
        ShardStats {
            executed: self.executed - earlier.executed,
            stolen: self.stolen - earlier.stolen,
            cancellations: self.cancellations - earlier.cancellations,
        }
    }

    /// Folds another snapshot's counts into this one.
    pub fn absorb(&mut self, other: ShardStats) {
        self.executed += other.executed;
        self.stolen += other.stolen;
        self.cancellations += other.cancellations;
    }
}

/// Monotone shard counters, shared by every runtime a pipeline spawns so
/// batch drivers can snapshot/delta them like the TV counters.
#[derive(Debug, Default)]
pub struct ShardCounters {
    executed: AtomicUsize,
    stolen: AtomicUsize,
    cancellations: AtomicUsize,
}

impl ShardCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current totals.
    pub fn snapshot(&self) -> ShardStats {
        ShardStats {
            executed: self.executed.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            cancellations: self.cancellations.load(Ordering::Relaxed),
        }
    }
}

/// A queued shard task: type-erased so one deque serves every group (the
/// sweep shards of different candidates and cases). Tasks are
/// *leaves*: they never enqueue more work and never block, which is what
/// makes the owner's help-loop deadlock-free.
type Task = Box<dyn FnOnce(&mut EvalArena) + Send>;

struct SharedQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Per-`fork_join` group state: the slot store, the countdown the owner
/// blocks on, and the monotone cut point for cancellation.
struct Group<R> {
    slots: Mutex<Vec<Option<ShardSlot<R>>>>,
    pending: Mutex<usize>,
    done: Condvar,
    /// Lowest task index that reported a cut; tasks above it are skipped.
    cut_at: AtomicUsize,
    owner: ThreadId,
}

/// One slot of a [`ShardRuntime::fork_join`] result, in task order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardSlot<R> {
    /// The task ran; its result.
    Executed(R),
    /// The task was skipped because an earlier sibling cut the group.
    Cancelled,
}

/// The shared work-stealing scheduler for one batch (see the module docs).
pub struct ShardRuntime {
    jobs: usize,
    queue: Mutex<SharedQueue>,
    work_ready: Condvar,
    counters: Arc<ShardCounters>,
}

impl std::fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("jobs", &self.jobs)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl ShardRuntime {
    /// Creates a runtime for `jobs` workers, accumulating into `counters`.
    pub fn new(jobs: usize, counters: Arc<ShardCounters>) -> Arc<Self> {
        Arc::new(Self {
            jobs: jobs.max(1),
            queue: Mutex::new(SharedQueue { tasks: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            counters,
        })
    }

    /// The worker count this runtime schedules for.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The runtime's shard accounting so far.
    pub fn stats(&self) -> ShardStats {
        self.counters.snapshot()
    }

    /// Runs an ordered group of shard tasks and returns their slots in task
    /// order. Each task returns `(result, cut)`; once any task reports
    /// `cut`, every not-yet-started task with a *higher* index is skipped as
    /// [`ShardSlot::Cancelled`] (lower-indexed tasks always run — that is
    /// what keeps the first-executed-result merge deterministic).
    ///
    /// With one worker (or one task) the group runs inline, in order, on the
    /// caller's arena. Otherwise the tasks go onto the shared deque and the
    /// calling worker *helps*: it executes queued tasks — its own group's or
    /// any other's, shards are leaves — and blocks on the group countdown
    /// only when the deque is empty, i.e. when every remaining sibling is
    /// already executing on some other worker.
    pub fn fork_join<R, F>(&self, arena: &mut EvalArena, tasks: Vec<F>) -> Vec<ShardSlot<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut EvalArena) -> (R, bool) + Send + 'static,
    {
        let n = tasks.len();
        if self.jobs <= 1 || n <= 1 {
            let mut slots = Vec::with_capacity(n);
            let mut cut = false;
            for task in tasks {
                if cut {
                    self.counters.cancellations.fetch_add(1, Ordering::Relaxed);
                    slots.push(ShardSlot::Cancelled);
                    continue;
                }
                let (result, this_cut) = task(arena);
                self.counters.executed.fetch_add(1, Ordering::Relaxed);
                cut |= this_cut;
                slots.push(ShardSlot::Executed(result));
            }
            return slots;
        }

        let group = Arc::new(Group::<R> {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            pending: Mutex::new(n),
            done: Condvar::new(),
            cut_at: AtomicUsize::new(usize::MAX),
            owner: std::thread::current().id(),
        });

        {
            let mut queue = self.queue.lock().expect("shard queue poisoned");
            for (index, task) in tasks.into_iter().enumerate() {
                let group = group.clone();
                let counters = self.counters.clone();
                queue.tasks.push_back(Box::new(move |arena: &mut EvalArena| {
                    let slot = if group.cut_at.load(Ordering::SeqCst) < index {
                        counters.cancellations.fetch_add(1, Ordering::Relaxed);
                        ShardSlot::Cancelled
                    } else {
                        let (result, cut) = task(arena);
                        if cut {
                            group.cut_at.fetch_min(index, Ordering::SeqCst);
                        }
                        counters.executed.fetch_add(1, Ordering::Relaxed);
                        if std::thread::current().id() != group.owner {
                            counters.stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        ShardSlot::Executed(result)
                    };
                    group.slots.lock().expect("shard slots poisoned")[index] = Some(slot);
                    // Store the slot *before* the countdown: when the owner
                    // wakes at zero, every slot is filled.
                    let mut pending = group.pending.lock().expect("shard countdown poisoned");
                    *pending -= 1;
                    if *pending == 0 {
                        group.done.notify_all();
                    }
                }));
            }
        }
        self.work_ready.notify_all();

        // Help until this group completes. Invariant: if the deque is empty,
        // every remaining task of this group has been claimed by some worker
        // that will run it to completion (tasks never block), so waiting on
        // the countdown cannot deadlock.
        loop {
            {
                let pending = group.pending.lock().expect("shard countdown poisoned");
                if *pending == 0 {
                    break;
                }
            }
            let task = self.queue.lock().expect("shard queue poisoned").tasks.pop_front();
            match task {
                Some(task) => task(arena),
                None => {
                    let pending = group.pending.lock().expect("shard countdown poisoned");
                    if *pending == 0 {
                        break;
                    }
                    drop(group.done.wait(pending).expect("shard countdown poisoned"));
                }
            }
        }

        let slots = std::mem::take(&mut *group.slots.lock().expect("shard slots poisoned"));
        slots.into_iter().map(|slot| slot.expect("completed group filled every slot")).collect()
    }

    /// Runs `case(index, arena)` for `0..cases` across the runtime's workers
    /// and returns the results in case order.
    ///
    /// Workers pull whole cases off an atomic cursor; a worker whose cursor
    /// is exhausted (including every extra worker when `jobs > cases`)
    /// becomes a *helper* and drains shard tasks forked by the still-running
    /// cases until the batch completes. With one worker everything runs
    /// inline and in order.
    pub fn run_cases<R, F>(&self, cases: usize, case: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut EvalArena) -> R + Sync,
    {
        if cases == 0 {
            return Vec::new();
        }
        if self.jobs <= 1 {
            let mut arena = EvalArena::new();
            return (0..cases).map(|index| case(index, &mut arena)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let remaining = AtomicUsize::new(cases);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..cases).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..self.jobs {
                scope.spawn(|| {
                    let mut arena = EvalArena::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= cases {
                            break;
                        }
                        let result = case(index, &mut arena);
                        slots.lock().expect("case store poisoned")[index] = Some(result);
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            // Last case done: release the helpers.
                            self.queue.lock().expect("shard queue poisoned").shutdown = true;
                            self.work_ready.notify_all();
                        }
                    }
                    // Helper mode: steal shards from cases still in flight.
                    loop {
                        let task = {
                            let mut queue = self.queue.lock().expect("shard queue poisoned");
                            loop {
                                if let Some(task) = queue.tasks.pop_front() {
                                    break Some(task);
                                }
                                if queue.shutdown {
                                    break None;
                                }
                                queue = self
                                    .work_ready
                                    .wait(queue)
                                    .expect("shard queue poisoned");
                            }
                        };
                        match task {
                            Some(task) => task(&mut arena),
                            None => break,
                        }
                    }
                });
            }
        });

        slots
            .into_inner()
            .expect("case store poisoned")
            .into_iter()
            .map(|slot| slot.expect("every case completed"))
            .collect()
    }
}

/// The work-stealing [`SweepDriver`]: Stage-3 sweep shards go through
/// [`ShardRuntime::fork_join`], a refuting shard cuts its later siblings,
/// and the slots come back in shard order for the deterministic merge in
/// `lpo-tv`.
#[derive(Clone)]
pub struct RuntimeSweepDriver {
    runtime: Arc<ShardRuntime>,
}

impl RuntimeSweepDriver {
    /// Wraps a runtime as a sweep driver.
    pub fn new(runtime: Arc<ShardRuntime>) -> Self {
        Self { runtime }
    }
}

impl SweepDriver for RuntimeSweepDriver {
    fn drive(&self, shards: Vec<SweepShard>, arena: &mut EvalArena) -> Vec<SweepSlot> {
        let tasks: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                move |arena: &mut EvalArena| {
                    let outcome = shard.run(arena);
                    let cut = outcome.refutes();
                    (outcome, cut)
                }
            })
            .collect();
        self.runtime
            .fork_join(arena, tasks)
            .into_iter()
            .map(|slot| match slot {
                ShardSlot::Executed(outcome) => SweepSlot::Executed(outcome),
                ShardSlot::Cancelled => SweepSlot::Cancelled,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(jobs: usize) -> Arc<ShardRuntime> {
        ShardRuntime::new(jobs, Arc::new(ShardCounters::new()))
    }

    #[test]
    fn fork_join_returns_slots_in_task_order() {
        for jobs in [1, 4] {
            let rt = runtime(jobs);
            let mut arena = EvalArena::new();
            let tasks: Vec<_> =
                (0..37).map(|i| move |_: &mut EvalArena| (i * 10, false)).collect();
            let slots = rt.fork_join(&mut arena, tasks);
            let values: Vec<usize> = slots
                .into_iter()
                .map(|slot| match slot {
                    ShardSlot::Executed(v) => v,
                    ShardSlot::Cancelled => panic!("nothing cut, nothing may be cancelled"),
                })
                .collect();
            assert_eq!(values, (0..37).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(rt.stats().executed, 37, "jobs {jobs}");
            assert_eq!(rt.stats().cancellations, 0);
        }
    }

    #[test]
    fn a_cut_never_cancels_lower_indices() {
        // Task 5 cuts; tasks 0..5 must all execute regardless of scheduling.
        for jobs in [1, 4] {
            for _ in 0..8 {
                let rt = runtime(jobs);
                let mut arena = EvalArena::new();
                let tasks: Vec<_> =
                    (0..32).map(|i| move |_: &mut EvalArena| (i, i == 5)).collect();
                let slots = rt.fork_join(&mut arena, tasks);
                assert_eq!(slots.len(), 32);
                for (i, slot) in slots.iter().enumerate() {
                    if i <= 5 {
                        assert_eq!(slot, &ShardSlot::Executed(i), "jobs {jobs}");
                    }
                    // Above the cut, Executed(i) and Cancelled are both legal
                    // (timing-dependent), but a wrong value never is.
                    if let ShardSlot::Executed(v) = slot {
                        assert_eq!(*v, i);
                    }
                }
                // The first executed result at-or-above any cut is task 5's.
                let stats = rt.stats();
                assert_eq!(stats.executed + stats.cancellations, 32);
            }
        }
    }

    #[test]
    fn run_cases_returns_results_in_case_order() {
        for jobs in [1, 3, 8] {
            let rt = runtime(jobs);
            let out = rt.run_cases(23, |i, _| i * 3);
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(runtime(4).run_cases(0, |i, _| i).is_empty());
    }

    #[test]
    fn helpers_steal_shards_from_a_single_case() {
        // One case, four workers: the three idle workers must be able to
        // execute the case's forked shards (this is the single-huge-case
        // scaling scenario bench-exec measures).
        let rt = runtime(4);
        let rt_ref = &rt;
        let out = rt.run_cases(1, move |_, arena| {
            let tasks: Vec<_> =
                (0..64).map(|i| move |_: &mut EvalArena| (i, false)).collect();
            let slots = rt_ref.fork_join(arena, tasks);
            slots.len()
        });
        assert_eq!(out, vec![64]);
        assert_eq!(rt.stats().executed, 64);
    }

    #[test]
    fn shard_stats_delta_and_absorb() {
        let counters = ShardCounters::new();
        counters.executed.fetch_add(10, Ordering::Relaxed);
        counters.stolen.fetch_add(3, Ordering::Relaxed);
        counters.cancellations.fetch_add(2, Ordering::Relaxed);
        let earlier = ShardStats { executed: 4, stolen: 1, cancellations: 0 };
        let delta = counters.snapshot().since(earlier);
        assert_eq!(delta, ShardStats { executed: 6, stolen: 2, cancellations: 2 });
        let mut total = earlier;
        total.absorb(delta);
        assert_eq!(total, counters.snapshot());
    }
}
