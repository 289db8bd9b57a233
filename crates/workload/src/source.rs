//! Streaming workload sources: the open [`WorkloadSource`] trait plus the
//! two bundled source families and the composable transformers that wrap
//! them.
//!
//! A source is a **seeded, resettable, arrival-ordered stream of jobs**:
//! [`Iterator<Item = Job>`] plus [`WorkloadSource::reset`], which rewinds the
//! stream and re-derives every seed-dependent piece of state — the same
//! source instance can serve replication after replication without being
//! rebuilt. The bundled families are
//!
//! * [`SyntheticSource`] — the synthetic generator, emitting one job at a
//!   time instead of materialising the trace upfront;
//! * [`ReplaySource`] — a recorded [`crate::Trace`] re-emitted verbatim
//!   (reproducible comparisons on a fixed event sequence).
//!
//! A custom stream implements [`WorkloadSource`] itself, or registers a
//! factory with [`crate::ScenarioRegistry::register_fn`].
//!
//! Transformers ([`SourceExt`]) wrap any source without changing its type
//! discipline: [`SourceExt::scale_load`], [`SourceExt::inject_burst`],
//! [`SourceExt::tighten_deadlines`], [`SourceExt::filter_class`],
//! [`SourceExt::truncate`], [`SourceExt::merge`], [`SourceExt::renumber`]
//! and [`SourceExt::partition_slot`].
//! All transformers preserve arrival order for arrival-ordered inputs. The
//! string-addressable form of all of this lives in [`crate::scenario`].

use crate::distributions::{Exponential, LogNormal, WeightedChoice};
use crate::error::WorkloadError;
use crate::spec::{ArrivalProcess, WorkloadSpec};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use tcrm_sim::{ClusterSpec, Job, JobClass, JobId, TimeUtility};

/// A seeded, resettable, streaming producer of jobs.
///
/// Implementations emit jobs in non-decreasing arrival order (the simulator
/// clamps and counts violations, but well-formed sources never rely on
/// that). `reset(seed)` must fully re-derive every seed-dependent piece of
/// state, so the same instance replayed with the same seed produces the
/// identical stream.
pub trait WorkloadSource: Iterator<Item = Job> + Send {
    /// Rewind the stream and re-seed it. After `reset(s)` the source yields
    /// exactly the jobs a freshly built source with seed `s` would yield.
    fn reset(&mut self, seed: u64);
}

impl WorkloadSource for Box<dyn WorkloadSource> {
    fn reset(&mut self, seed: u64) {
        (**self).reset(seed)
    }
}

/// Derive the seed handed to the *right-hand* side of a [`Merge`], so the
/// two branches of a merged scenario draw from decorrelated streams while
/// staying a pure function of the caller's seed (SplitMix64 finalizer).
pub fn split_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which of `lanes` partitions the job at 0-based stream `position` belongs
/// to, under `seed`: seed XOR'd with a domain constant, one SplitMix64
/// gamma step per position, finalizer mix. The `i`-th step lands on state
/// `(seed ^ C) + (i + 1) * GAMMA`, so any position can be hashed
/// independently — which is what lets a serving-plane producer rebuild only
/// *its* lane of a source with a filter ([`Partition`]) instead of
/// materialising the whole stream.
pub fn partition_lane(seed: u64, position: u64, lanes: usize) -> usize {
    let state = (seed ^ 0xD6E8_FEB8_6659_FD93)
        .wrapping_add(position.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % lanes.max(1) as u64) as usize
}

// ---------------------------------------------------------------------------
// Synthetic
// ---------------------------------------------------------------------------

/// The incremental synthetic generator: draws one job per [`Iterator::next`]
/// call, so a trace never has to be materialised; collect it when a batch
/// is wanted.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    spec: WorkloadSpec,
    class_choice: WeightedChoice,
    work_dists: Vec<LogNormal>,
    /// Best cluster speed factor per class template (same index space as
    /// `spec.classes`).
    best_speeds: Vec<f64>,
    base_interarrival: Exponential,
    rng: StdRng,
    time: f64,
    emitted: usize,
    in_burst: bool,
    state_left: f64,
}

impl SyntheticSource {
    /// Build a source for `spec` on `cluster`, seeded with `seed`. Fails if
    /// the spec does not validate.
    pub fn new(
        spec: &WorkloadSpec,
        cluster: &ClusterSpec,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        spec.validate().map_err(WorkloadError::InvalidWorkload)?;
        // Reject anything that would make the stream emit non-finite
        // arrivals, work sizes or deadlines *before* any distribution
        // constructor can assert: one NaN in an arrival clock poisons every
        // later sample and panics `partial_cmp`-style sorts downstream.
        for c in &spec.classes {
            if !c.work_mean.is_finite() {
                return Err(WorkloadError::NonFiniteSample {
                    context: format!("work_mean of the {} class template", c.class),
                    value: c.work_mean,
                });
            }
            if c.work_cv.is_infinite() {
                return Err(WorkloadError::NonFiniteSample {
                    context: format!("work_cv of the {} class template", c.class),
                    value: c.work_cv,
                });
            }
        }
        for (name, value) in [
            ("deadline slack_min", spec.deadlines.slack_min),
            ("deadline slack_max", spec.deadlines.slack_max),
        ] {
            if !value.is_finite() {
                return Err(WorkloadError::NonFiniteSample {
                    context: name.into(),
                    value,
                });
            }
        }
        let mix = spec.class_mix();
        let capacity = cluster.work_capacity(&mix).max(1e-6);
        let mean_work = spec.mean_work().max(1e-9);
        let arrival_rate = spec.load * capacity / mean_work;
        if !arrival_rate.is_finite() {
            return Err(WorkloadError::NonFiniteSample {
                context: "arrival rate (load × capacity / mean work)".into(),
                value: arrival_rate,
            });
        }
        let mut source = SyntheticSource {
            class_choice: WeightedChoice::new(
                &spec.classes.iter().map(|c| c.weight).collect::<Vec<f64>>(),
            ),
            work_dists: spec
                .classes
                .iter()
                .map(|c| LogNormal::from_mean_cv(c.work_mean, c.work_cv))
                .collect(),
            best_speeds: spec
                .classes
                .iter()
                .map(|c| cluster.best_speed_factor(c.class))
                .collect(),
            base_interarrival: Exponential::new(arrival_rate.max(1e-9)),
            rng: StdRng::seed_from_u64(seed),
            time: 0.0,
            emitted: 0,
            in_burst: false,
            state_left: 0.0,
            spec: spec.clone(),
        };
        source.rearm(seed);
        Ok(source)
    }

    /// The spec this source draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn rearm(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.time = 0.0;
        self.emitted = 0;
        self.in_burst = false;
        self.state_left = match self.spec.arrivals {
            ArrivalProcess::Bursty { burst_period, .. } => burst_period,
            ArrivalProcess::Poisson => f64::INFINITY,
        };
    }
}

impl Iterator for SyntheticSource {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.emitted >= self.spec.num_jobs {
            return None;
        }
        let i = self.emitted;

        // Advance the arrival clock.
        let rate_multiplier = match self.spec.arrivals {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Bursty { burst_factor, .. } => {
                if self.in_burst {
                    burst_factor
                } else {
                    1.0 / burst_factor.max(1.0)
                }
            }
        };
        let gap = self.base_interarrival.sample(&mut self.rng) / rate_multiplier.max(1e-9);
        self.time += gap;
        if let ArrivalProcess::Bursty { burst_period, .. } = self.spec.arrivals {
            self.state_left -= gap;
            if self.state_left <= 0.0 {
                self.in_burst = !self.in_burst;
                self.state_left = burst_period;
            }
        }

        // Pick a class template and draw the job's parameters.
        let ci = self.class_choice.sample(&mut self.rng);
        let template = &self.spec.classes[ci];
        let work = self.work_dists[ci].sample(&mut self.rng).max(1.0);
        let min_p = self.rng.gen_range(
            template.elasticity.min_parallelism.0..=template.elasticity.min_parallelism.1,
        );
        let max_p = self
            .rng
            .gen_range(
                template.elasticity.max_parallelism.0..=template.elasticity.max_parallelism.1,
            )
            .max(min_p);
        let malleable = self
            .rng
            .gen_bool(template.elasticity.malleable_probability.clamp(0.0, 1.0));

        // Deadline: slack × best-case service time on the fastest class at
        // the maximum parallelism the job supports.
        let best_speed = self.best_speeds[ci];
        let best_case = work / (best_speed * template.speedup.speedup(max_p)).max(1e-9);
        let slack = self
            .rng
            .gen_range(self.spec.deadlines.slack_min..=self.spec.deadlines.slack_max);
        let deadline = self.time + slack * best_case;

        let job = Job::builder(JobId(i as u64), template.class)
            .arrival(self.time)
            .total_work(work)
            .demand_per_unit(template.demand_per_unit)
            .parallelism_range(min_p, max_p)
            .speedup(template.speedup)
            .deadline(deadline)
            .utility(TimeUtility::soft(
                template.utility_value,
                self.spec.deadlines.grace_fraction,
            ))
            .malleable(malleable)
            .build();
        self.emitted += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.spec.num_jobs - self.emitted;
        (remaining, Some(remaining))
    }
}

impl WorkloadSource for SyntheticSource {
    fn reset(&mut self, seed: u64) {
        self.rearm(seed);
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Re-emits a recorded job list verbatim.
///
/// The job list is shared (`Arc`), so resetting or cloning a replay of a
/// large trace never copies the jobs. Seeds are ignored: a replay is the
/// same event sequence every time, which is exactly its point.
#[derive(Clone)]
pub struct ReplaySource {
    jobs: Arc<Vec<Job>>,
    cursor: usize,
}

impl ReplaySource {
    /// Replay the jobs of a trace verbatim.
    pub fn from_trace(trace: Trace) -> Self {
        Self::from_jobs(trace.jobs)
    }

    /// Replay an explicit job list. The jobs are sorted by `(arrival, id)`
    /// once so the stream is always arrival-ordered.
    pub fn from_jobs(mut jobs: Vec<Job>) -> Self {
        // total_cmp: a NaN arrival (rejected by `load`, but this constructor
        // accepts arbitrary in-memory lists) must not panic the sort.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        ReplaySource {
            jobs: Arc::new(jobs),
            cursor: 0,
        }
    }

    /// Load a trace from disk and replay it. Every job must pass
    /// [`Job::validate`]: the engine only `debug_assert!`s it, so a corrupt
    /// trace (a NaN arrival, zero parallelism, a negative demand) would
    /// otherwise run in a release build and report a meaningless table.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, WorkloadError> {
        let path = path.as_ref();
        let trace = Trace::load(path).map_err(|e| WorkloadError::TraceIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        for job in &trace.jobs {
            job.validate()
                .map_err(|reason| WorkloadError::InvalidTraceJob {
                    path: path.display().to_string(),
                    job: job.id,
                    reason,
                })?;
        }
        Ok(Self::from_trace(trace))
    }

    /// Replay an already-shared job list without copying it (the scenario
    /// registry's trace cache hands the same `Arc` to every worker). The
    /// jobs must already be sorted by arrival — e.g. obtained from another
    /// replay via [`Self::shared_jobs`].
    pub fn from_shared(jobs: Arc<Vec<Job>>) -> Self {
        debug_assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        ReplaySource { jobs, cursor: 0 }
    }

    /// The shared (arrival-sorted) job list behind this replay.
    pub fn shared_jobs(&self) -> Arc<Vec<Job>> {
        Arc::clone(&self.jobs)
    }

    /// Number of jobs in the replayed list.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the replayed list is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl Iterator for ReplaySource {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let job = self.jobs.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.jobs.len() - self.cursor;
        (remaining, Some(remaining))
    }
}

impl WorkloadSource for ReplaySource {
    fn reset(&mut self, _seed: u64) {
        self.cursor = 0;
    }
}

// ---------------------------------------------------------------------------
// Transformers
// ---------------------------------------------------------------------------

/// Compresses (or stretches) the arrival process by `factor`: arrivals move
/// to `arrival / factor`, relative deadlines are preserved. `factor > 1`
/// raises the offered load.
pub struct ScaleLoad<S> {
    inner: S,
    factor: f64,
}

impl<S: WorkloadSource> Iterator for ScaleLoad<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.inner.next()?;
        let relative = job.deadline - job.arrival;
        job.arrival /= self.factor;
        job.deadline = job.arrival + relative;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: WorkloadSource> WorkloadSource for ScaleLoad<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }
}

/// Injects periodic bursts: time alternates between calm and burst windows
/// of mean length `period` (measured on the output clock); during a burst
/// window inter-arrival gaps are divided by `factor`. Relative deadlines are
/// preserved. The calm phase is untouched, so bursts strictly add load.
pub struct InjectBurst<S> {
    inner: S,
    factor: f64,
    period: f64,
    in_burst: bool,
    window_left: f64,
    prev_in: f64,
    out_time: f64,
}

impl<S: WorkloadSource> Iterator for InjectBurst<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.inner.next()?;
        let gap_in = (job.arrival - self.prev_in).max(0.0);
        self.prev_in = job.arrival;
        let speedup = if self.in_burst { self.factor } else { 1.0 };
        let gap_out = gap_in / speedup;
        self.out_time += gap_out;
        self.window_left -= gap_out;
        while self.window_left <= 0.0 {
            self.in_burst = !self.in_burst;
            self.window_left += self.period;
        }
        let relative = job.deadline - job.arrival;
        job.arrival = self.out_time;
        job.deadline = self.out_time + relative;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: WorkloadSource> WorkloadSource for InjectBurst<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.in_burst = false;
        self.window_left = self.period;
        self.prev_in = 0.0;
        self.out_time = 0.0;
    }
}

/// A single elevated-rate window — the `overload(2x,60s)` / `spike(10x,5s)`
/// grammar shapes. Arrivals are warped by a piecewise-linear, monotone time
/// map: output time runs identically to input time until `at`, then at
/// `factor`× speed for `window` output seconds (consuming `window * factor`
/// input seconds), then identically again — so the service observes exactly
/// `window` seconds of `factor`×-rate traffic and the stream's internal
/// spacing before and after the window is untouched (later arrivals shift
/// earlier by the consumed slack). Relative deadlines are preserved. Unlike
/// [`InjectBurst`] the map is stateless: a pure function of each arrival
/// time, so it composes deterministically under any transformer stack.
pub struct RateWindow<S> {
    inner: S,
    factor: f64,
    window: f64,
    at: f64,
}

impl<S: WorkloadSource> Iterator for RateWindow<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.inner.next()?;
        let relative = job.deadline - job.arrival;
        let t = job.arrival;
        // Input-clock span consumed by the window: `window` output seconds
        // at `factor`× speed.
        let end_in = self.at + self.window * self.factor;
        let out = if t <= self.at {
            t
        } else if t < end_in {
            self.at + (t - self.at) / self.factor
        } else {
            t - self.window * (self.factor - 1.0)
        };
        job.arrival = out;
        job.deadline = out + relative;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: WorkloadSource> WorkloadSource for RateWindow<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }
}

/// Multiplies every job's *relative* deadline by `factor` (`< 1` tightens).
pub struct TightenDeadlines<S> {
    inner: S,
    factor: f64,
}

impl<S: WorkloadSource> Iterator for TightenDeadlines<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.inner.next()?;
        let relative = job.deadline - job.arrival;
        job.deadline = job.arrival + relative * self.factor;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: WorkloadSource> WorkloadSource for TightenDeadlines<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }
}

/// Keeps only jobs of one [`JobClass`]. Compose with
/// [`SourceExt::renumber`] (the scenario registry does this automatically)
/// to restore dense ids.
pub struct FilterClass<S> {
    inner: S,
    class: JobClass,
}

impl<S: WorkloadSource> Iterator for FilterClass<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        loop {
            let job = self.inner.next()?;
            if job.class == self.class {
                return Some(job);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

impl<S: WorkloadSource> WorkloadSource for FilterClass<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }
}

/// Emits at most the first `limit` jobs of the inner stream.
pub struct Truncate<S> {
    inner: S,
    limit: usize,
    taken: usize,
}

impl<S: WorkloadSource> Iterator for Truncate<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.taken >= self.limit {
            return None;
        }
        let job = self.inner.next()?;
        self.taken += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.limit - self.taken;
        let (lower, upper) = self.inner.size_hint();
        (lower.min(left), Some(upper.map_or(left, |u| u.min(left))))
    }
}

impl<S: WorkloadSource> WorkloadSource for Truncate<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.taken = 0;
    }
}

/// Merges two arrival-ordered streams into one arrival-ordered stream (ties
/// go to the left side). Job ids of the two sides may collide — compose with
/// [`SourceExt::renumber`] (the scenario registry does) before handing the
/// merged stream to a simulator. `reset(seed)` re-seeds the left side with
/// `seed` and the right side with [`split_seed`]`(seed)`, so the two
/// branches stay decorrelated but reproducible.
pub struct Merge<A, B> {
    left: A,
    right: B,
    peek_left: Option<Job>,
    peek_right: Option<Job>,
    primed: bool,
}

impl<A: WorkloadSource, B: WorkloadSource> Iterator for Merge<A, B> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if !self.primed {
            self.peek_left = self.left.next();
            self.peek_right = self.right.next();
            self.primed = true;
        }
        let take_left = match (&self.peek_left, &self.peek_right) {
            (Some(l), Some(r)) => l.arrival <= r.arrival,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_left {
            let job = self.peek_left.take();
            self.peek_left = self.left.next();
            job
        } else {
            let job = self.peek_right.take();
            self.peek_right = self.right.next();
            job
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered =
            usize::from(self.peek_left.is_some()) + usize::from(self.peek_right.is_some());
        let (ll, lu) = self.left.size_hint();
        let (rl, ru) = self.right.size_hint();
        (
            ll + rl + buffered,
            lu.zip(ru).map(|(a, b)| a + b + buffered),
        )
    }
}

impl<A: WorkloadSource, B: WorkloadSource> WorkloadSource for Merge<A, B> {
    fn reset(&mut self, seed: u64) {
        self.left.reset(seed);
        self.right.reset(split_seed(seed));
        self.peek_left = None;
        self.peek_right = None;
        self.primed = false;
    }
}

/// Re-assigns dense job ids (`0, 1, 2, …`) in emission order, restoring the
/// unique-id invariant after [`FilterClass`] or [`Merge`].
pub struct Renumber<S> {
    inner: S,
    next_id: u64,
}

impl<S: WorkloadSource> Iterator for Renumber<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let mut job = self.inner.next()?;
        job.id = JobId(self.next_id);
        self.next_id += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: WorkloadSource> WorkloadSource for Renumber<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.next_id = 0;
    }
}

/// Keeps only the jobs whose stream *position* hashes to `slot` under
/// [`partition_lane`] — one deterministic lane of an `lanes`-way split.
///
/// The union of the `lanes` partitions of a source (re-merged by
/// `(arrival, id)`) is exactly the unpartitioned stream: every position maps
/// to exactly one lane, jobs pass through unmodified, and relative order
/// within a lane is preserved. This is how the serving plane feeds its
/// producers: `n` producer threads each rebuild the same source and wrap it
/// in `Partition` with their own `slot`, and the `(arrival, id)` merge of
/// their lanes is the unpartitioned stream.
///
/// Two seeding flavours:
/// * [`SourceExt::partition_slot`] — the hash seed **follows** [`reset`]: like
///   every other transformer, `reset(s)` re-derives all seed-dependence from
///   `s`. This is what the scenario grammar's `partition(<slot>/<lanes>)`
///   builds.
/// * [`Partition::pinned`] — the hash seed is **fixed** at construction and
///   survives `reset`: the serving plane partitions by its own session seed,
///   decoupled from the workload seed.
///
/// [`reset`]: WorkloadSource::reset
pub struct Partition<S> {
    inner: S,
    slot: usize,
    lanes: usize,
    hash_seed: u64,
    pinned: bool,
    position: u64,
}

impl<S: WorkloadSource> Partition<S> {
    /// A partition whose hash seed is fixed forever: `reset(s)` re-seeds the
    /// inner source with `s` but keeps hashing positions with `seed`.
    pub fn pinned(inner: S, slot: usize, lanes: usize, seed: u64) -> Self {
        assert!(lanes >= 1, "partition needs at least one lane");
        assert!(
            slot < lanes,
            "partition slot must be below the lane count (slots count from zero)"
        );
        Partition {
            inner,
            slot,
            lanes,
            hash_seed: seed,
            pinned: true,
            position: 0,
        }
    }
}

impl<S: WorkloadSource> Iterator for Partition<S> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        loop {
            let job = self.inner.next()?;
            let lane = partition_lane(self.hash_seed, self.position, self.lanes);
            self.position += 1;
            if lane == self.slot {
                return Some(job);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

impl<S: WorkloadSource> WorkloadSource for Partition<S> {
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.position = 0;
        if !self.pinned {
            self.hash_seed = seed;
        }
    }
}

/// Combinator sugar: wrap any [`WorkloadSource`] in a transformer. All
/// factor arguments are validated with assertions — the string-driven
/// scenario grammar (the usual entry point) validates them with proper
/// errors before ever reaching these constructors.
pub trait SourceExt: WorkloadSource + Sized {
    /// See [`ScaleLoad`]. `factor` must be finite and positive.
    fn scale_load(self, factor: f64) -> ScaleLoad<Self> {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale_load factor must be finite and positive"
        );
        ScaleLoad {
            inner: self,
            factor,
        }
    }

    /// See [`InjectBurst`]. Both arguments must be finite and positive.
    fn inject_burst(self, factor: f64, period: f64) -> InjectBurst<Self> {
        assert!(
            factor.is_finite() && factor > 0.0 && period.is_finite() && period > 0.0,
            "inject_burst factor and period must be finite and positive"
        );
        InjectBurst {
            inner: self,
            factor,
            period,
            in_burst: false,
            window_left: period,
            prev_in: 0.0,
            out_time: 0.0,
        }
    }

    /// See [`RateWindow`]. `factor` must be >= 1, `window` finite and
    /// positive, `at` finite and non-negative.
    fn rate_window(self, factor: f64, window: f64, at: f64) -> RateWindow<Self> {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "rate_window factor must be finite and >= 1"
        );
        assert!(
            window.is_finite() && window > 0.0,
            "rate_window window must be finite and positive"
        );
        assert!(
            at.is_finite() && at >= 0.0,
            "rate_window start must be finite and non-negative"
        );
        RateWindow {
            inner: self,
            factor,
            window,
            at,
        }
    }

    /// See [`TightenDeadlines`]. `factor` must be finite and positive.
    fn tighten_deadlines(self, factor: f64) -> TightenDeadlines<Self> {
        assert!(
            factor.is_finite() && factor > 0.0,
            "tighten_deadlines factor must be finite and positive"
        );
        TightenDeadlines {
            inner: self,
            factor,
        }
    }

    /// See [`FilterClass`].
    fn filter_class(self, class: JobClass) -> FilterClass<Self> {
        FilterClass { inner: self, class }
    }

    /// See [`Truncate`].
    fn truncate(self, limit: usize) -> Truncate<Self> {
        Truncate {
            inner: self,
            limit,
            taken: 0,
        }
    }

    /// See [`Merge`].
    fn merge<B: WorkloadSource>(self, right: B) -> Merge<Self, B> {
        Merge {
            left: self,
            right,
            peek_left: None,
            peek_right: None,
            primed: false,
        }
    }

    /// See [`Renumber`].
    fn renumber(self) -> Renumber<Self> {
        Renumber {
            inner: self,
            next_id: 0,
        }
    }

    /// See [`Partition`]. The hash seed starts at `seed` and follows
    /// [`WorkloadSource::reset`] thereafter. `slot` must be below `lanes`.
    fn partition_slot(self, slot: usize, lanes: usize, seed: u64) -> Partition<Self> {
        assert!(lanes >= 1, "partition needs at least one lane");
        assert!(
            slot < lanes,
            "partition slot must be below the lane count (slots count from zero)"
        );
        Partition {
            inner: self,
            slot,
            lanes,
            hash_seed: seed,
            pinned: false,
            position: 0,
        }
    }
}

impl<S: WorkloadSource> SourceExt for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn cluster() -> ClusterSpec {
        ClusterSpec::icpp_default()
    }

    fn jobs_of(source: &mut impl WorkloadSource) -> Vec<Job> {
        source.by_ref().collect()
    }

    #[test]
    fn synthetic_reset_reproduces_the_stream() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(60);
        let mut source = SyntheticSource::new(&spec, &cluster(), 9).unwrap();
        let first = jobs_of(&mut source);
        assert_eq!(first.len(), 60);
        source.reset(9);
        assert_eq!(jobs_of(&mut source), first);
        source.reset(10);
        assert_ne!(jobs_of(&mut source), first);
    }

    #[test]
    fn synthetic_rejects_invalid_specs() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(0);
        let err = SyntheticSource::new(&spec, &cluster(), 1).unwrap_err();
        assert!(matches!(err, WorkloadError::InvalidWorkload(_)));
    }

    #[test]
    fn synthetic_rejects_non_finite_parameters_with_named_error() {
        // A degenerate user-supplied distribution must fail loudly at
        // construction, not emit NaNs that poison the arrival clock.
        let mut spec = WorkloadSpec::tiny();
        spec.classes[0].work_mean = f64::INFINITY;
        let err = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 1).unwrap_err();
        assert!(
            matches!(err, WorkloadError::NonFiniteSample { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("work_mean"), "got {err}");

        let mut spec = WorkloadSpec::tiny();
        spec.classes[0].work_cv = f64::INFINITY;
        let err = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 1).unwrap_err();
        assert!(err.to_string().contains("work_cv"), "got {err}");

        let mut spec = WorkloadSpec::tiny();
        spec.deadlines.slack_max = f64::INFINITY;
        let err = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 1).unwrap_err();
        assert!(err.to_string().contains("slack_max"), "got {err}");
    }

    #[test]
    fn replay_sorts_nan_arrivals_without_panicking() {
        // from_jobs accepts arbitrary in-memory lists; a NaN arrival must
        // not panic the sort (the old partial_cmp().unwrap() did).
        let mut jobs = jobs_of(
            &mut SyntheticSource::new(
                &WorkloadSpec::tiny().with_num_jobs(5),
                &ClusterSpec::tiny(),
                3,
            )
            .unwrap(),
        );
        jobs[2].arrival = f64::NAN;
        let replay = ReplaySource::from_jobs(jobs);
        assert_eq!(replay.len(), 5);
    }

    /// Save a 30-job trace with job 7 edited by `edit`, load it back and
    /// return the rejection, checking that it names the job and the path.
    fn load_with_bad_job(name: &str, edit: impl FnOnce(&mut Job)) -> String {
        let spec = WorkloadSpec::tiny().with_num_jobs(30);
        let mut jobs = jobs_of(&mut SyntheticSource::new(&spec, &ClusterSpec::tiny(), 5).unwrap());
        let bad = jobs.iter_mut().find(|j| j.id == JobId(7)).unwrap();
        edit(bad);
        let path = std::env::temp_dir().join(format!(
            "tcrm-replay-invalid-{name}-{}.json",
            std::process::id()
        ));
        Trace::new(spec, 5, jobs).save(&path).unwrap();
        let result = ReplaySource::load(&path);
        let _ = std::fs::remove_file(&path);
        let Err(err) = result else {
            panic!("a trace with an invalid job must not load");
        };
        match &err {
            WorkloadError::InvalidTraceJob { path: p, job, .. } => {
                assert_eq!(*job, JobId(7));
                assert_eq!(p, &path.display().to_string());
            }
            other => panic!("expected InvalidTraceJob, got {other:?}"),
        }
        let message = err.to_string();
        assert!(message.contains("job-7"), "{message}");
        assert!(message.contains(&path.display().to_string()), "{message}");
        message
    }

    #[test]
    fn replay_load_rejects_zero_min_parallelism() {
        let message = load_with_bad_job("min-par", |job| job.min_parallelism = 0);
        assert!(message.contains("min_parallelism"), "{message}");
    }

    #[test]
    fn replay_load_rejects_max_parallelism_below_min() {
        let message = load_with_bad_job("max-par", |job| {
            job.min_parallelism = 3;
            job.max_parallelism = 2;
        });
        assert!(message.contains("max_parallelism"), "{message}");
    }

    #[test]
    fn replay_load_rejects_negative_demand() {
        let message = load_with_bad_job("demand", |job| job.demand_per_unit.0[0] = -1.0);
        assert!(message.contains("demand"), "{message}");
    }

    #[test]
    fn replay_load_rejects_non_positive_total_work() {
        for (name, work) in [("zero-work", 0.0), ("negative-work", -5.0)] {
            let message = load_with_bad_job(name, |job| job.total_work = work);
            assert!(message.contains("total_work"), "{message}");
        }
    }

    #[test]
    fn replay_load_rejects_deadline_before_arrival() {
        let message = load_with_bad_job("deadline", |job| job.deadline = job.arrival - 1.0);
        assert!(message.contains("deadline before arrival"), "{message}");
    }

    #[test]
    fn synthetic_size_hint_is_exact() {
        let spec = WorkloadSpec::tiny().with_num_jobs(5);
        let mut source = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 1).unwrap();
        assert_eq!(source.size_hint(), (5, Some(5)));
        source.next();
        assert_eq!(source.size_hint(), (4, Some(4)));
    }

    #[test]
    fn replay_is_verbatim_and_seed_independent() {
        let spec = WorkloadSpec::tiny().with_num_jobs(12);
        let mut synth = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 4).unwrap();
        let jobs = jobs_of(&mut synth);
        let mut replay = ReplaySource::from_jobs(jobs.clone());
        assert_eq!(jobs_of(&mut replay), jobs);
        replay.reset(999);
        assert_eq!(jobs_of(&mut replay), jobs, "seeds must not affect replay");
    }

    #[test]
    fn scale_load_compresses_arrivals() {
        let spec = WorkloadSpec::tiny().with_num_jobs(20);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &ClusterSpec::tiny(), 3).unwrap());
        let mut scaled = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 3)
            .unwrap()
            .scale_load(2.0);
        let fast = jobs_of(&mut scaled);
        assert_eq!(fast.len(), base.len());
        for (b, f) in base.iter().zip(fast.iter()) {
            assert!((f.arrival - b.arrival / 2.0).abs() < 1e-12);
            assert!((f.relative_deadline() - b.relative_deadline()).abs() < 1e-9);
        }
    }

    #[test]
    fn inject_burst_preserves_count_and_order_and_compresses_span() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(200);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &cluster(), 5).unwrap());
        let mut bursty = SyntheticSource::new(&spec, &cluster(), 5)
            .unwrap()
            .inject_burst(4.0, 30.0);
        let jobs = jobs_of(&mut bursty);
        assert_eq!(jobs.len(), base.len());
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(
            jobs.last().unwrap().arrival < base.last().unwrap().arrival,
            "bursts only compress, so the span must shrink"
        );
    }

    #[test]
    fn rate_window_compresses_head_and_preserves_relative_deadlines() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(200);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &cluster(), 5).unwrap());
        let mut overloaded = SyntheticSource::new(&spec, &cluster(), 5)
            .unwrap()
            .rate_window(2.0, 30.0, 0.0);
        let jobs = jobs_of(&mut overloaded);
        assert_eq!(jobs.len(), base.len());
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (b, j) in base.iter().zip(jobs.iter()) {
            // Input span [0, 60) maps onto [0, 30); later arrivals shift
            // earlier by the 30s the warp saved.
            let expect = if b.arrival < 60.0 {
                b.arrival / 2.0
            } else {
                b.arrival - 30.0
            };
            assert!(
                (j.arrival - expect).abs() < 1e-9,
                "{} -> {}",
                b.arrival,
                j.arrival
            );
            assert!((j.relative_deadline() - b.relative_deadline()).abs() < 1e-9);
        }
        // Gaps after the window survive unchanged.
        let after: Vec<(f64, f64)> = base
            .iter()
            .zip(jobs.iter())
            .filter(|(b, _)| b.arrival >= 60.0)
            .map(|(b, j)| (b.arrival, j.arrival))
            .collect();
        for pair in after.windows(2) {
            let base_gap = pair[1].0 - pair[0].0;
            let warped_gap = pair[1].1 - pair[0].1;
            assert!((warped_gap - base_gap).abs() < 1e-9);
        }
    }

    #[test]
    fn rate_window_with_offset_leaves_the_prefix_untouched() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(300);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &cluster(), 7).unwrap());
        let at = base[base.len() / 2].arrival;
        let mut spiked = SyntheticSource::new(&spec, &cluster(), 7)
            .unwrap()
            .rate_window(10.0, 5.0, at);
        let jobs = jobs_of(&mut spiked);
        assert_eq!(jobs.len(), base.len());
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (b, j) in base.iter().zip(jobs.iter()) {
            if b.arrival <= at {
                assert_eq!(j.arrival, b.arrival, "pre-spike arrivals must not move");
            } else if b.arrival < at + 50.0 {
                let expect = at + (b.arrival - at) / 10.0;
                assert!((j.arrival - expect).abs() < 1e-9);
            } else {
                assert!((j.arrival - (b.arrival - 45.0)).abs() < 1e-9);
            }
            assert!((j.relative_deadline() - b.relative_deadline()).abs() < 1e-9);
        }
    }

    #[test]
    fn tighten_scales_relative_deadlines_only() {
        let spec = WorkloadSpec::tiny().with_num_jobs(15);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &ClusterSpec::tiny(), 8).unwrap());
        let mut tight = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 8)
            .unwrap()
            .tighten_deadlines(0.5);
        for (b, t) in base.iter().zip(tight.by_ref()) {
            assert_eq!(t.arrival, b.arrival);
            assert!((t.relative_deadline() - b.relative_deadline() * 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn filter_truncate_and_renumber_compose() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(300);
        let mut filtered = SyntheticSource::new(&spec, &cluster(), 6)
            .unwrap()
            .filter_class(JobClass::Stream)
            .truncate(10)
            .renumber();
        let jobs = jobs_of(&mut filtered);
        assert_eq!(jobs.len(), 10);
        assert!(jobs.iter().all(|j| j.class == JobClass::Stream));
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, JobId(i as u64));
        }
        // Reset rewinds the whole stack.
        filtered.reset(6);
        assert_eq!(jobs_of(&mut filtered), jobs);
    }

    #[test]
    fn merge_interleaves_by_arrival_and_renumbers() {
        let spec_a = WorkloadSpec::tiny().with_num_jobs(25);
        let spec_b = WorkloadSpec::tiny().with_num_jobs(25).with_load(1.2);
        let a = SyntheticSource::new(&spec_a, &ClusterSpec::tiny(), 2).unwrap();
        let b = SyntheticSource::new(&spec_b, &ClusterSpec::tiny(), split_seed(2)).unwrap();
        let mut merged = a.merge(b).renumber();
        let jobs = jobs_of(&mut merged);
        assert_eq!(jobs.len(), 50);
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, JobId(i as u64));
        }
        // Reset re-derives the split seeds: the stream reproduces.
        merged.reset(2);
        assert_eq!(jobs_of(&mut merged), jobs);
    }

    #[test]
    fn partition_union_reassembles_the_stream_exactly() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(120);
        let whole = jobs_of(&mut SyntheticSource::new(&spec, &cluster(), 4).unwrap());
        for lanes in [1usize, 2, 5] {
            let mut union: Vec<Job> = Vec::new();
            for slot in 0..lanes {
                let mut lane = SyntheticSource::new(&spec, &cluster(), 4)
                    .unwrap()
                    .partition_slot(slot, lanes, 77);
                union.extend(jobs_of(&mut lane));
            }
            union.sort_by(|a, b| {
                a.arrival
                    .partial_cmp(&b.arrival)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id.cmp(&b.id))
            });
            assert_eq!(union, whole, "{lanes} lanes must reassemble the stream");
        }
    }

    #[test]
    fn partition_matches_the_closed_form_hash() {
        let spec = WorkloadSpec::tiny().with_num_jobs(60);
        let whole = jobs_of(&mut SyntheticSource::new(&spec, &ClusterSpec::tiny(), 3).unwrap());
        let expected: Vec<Job> = whole
            .iter()
            .enumerate()
            .filter(|(i, _)| partition_lane(9, *i as u64, 4) == 2)
            .map(|(_, j)| j.clone())
            .collect();
        let mut lane = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 3)
            .unwrap()
            .partition_slot(2, 4, 9);
        assert_eq!(jobs_of(&mut lane), expected);
    }

    #[test]
    fn partition_reset_follows_or_pins_the_hash_seed() {
        let spec = WorkloadSpec::tiny().with_num_jobs(40);
        // Follow-reset: reset(s) re-derives the hash seed from s, so the
        // lane of a fresh seed-11 source and a reset-to-11 source agree.
        let mut following = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 5)
            .unwrap()
            .partition_slot(1, 3, 5);
        let _ = jobs_of(&mut following);
        following.reset(11);
        let after_reset = jobs_of(&mut following);
        let mut fresh = SyntheticSource::new(&spec, &ClusterSpec::tiny(), 11)
            .unwrap()
            .partition_slot(1, 3, 11);
        assert_eq!(after_reset, jobs_of(&mut fresh));
        // Pinned: the hash seed survives reset; only the inner stream
        // re-seeds.
        let mut pinned = Partition::pinned(
            SyntheticSource::new(&spec, &ClusterSpec::tiny(), 5).unwrap(),
            1,
            3,
            5,
        );
        let _ = jobs_of(&mut pinned);
        pinned.reset(11);
        let pinned_jobs = jobs_of(&mut pinned);
        let base = jobs_of(&mut SyntheticSource::new(&spec, &ClusterSpec::tiny(), 11).unwrap());
        let expected: Vec<Job> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| partition_lane(5, *i as u64, 3) == 1)
            .map(|(_, j)| j.clone())
            .collect();
        assert_eq!(pinned_jobs, expected);
    }

    #[test]
    fn boxed_sources_remain_sources() {
        let spec = WorkloadSpec::tiny();
        let mut boxed: Box<dyn WorkloadSource> =
            Box::new(SyntheticSource::new(&spec, &ClusterSpec::tiny(), 1).unwrap());
        let first = jobs_of(&mut boxed);
        boxed.reset(1);
        assert_eq!(jobs_of(&mut boxed), first);
        // And boxed sources still compose with transformers.
        let mut truncated = boxed.truncate(3);
        truncated.reset(1);
        assert_eq!(jobs_of(&mut truncated).len(), 3);
    }
}
