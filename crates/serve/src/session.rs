//! The serving session: producers feed a deterministic multiplexer, the
//! engine's epoch loop drives the run with the session's hooks plugged in —
//! admission control sheds under overload, and every observable step goes
//! into a byte-reproducible event log.
//!
//! The session does not drive epochs itself: [`ServeSession::run_source`]
//! hands the engine ([`Simulator::run_service`]) an [`EpochHooks`] value
//! whose ingress is the merged producer stream, whose `on_epoch` runs
//! admission control, whose `on_action` records starts and scales, and whose
//! `after_epoch` samples telemetry. Advance, arrival buffering, decision
//! rounds, log compaction and the deadlock guard are the engine's, so with
//! admission disabled (a cap the workload never reaches) a serving run
//! reports the **identical** [`Summary`] as `Simulator::run` over the same
//! jobs — the parity pin the integration tests assert.
//!
//! # Memory model
//!
//! Producers rebuild the workload source and keep only their own slots of a
//! seeded position hash ([`tcrm_workload::partition_lane`]); the merge
//! restores `(arrival, id)` order. Peak job-holding state is bounded by the
//! pipeline, not the workload:
//! `producers × chunk × (channel_capacity + warm-up blocks) + queue_cap`
//! jobs plus the engine's running set — independent of how many arrivals
//! the run serves. Pair it with
//! [`SimConfig::bounded_metrics`](tcrm_sim::SimConfig) (which drops the
//! per-job completion log and the utilisation trace) and `log_events: false` to
//! keep a million-arrival run's footprint flat; block buffers are recycled
//! through a back-channel, so the steady-state ingest loop allocates
//! nothing after warm-up. A job vector is served by replaying it:
//! `session.run_source(|| replay.clone(), ..)` over a
//! [`tcrm_workload::ReplaySource`], which shares its jobs rather than
//! copying them per producer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Instant;

use tcrm_sim::{
    Action, ActionOutcome, ClusterSpec, ClusterView, EpochHooks, EpochKind, Job, JobClass, JobId,
    Scheduler, SimConfig, Simulator, Summary,
};
use tcrm_workload::{Partition, WorkloadSource};

use crate::events::{ServeEvent, ShedPolicy};
use crate::mux::{produce_blocks, BlockMux};
use crate::telemetry::ServeTelemetry;

/// How the executor experiences time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Deterministic virtual time: the run is a pure function of
    /// `(jobs, config, scheduler)` — byte-identical event logs, identical
    /// percentile reports, never reads the host clock.
    #[default]
    Virtual,
    /// Virtual event time plus real measurement: each decision epoch's
    /// compute time (its decision rounds, not the ingress wait or admission
    /// control) is measured with the host monotonic clock and recorded in
    /// [`ServeTelemetry::epoch_compute`]. Job-visible behaviour (event log,
    /// summary) is identical to [`ClockMode::Virtual`].
    Wall,
}

/// Serving-plane configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of producer threads feeding the session.
    pub producers: usize,
    /// Bounded capacity of each producer's channel, in blocks of `chunk`
    /// jobs (backpressure).
    pub channel_capacity: usize,
    /// Jobs per block ([`crate::mux::DEFAULT_CHUNK`] by default) — one
    /// channel rendezvous per `chunk` jobs. A transport knob only: it never
    /// changes what the engine observes.
    pub chunk: usize,
    /// Hard cap on the admission (pending) queue depth.
    pub queue_cap: usize,
    /// What to do when an arrival would push the queue past the cap.
    pub shed_policy: ShedPolicy,
    /// Seed for the producer partition (and anything else the session
    /// randomises).
    pub seed: u64,
    /// Virtual-time determinism or wall-clock measurement.
    pub mode: ClockMode,
    /// Build the canonical event-log text. `false` keeps every other
    /// observable identical but leaves
    /// [`ServeReport::event_log`] empty — the log grows O(jobs), so
    /// million-arrival runs turn it off.
    pub log_events: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            producers: 4,
            channel_capacity: 64,
            chunk: crate::mux::DEFAULT_CHUNK,
            queue_cap: 64,
            shed_policy: ShedPolicy::default(),
            seed: 0,
            mode: ClockMode::default(),
            log_events: true,
        }
    }
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The engine's run summary — comparable to the batch drivers'.
    pub summary: Summary,
    /// Tail-latency and overload telemetry.
    pub telemetry: ServeTelemetry,
    /// The canonical event log: one `seq time event` line per observable
    /// step. Byte-identical across same-seed virtual runs; empty when
    /// [`ServeConfig::log_events`] is off.
    pub event_log: String,
    /// Whether the run aborted (deadlock guard or `max_sim_time`).
    pub aborted: bool,
}

/// Live counters handed to the [`ServeSession::on_progress`] hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeProgress {
    /// Current virtual time.
    pub time: f64,
    /// Arrival epochs observed so far.
    pub submitted: u64,
    /// Completion epochs observed so far.
    pub completed: u64,
}

/// Per-job bookkeeping the session keeps outside the engine.
#[derive(Debug, Clone, Copy)]
struct JobMeta {
    class: JobClass,
    arrival: f64,
    producer: usize,
}

/// The event log: appends one canonical line per event (when enabled).
struct EventSink {
    text: String,
    seq: u64,
    enabled: bool,
}

impl EventSink {
    fn emit(&mut self, time: f64, event: ServeEvent) {
        // `{}` on f64 is shortest-roundtrip formatting: identical bits render
        // identical bytes, which is what makes the log `cmp`-able.
        if self.enabled {
            let _ = writeln!(self.text, "{} {} {}", self.seq, time, event);
        }
        self.seq += 1;
    }
}

/// Progress-hook epoch stride: frequent enough for a ≤2 s heartbeat on any
/// realistic run, rare enough to stay invisible in profiles.
const PROGRESS_STRIDE: u64 = 1024;

/// A reusable serving facade over one simulator.
///
/// [`Self::run_source`] streams arrivals straight from a workload source —
/// no materialized job vector, so memory stays bounded by the queue and
/// channel capacities however many arrivals the run serves:
///
/// ```
/// use tcrm_serve::{ServeConfig, ServeSession};
/// use tcrm_sim::prelude::*;
/// use tcrm_workload::{SyntheticSource, WorkloadSpec};
///
/// struct Greedy;
/// impl Scheduler for Greedy {
///     fn name(&self) -> &str { "greedy" }
///     fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
///         view.pending.first().map(|j| vec![Action::Start {
///             job: j.id, class: NodeClassId(0), parallelism: j.min_parallelism,
///         }]).unwrap_or_default()
///     }
/// }
///
/// let cluster = ClusterSpec::icpp_default();
/// let spec = WorkloadSpec::icpp_default().with_num_jobs(20);
/// let mut session = ServeSession::new(cluster.clone(), SimConfig::default(), ServeConfig::default());
/// let report = session.run_source(
///     || SyntheticSource::new(&spec, &cluster, 7).unwrap(),
///     &mut Greedy,
/// );
/// assert_eq!(report.summary.total_jobs, 20);
/// assert!(!report.event_log.is_empty());
/// ```
pub struct ServeSession {
    sim: Simulator,
    /// The scheduler-facing snapshot, refilled in place run after run.
    view: ClusterView,
    config: ServeConfig,
    progress: Option<Box<dyn FnMut(ServeProgress)>>,
}

impl ServeSession {
    /// Build a session over a fresh simulator.
    pub fn new(spec: ClusterSpec, sim_config: SimConfig, config: ServeConfig) -> Self {
        let sim = Simulator::new(spec, sim_config);
        Self {
            view: sim.view(),
            sim,
            config,
            progress: None,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Install a progress hook, called from the serving thread every
    /// `PROGRESS_STRIDE` (1024) epochs with live counters. Long-run drivers hang
    /// their heartbeat here; the hook observes, it cannot steer.
    pub fn on_progress(&mut self, hook: impl FnMut(ServeProgress) + 'static) {
        self.progress = Some(Box::new(hook));
    }

    /// Serve one workload **streamed** from `make_source` under `scheduler`
    /// and return the report — no intermediate `Vec<Job>` ever exists. The
    /// session (simulator and view) is reusable afterwards.
    ///
    /// Each producer thread rebuilds the source via `make_source()` and
    /// keeps only its own slots of the seeded position hash
    /// ([`tcrm_workload::Partition::pinned`] over [`ServeConfig::seed`]),
    /// then ships jobs in [`ServeConfig::chunk`]-sized recycled blocks. For
    /// the same `(seed, workload, policy)` the event log, summary and
    /// telemetry are the same for any producer count, channel capacity and
    /// chunk size.
    ///
    /// The source must yield jobs in `(arrival, id)` order with
    /// deterministic replay across rebuilds (every
    /// [`tcrm_workload::ScenarioRegistry`]-built source and every
    /// [`tcrm_workload::ReplaySource`] does); sources with an exact size
    /// hint avoid an extra counting pass for the arrival hint.
    pub fn run_source<Src, F, S>(&mut self, make_source: F, scheduler: &mut S) -> ServeReport
    where
        Src: WorkloadSource,
        F: Fn() -> Src,
        S: Scheduler + ?Sized,
    {
        // The engine's arrival hint feeds `future_arrivals` in scheduler
        // views, so it must be the exact job count. Sources with an exact
        // size hint answer for free; anything else costs one counting pass
        // over a throwaway rebuild — still O(1) memory.
        let mut probe = make_source();
        let expected = match probe.size_hint() {
            (lo, Some(hi)) if lo == hi => lo,
            _ => probe.by_ref().count(),
        };
        drop(probe);

        let config = self.config;
        let Self {
            sim,
            view,
            progress,
            ..
        } = self;
        let producers = config.producers.max(1);
        let chunk = config.chunk.max(1);
        let channel_capacity = config.channel_capacity.max(1);
        // Fresh-allocation budget per producer: every channel slot plus the
        // block being filled and the block being consumed can be in flight
        // at once. The recycle channel is sized so returning a spent buffer
        // never blocks the consumer.
        let budget = channel_capacity + 2;

        let (summary, telemetry, mut sink) = std::thread::scope(|scope| {
            let mut channels = Vec::with_capacity(producers);
            for slot in 0..producers {
                let (tx, rx) = mpsc::sync_channel(channel_capacity);
                let (recycle_tx, recycle_rx) = mpsc::sync_channel(budget + 2);
                let source = Partition::pinned(make_source(), slot, producers, config.seed);
                scope.spawn(move || produce_blocks(source, chunk, tx, recycle_rx, budget));
                channels.push((rx, recycle_tx));
            }
            let mut hooks = ServeHooks {
                feed: BlockMux::new(channels),
                // Live jobs only (pruned at completion/shed), so the capacity
                // hint is bounded: a million-arrival run does not warrant a
                // million-slot map.
                meta: HashMap::with_capacity(expected.min(4096)),
                telemetry: ServeTelemetry::new(config.shed_policy, config.queue_cap),
                sink: EventSink {
                    text: String::new(),
                    seq: 0,
                    enabled: config.log_events,
                },
                progress,
                config,
                now: 0.0,
                compute_start: None,
                submitted: 0,
                completed: 0,
                epochs: 0,
            };
            let summary = sim.run_service(&mut hooks, scheduler, view, expected);
            (summary, hooks.telemetry, hooks.sink)
        });
        let aborted = sim.is_aborted();
        sink.emit(
            sim.time(),
            ServeEvent::Finished {
                total_jobs: summary.total_jobs,
                aborted,
            },
        );
        ServeReport {
            summary,
            telemetry,
            event_log: sink.text,
            aborted,
        }
    }
}

/// The session's side of the engine's epoch loop: the merged producer
/// stream as ingress, admission control at arrival epochs, and the event
/// log, telemetry and progress hook.
struct ServeHooks<'a> {
    feed: BlockMux,
    /// Per-job bookkeeping, inserted when a job is pulled and pruned at
    /// completion/shed, so the map holds O(queue + running) entries.
    meta: HashMap<u64, JobMeta>,
    telemetry: ServeTelemetry,
    sink: EventSink,
    progress: &'a mut Option<Box<dyn FnMut(ServeProgress)>>,
    config: ServeConfig,
    /// Virtual time of the current epoch.
    now: f64,
    /// Start of the current epoch's decision rounds (wall mode only).
    compute_start: Option<Instant>,
    submitted: u64,
    completed: u64,
    epochs: u64,
}

impl EpochHooks for ServeHooks<'_> {
    fn next_arrival(&mut self) -> Option<Job> {
        let (job, producer) = self.feed.next()?;
        self.meta.insert(
            job.id.0,
            JobMeta {
                class: job.class,
                arrival: job.arrival,
                producer,
            },
        );
        Some(job)
    }

    fn unpulled(&mut self) -> usize {
        self.feed.drain()
    }

    fn on_epoch(&mut self, sim: &mut Simulator) {
        self.now = sim.time();
        match sim.last_epoch() {
            EpochKind::Arrival(id) => {
                let m = self.meta[&id.0];
                let depth = sim.pending_count();
                self.submitted += 1;
                self.telemetry.classes.submitted[m.class.index()] += 1;
                self.sink.emit(
                    self.now,
                    ServeEvent::Submitted {
                        job: id,
                        class: m.class,
                        producer: m.producer,
                        depth,
                    },
                );
                self.admission_control(sim, id, depth);
            }
            EpochKind::Completion(id) => {
                self.completed += 1;
                if let Some(m) = self.meta.remove(&id.0) {
                    self.telemetry.classes.completed[m.class.index()] += 1;
                }
                self.sink.emit(self.now, ServeEvent::Completed { job: id });
            }
            EpochKind::Periodic => {}
        }
        self.compute_start = (self.config.mode == ClockMode::Wall).then(Instant::now);
    }

    /// Translate one applied scheduler action into telemetry and events.
    fn on_action(&mut self, action: &Action, outcome: &ActionOutcome) {
        match (action, outcome) {
            (
                Action::Start {
                    job,
                    class,
                    parallelism,
                },
                ActionOutcome::Started,
            ) => {
                let m = self.meta.get(&job.0);
                let latency = m.map_or(0.0, |m| (self.now - m.arrival).max(0.0));
                self.telemetry.decision_latency.record(latency);
                if let Some(m) = m {
                    self.telemetry.classes.started[m.class.index()] += 1;
                }
                self.sink.emit(
                    self.now,
                    ServeEvent::Started {
                        job: *job,
                        class: *class,
                        parallelism: *parallelism,
                        latency,
                    },
                );
            }
            (
                Action::Scale {
                    job,
                    new_parallelism,
                },
                ActionOutcome::Scaled,
            ) => {
                self.sink.emit(
                    self.now,
                    ServeEvent::Scaled {
                        job: *job,
                        parallelism: *new_parallelism,
                    },
                );
            }
            _ => {}
        }
    }

    fn after_epoch(&mut self, sim: &Simulator) {
        if let Some(t0) = self.compute_start.take() {
            self.telemetry
                .epoch_compute
                .record(t0.elapsed().as_secs_f64());
        }
        self.telemetry.sample_depth(self.now, sim.pending_count());
        self.epochs += 1;
        if self.epochs.is_multiple_of(PROGRESS_STRIDE) {
            if let Some(hook) = self.progress.as_mut() {
                hook(ServeProgress {
                    time: self.now,
                    submitted: self.submitted,
                    completed: self.completed,
                });
            }
        }
    }
}

impl ServeHooks<'_> {
    /// Enforce the bounded admission queue at an arrival epoch. `depth` is
    /// the queue depth with the arrival already in it; on exit the depth is
    /// ≤ `queue_cap` (the bound is hard under every policy).
    fn admission_control(&mut self, sim: &mut Simulator, arrival: JobId, depth: usize) {
        let cap = self.config.queue_cap;
        let over = depth > cap;
        match self.config.shed_policy {
            ShedPolicy::RejectNewest => {
                if over {
                    self.shed(sim, arrival);
                }
            }
            ShedPolicy::RejectLatestDeadline => {
                if over {
                    let victim = sim
                        .pending_jobs()
                        .max_by(|a, b| {
                            a.deadline
                                .partial_cmp(&b.deadline)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(a.id.cmp(&b.id))
                        })
                        .map(|job| job.id)
                        .expect("queue is over cap, so it is non-empty");
                    self.shed(sim, victim);
                }
            }
            ShedPolicy::DegradeToRigid => {
                if over {
                    // The cap is hard even for the soft policy.
                    self.shed(sim, arrival);
                } else if depth * 2 > cap && sim.degrade_pending_to_rigid(arrival) {
                    if let Some(m) = self.meta.get(&arrival.0) {
                        self.telemetry.classes.degraded[m.class.index()] += 1;
                    }
                    self.sink
                        .emit(self.now, ServeEvent::Degraded { job: arrival });
                }
            }
        }
    }

    fn shed(&mut self, sim: &mut Simulator, victim: JobId) {
        if sim.cancel_pending(victim) {
            // A shed job will never complete: prune its bookkeeping now so
            // the meta map stays O(live jobs).
            if let Some(m) = self.meta.remove(&victim.0) {
                self.telemetry.classes.shed[m.class.index()] += 1;
            }
            self.sink.emit(
                self.now,
                ServeEvent::Shed {
                    job: victim,
                    policy: self.config.shed_policy,
                },
            );
        }
    }
}
