//! Decision timing from outside the program: a delegating [`Scheduler`]
//! that times each `decide` call into a shared sample sink, one that wraps
//! each `decide` in a trace span, and the order statistics the end-to-end
//! metrics are read from.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcrm_bench::PolicyFactory;
use tcrm_sim::{Action, ClusterView, Scheduler};

use crate::trace::span;

/// Samples kept per run; later samples are counted as dropped.
const SINK_CAP: usize = 1 << 22;
/// Samples a [`Timed`] scheduler buffers before taking the sink's lock.
const LOCAL_CAP: usize = 1024;
/// Measurement cycles a run keeps apart; later ones merge into the last.
const CYCLES_CAP: usize = 1 << 14;
/// Samples a cycle needs for its own quantiles: ten beyond p90.
const MIN_CYCLE_SAMPLES: usize = 100;

/// A run's decision-latency samples in ns, collected from every thread.
/// The whole capacity is reserved up front (during set-up), so recording
/// never grows the heap inside a measured run beyond the small per-scheduler
/// buffers.
#[derive(Clone)]
pub struct Sink(Arc<Mutex<SinkInner>>);

struct SinkInner {
    samples: Vec<u32>,
    dropped: u64,
    /// Samples before this index are already scaled to nominal speed.
    scaled: usize,
    /// Where each finished measurement cycle's samples end.
    cycle_ends: Vec<usize>,
}

impl Sink {
    pub fn new() -> Self {
        Sink(Arc::new(Mutex::new(SinkInner {
            samples: Vec::with_capacity(SINK_CAP),
            dropped: 0,
            scaled: 0,
            cycle_ends: Vec::with_capacity(CYCLES_CAP),
        })))
    }

    /// Close the measurement cycle the samples since the last call belong
    /// to.
    pub fn end_cycle(&self) {
        let mut inner = self.0.lock().expect("sample sink poisoned");
        let end = inner.samples.len();
        if inner.cycle_ends.len() == CYCLES_CAP {
            inner.cycle_ends.pop();
        }
        inner.cycle_ends.push(end);
    }

    /// Median over cycles of each cycle's quantile `q`, counting cycles
    /// with at least [`MIN_CYCLE_SAMPLES`] samples; the quantile of all
    /// samples when no cycle has that many. A spell of the host that slows
    /// a few cycles does not move it.
    pub fn cycle_quantile(&self, q: f64) -> f64 {
        let inner = self.0.lock().expect("sample sink poisoned");
        let mut per_cycle = Vec::with_capacity(inner.cycle_ends.len());
        let mut from = 0;
        for &to in &inner.cycle_ends {
            if to - from >= MIN_CYCLE_SAMPLES {
                let mut cycle = inner.samples[from..to].to_vec();
                cycle.sort_unstable();
                per_cycle.push(quantile(&cycle, q));
            }
            from = to;
        }
        if per_cycle.is_empty() {
            let mut all = inner.samples.clone();
            all.sort_unstable();
            return quantile(&all, q);
        }
        median(&per_cycle)
    }

    /// Scale every sample recorded since the last call by `speed`, the
    /// machine speed relative to nominal while they were taken.
    pub fn scale_unscaled(&self, speed: f64) {
        let mut inner = self.0.lock().expect("sample sink poisoned");
        let from = inner.scaled;
        for ns in &mut inner.samples[from..] {
            *ns = (*ns as f64 * speed).round().min(u32::MAX as f64) as u32;
        }
        inner.scaled = inner.samples.len();
    }

    fn extend(&self, local: &[u32]) {
        let mut inner = self.0.lock().expect("sample sink poisoned");
        let room = SINK_CAP - inner.samples.len();
        let kept = local.len().min(room);
        inner.samples.extend_from_slice(&local[..kept]);
        inner.dropped += (local.len() - kept) as u64;
    }

    /// Record one sample.
    pub fn push(&self, ns: u32) {
        self.extend(&[ns]);
    }

    /// Forget every sample (set-up and warm-up decisions).
    pub fn clear(&self) {
        let mut inner = self.0.lock().expect("sample sink poisoned");
        inner.samples.clear();
        inner.dropped = 0;
        inner.scaled = 0;
        inner.cycle_ends.clear();
    }

    /// The kept samples, sorted, and the dropped count.
    pub fn sorted(&self) -> (Vec<u32>, u64) {
        let inner = self.0.lock().expect("sample sink poisoned");
        let mut samples = inner.samples.clone();
        samples.sort_unstable();
        (samples, inner.dropped)
    }
}

/// A delegating scheduler that times every `decide` call into a [`Sink`].
pub struct Timed<S: Scheduler> {
    inner: S,
    local: Vec<u32>,
    sink: Sink,
}

impl<S: Scheduler> Timed<S> {
    pub fn new(inner: S, sink: Sink) -> Self {
        Timed {
            inner,
            local: Vec::with_capacity(LOCAL_CAP),
            sink,
        }
    }

    /// Move buffered samples to the sink.
    pub fn flush(&mut self) {
        self.sink.extend(&self.local);
        self.local.clear();
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let started = Instant::now();
        let actions = self.inner.decide(view);
        let ns = started.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        if self.local.len() == LOCAL_CAP {
            self.flush();
        }
        self.local.push(ns);
        actions
    }

    fn on_simulation_start(&mut self) {
        self.inner.on_simulation_start()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed)
    }
}

impl<S: Scheduler> Drop for Timed<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A policy factory whose schedulers are [`Timed`] wrappers around another
/// factory's, registered under the same name so result rows keep their
/// labels.
pub struct TimedFactory<F> {
    pub inner: F,
    pub sink: Sink,
}

impl<F: PolicyFactory> PolicyFactory for TimedFactory<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        Box::new(Timed::new(self.inner.build(seed), self.sink.clone()))
    }

    fn reusable(&self) -> bool {
        self.inner.reusable()
    }
}

/// A delegating scheduler that records a trace span named `name` around
/// every `decide` call.
pub struct Spanned<S: Scheduler> {
    pub name: &'static str,
    pub inner: S,
}

impl<S: Scheduler> Scheduler for Spanned<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &ClusterView) -> Vec<Action> {
        let _s = span(self.name);
        self.inner.decide(view)
    }

    fn on_simulation_start(&mut self) {
        self.inner.on_simulation_start()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed)
    }
}

/// A policy factory whose schedulers are [`Spanned`] wrappers around
/// another factory's, registered under the same name.
pub struct SpannedFactory<F> {
    pub span: &'static str,
    pub inner: F,
}

impl<F: PolicyFactory> PolicyFactory for SpannedFactory<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        Box::new(Spanned {
            name: self.span,
            inner: self.inner.build(seed),
        })
    }

    fn reusable(&self) -> bool {
        self.inner.reusable()
    }
}

/// Nearest-rank quantile of sorted samples (`q` in `(0, 1]`).
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
