//! The repository benchmark: four named TCRM workloads, each driven
//! through the public entry points of the workspace crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine_dense|serve_overload|sweep_main|train_ppo> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up several times (the median is
//! `setup_s`), then measures for `--seconds` seconds with tracing off and
//! prints the end-to-end metrics. With `--trace 1` it measures half the time
//! untraced and half traced, and prints the per-layer metrics plus the
//! tracing overhead. End-to-end times are scaled to a nominal machine speed
//! probed after every repetition (see [`calib`]). Either way the workload's
//! outputs are checked, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A failed check counts as a failed operation.

mod alloc;
mod calib;
mod engine_dense;
mod serve_overload;
mod sweep_main;
mod timing;
mod trace;
mod train_ppo;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use calib::Calibrator;
use timing::{median, quantile, Sink};

#[global_allocator]
static GLOBAL: alloc::PeakAlloc = alloc::PeakAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("decision_us_p50", "us"),
    ("decision_us_p90", "us"),
    ("peak_mib", "MiB"),
];

/// Policies whose engine layers `engine_dense` reports separately.
pub const ENGINE_POLICIES: [&str; 2] = ["edf", "greedy-elastic"];

/// The per-layer metric names without the policy suffix, for
/// `engine_dense` (one copy per entry of [`ENGINE_POLICIES`]).
const ENGINE_LAYER: [(&str, &str); 18] = [
    ("sim.advance.ns_per_call", "ns"),
    ("sim.advance.share", "ratio"),
    ("sim.view.ns_per_call", "ns"),
    ("sim.view.share", "ratio"),
    ("sim.view.rows_per_call", "rows"),
    ("baselines.decide.ns_per_call", "ns"),
    ("baselines.decide.share", "ratio"),
    ("baselines.decide.actions_per_call", "actions"),
    ("sim.apply.ns_per_call", "ns"),
    ("sim.apply.share", "ratio"),
    ("sim.apply.accept_ratio", "ratio"),
    ("sim.compact.ns_per_call", "ns"),
    ("sim.epochs.arrival", "count"),
    ("sim.epochs.completion", "count"),
    ("sim.epochs.periodic", "count"),
    ("sim.rounds", "count"),
    ("sim.actions.emitted", "count"),
    ("sim.actions.accepted", "count"),
];

/// The per-layer metrics of the other workloads, plus the tracing
/// overhead every traced run reports.
const OTHER_LAYER: [(&str, &str); 17] = [
    ("workload.source.ns_per_job", "ns"),
    ("workload.source.share", "ratio"),
    ("serve.decide.share", "ratio"),
    ("serve.loop.share", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_p99", "ms"),
    ("bench.worker_busy_share", "ratio"),
    ("core.drl_decide.ns_per_call", "ns"),
    ("rl.update.ms_per_call", "ms"),
    ("rl.update.share", "ratio"),
    ("rl.value.share", "ratio"),
    ("core.env_step.ns_per_call", "ns"),
    ("core.env_step.share", "ratio"),
    ("rl.collect_other.share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric as `(name, unit)`, the one set `BENCHMARK.json`
/// lists for all workloads. A traced run reports the whole set: a metric of
/// a layer the workload never calls reads 0 (its span never opened) and is
/// marked "not exercised" in the text lines.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for policy in ENGINE_POLICIES {
        for (name, unit) in ENGINE_LAYER {
            out.push((format!("{name}.{policy}"), unit));
        }
    }
    for (name, unit) in OTHER_LAYER {
        out.push((name.to_string(), unit));
    }
    out
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// Time budget of the untraced measurement.
    pub fn untraced_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Time budget of the traced measurement.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.5)
    }
}

/// Checks and operation counts of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed and records
    /// why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }
}

/// One measured repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Units of work done (epochs, arrivals, cells or environment steps).
    pub work: f64,
    /// Wall seconds they took.
    pub wall_s: f64,
    /// Machine speed during the repetition, relative to nominal.
    pub speed: f64,
}

/// What an untraced measurement hands back for the end-to-end metrics.
pub struct Measured {
    pub reps: Vec<Rep>,
    /// Repetitions per measurement cycle.
    pub cycle: usize,
    /// Median over repetitions of each one's peak live heap, net of what
    /// was live when it began, in bytes. Per repetition, because the
    /// engine's hash maps are seeded per process and shift allocation peaks
    /// by a whole job trace in some repetitions but not others.
    pub peak_bytes: usize,
    /// Deadline-miss ratio of the measured runs. Printed as a quality
    /// read-out, not a metric: it is a property of the seed's inputs.
    pub miss_rate: f64,
}

impl Measured {
    /// Each repetition's work per second at the nominal machine speed.
    pub fn rates(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| ratio(r.work, r.wall_s * r.speed))
            .collect()
    }

    /// Median over measurement cycles of each cycle's work per second at
    /// the nominal machine speed; a spell of the host that slows a few
    /// cycles does not move it.
    pub fn rate(&self) -> f64 {
        let per_cycle: Vec<f64> = self
            .reps
            .chunks(self.cycle)
            .map(|c| {
                let work: f64 = c.iter().map(|r| r.work).sum();
                let secs: f64 = c.iter().map(|r| r.wall_s * r.speed).sum();
                ratio(work, secs)
            })
            .collect();
        median(&per_cycle)
    }

    /// Raw wall seconds per unit of work over every repetition.
    pub fn secs_per_unit(&self) -> f64 {
        let work: f64 = self.reps.iter().map(|r| r.work).sum();
        let wall: f64 = self.reps.iter().map(|r| r.wall_s).sum();
        ratio(wall, work)
    }
}

/// Run `build` [`SETUPS`] times, keeping the last state; returns it with
/// every set-up's seconds at the nominal machine speed.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut calib = Calibrator::new();
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        let state = build();
        let wall = started.elapsed().as_secs_f64();
        times.push(wall * calib.after_interval());
        last = Some(state);
    }
    (last.expect("at least one set-up"), times)
}

/// Run `rep`, which returns the units of work it did, until `budget` has
/// passed and the repetition count is a multiple of `cycle` (at least one
/// cycle), probing the machine speed after each repetition and scaling the
/// decision samples it recorded into `sink` to the nominal speed. The
/// peak-heap window opens just before the first repetition. The caller
/// fills in `miss_rate`.
pub fn measure_for(
    budget: Duration,
    cycle: usize,
    sink: &Sink,
    mut rep: impl FnMut() -> f64,
) -> Measured {
    let mut calib = Calibrator::new();
    let mut reps = Vec::with_capacity(1024);
    let mut peaks = Vec::with_capacity(1024);
    sink.clear();
    let started = Instant::now();
    loop {
        let base = alloc::reset_peak();
        let rep_started = Instant::now();
        let work = rep();
        let wall_s = rep_started.elapsed().as_secs_f64();
        peaks.push(alloc::peak_since(base) as f64);
        let speed = calib.after_interval();
        sink.scale_unscaled(speed);
        reps.push(Rep {
            work,
            wall_s,
            speed,
        });
        if reps.len() % cycle == 0 {
            sink.end_cycle();
            if started.elapsed() >= budget {
                break;
            }
        }
    }
    Measured {
        reps,
        cycle,
        peak_bytes: median(&peaks) as usize,
        miss_rate: 0.0,
    }
}

/// FNV-1a digest of a value's `Debug` rendering (f64 `Debug` is exact, so
/// equal digests mean bit-equal summaries).
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    let text = format!("{value:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Where a traced run writes its spans: under the cargo target directory,
/// which the repository ignores.
pub fn spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{workload}.tsv"))
}

/// Write a traced phase's spans and note where they went.
pub fn save_spans(workload: &str, collected: &trace::Collected, tally: &mut Tally) {
    let path = spans_path(workload);
    match trace::write_spans(&path, collected) {
        Ok(()) => tally
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => tally
            .notes
            .push(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// The end-to-end metric values of an untraced measurement.
fn end_to_end(
    setup: &[f64],
    measured: &Measured,
    decisions: &Sink,
    notes: &mut Vec<String>,
) -> Vec<(String, f64)> {
    let (sorted, dropped) = decisions.sorted();
    let deciles: Vec<f64> = (1..10)
        .map(|d| quantile(&sorted, d as f64 / 10.0))
        .collect();
    notes.push(format!(
        "decision samples: {} kept, {dropped} dropped; deciles ns {deciles:?}, p99 ns {}; \
         setup runs: {setup:?}",
        sorted.len(),
        quantile(&sorted, 0.99),
    ));
    let quartiles = |mut v: Vec<f64>| -> Vec<f64> {
        v.sort_by(f64::total_cmp);
        [1e-9, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| quantile(&v, q))
            .collect()
    };
    let raw = measured
        .reps
        .iter()
        .map(|r| ratio(r.work, r.wall_s))
        .collect();
    let speeds = measured.reps.iter().map(|r| r.speed).collect();
    notes.push(format!(
        "{} repetitions; min/q1/median/q3/max of: rate at nominal speed {:.1?}, \
         raw wall rate {:.1?}, relative machine speed {:.3?}; miss_rate {:.6}",
        measured.reps.len(),
        quartiles(measured.rates()),
        quartiles(raw),
        quartiles(speeds),
        measured.miss_rate
    ));
    let us = |q| decisions.cycle_quantile(q) / 1e3;
    vec![
        ("setup_s".into(), median(setup)),
        ("throughput_per_s".into(), measured.rate()),
        ("decision_us_p50".into(), us(0.50)),
        // p90, not p99: on a shared host the last percent is set by the
        // host's hiccups and the deepest queue of the seed's traces, and
        // spread by up to 20% from run to run. p99 is printed in the notes.
        ("decision_us_p90".into(), us(0.90)),
        (
            "peak_mib".into(),
            measured.peak_bytes as f64 / (1024.0 * 1024.0),
        ),
    ]
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Set-up wall seconds, one per set-up.
    pub setup: Vec<f64>,
    /// The untraced measurement.
    pub measured: Measured,
    /// Decision-latency samples of the untraced measurement.
    pub decisions: Sink,
    /// Per-layer values (traced runs only).
    pub layers: Vec<(String, f64)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <engine_dense|serve_overload|sweep_main|train_ppo> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    usage();
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    (workload.unwrap_or_else(|| usage()), opts)
}

fn main() {
    let (workload, opts) = parse_args();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = tcrm_nn::Backend::active();
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={} nproc={threads} \
         nn_kernel={} (accelerated: {}, TCRM_KERNEL={})",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        backend.name(),
        backend.is_accelerated(),
        std::env::var("TCRM_KERNEL").unwrap_or_else(|_| "unset".into()),
    );
    let mut outcome = match workload.as_str() {
        "engine_dense" => engine_dense::run(opts),
        "serve_overload" => serve_overload::run(opts),
        "sweep_main" => sweep_main::run(opts),
        "train_ppo" => train_ppo::run(opts),
        _ => usage(),
    };

    let values = if opts.trace {
        let layers = std::mem::take(&mut outcome.layers);
        let mut values = Vec::new();
        for (name, unit) in per_layer_metrics() {
            let value = layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            values.push((name, value.unwrap_or(0.0), unit, value.is_some()));
        }
        for (name, _) in &layers {
            assert!(
                values.iter().any(|(n, ..)| n == name),
                "workload reported unlisted per-layer metric {name}"
            );
        }
        values
    } else {
        let e2e = end_to_end(
            &outcome.setup,
            &outcome.measured,
            &outcome.decisions,
            &mut outcome.tally.notes,
        );
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), (n, v))| {
                debug_assert_eq!(name, n);
                (name.to_string(), v, unit, true)
            })
            .collect()
    };

    let mut tally = outcome.tally;
    for note in &tally.notes {
        println!("  {note}");
    }
    let mut json = String::new();
    let mut first = true;
    for (name, value, unit, exercised) in &values {
        let mark = if *exercised { "" } else { "  (not exercised)" };
        println!("  {name:<44} {value:>16.6} {unit}{mark}");
        // JSON has no NaN or infinity: a metric that is not a finite number
        // is a failed check.
        let value = if value.is_finite() {
            *value
        } else {
            tally.check(false, || format!("{name} is not finite"));
            0.0
        };
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
    );
}
