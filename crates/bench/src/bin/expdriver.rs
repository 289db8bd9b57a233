//! Experiment driver: regenerates the tables and figures of the evaluation,
//! records and replays workload traces, runs ad-hoc scenario sweeps on
//! every core, and shards grids across machines.
//!
//! ```text
//! # Tables and figures (optionally sharded across processes):
//! cargo run -p tcrm-bench --release --bin expdriver -- all --quick
//! cargo run -p tcrm-bench --release --bin expdriver -- table2 fig3 --out results
//! cargo run -p tcrm-bench --release --bin expdriver -- fig6 --full --shard 0/4
//!
//! # Record a synthetic trace, then sweep scenarios over it:
//! expdriver record-trace --out results/trace.json --jobs 400 --load 0.9 --seed 7
//! expdriver sweep --policies edf,fifo \
//!     --scenarios 'poisson;poisson+burst(3x);replay(results/trace.json)' \
//!     --loads 0.7,0.9 --seeds 1,2 --csv results/sweep.csv
//!
//! # Resume an interrupted sweep: rerun with the same checkpoint, and
//! # only the cells it does not hold are simulated:
//! expdriver sweep --policies edf,fifo --loads 0.7,0.9 --checkpoint results/sweep.json
//!
//! # Spread a grid across machines, one shard each, then combine the
//! # shard checkpoints into the full grid:
//! expdriver sweep --policies edf,fifo --shard 0/2 --checkpoint s0.json
//! expdriver merge-checkpoints --out merged.json --csv merged.csv s0.json s1.json
//!
//! # Serve a scenario through the deterministic virtual-time facade and
//! # compare shed policies under overload:
//! expdriver serve --policy edf --scenario 'poisson+overload(2x,60s)' \
//!     --queue-cap 16 --shed all --event-log results/serve.log
//! ```
//!
//! `--quick` (default) trains small agents and uses small workloads so the
//! whole suite finishes in minutes; `--full` runs the paper-scale
//! configuration. Outputs are written as `<out>/<experiment>.{md,csv}` and a
//! combined `REPORT.md`.

use std::env;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tcrm_bench::experiments::{ExperimentOutput, Lab, ALL_EXPERIMENTS};
use tcrm_bench::{cli, EvalSession, PolicyRegistry, ResultRow, ResultTable};
use tcrm_serve::{ClockMode, ServeConfig, ServeSession, ShedPolicy};
use tcrm_sim::{ClusterSpec, SimConfig};
use tcrm_workload::{ScenarioRegistry, SyntheticSource, Trace, WorkloadSpec};

fn usage() -> ! {
    eprintln!(
        "usage: expdriver <experiment ...|all> [--quick|--full] [--out <dir>] [--shard <i>/<n>]\n\
         \x20      expdriver sweep --policies <a,b,..> [--scenarios '<s1>;<s2>;..'] \\\n\
         \x20               [--loads <l1,l2,..>] [--jobs <n>] [--seeds <s1,s2,..>] \\\n\
         \x20               [--shard <i>/<n>] [--checkpoint <path>] [--csv <path>]\n\
         \x20      expdriver serve [--policy <p>] [--scenario <spec>] [--seed <s>] [--jobs <n>] \\\n\
         \x20               [--producers <n>] [--queue-cap <n>] [--shed <p1,p2,..|all>] \\\n\
         \x20               [--chunk <n>] [--mode virtual|wall] \\\n\
         \x20               [--event-log <path>] [--report <path>] [--csv <path>]\n\
         \x20      expdriver record-trace --out <path> [--jobs <n>] [--load <f>] [--seed <s>]\n\
         \x20      expdriver merge-checkpoints --out <path> [--csv <path>] <in.json> ...\n\
         \x20 experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("expdriver: {message}");
    std::process::exit(1);
}

fn parse_shard(text: &str) -> (usize, usize) {
    cli::parse_shard(text).unwrap_or_else(|e| fail(e))
}

/// `expdriver sweep`: one ad-hoc `(policy × scenario × load × seed)` grid
/// over the baseline registry, run in-process on every core, with optional
/// sharding, checkpointing and CSV output.
fn run_sweep(args: &[String]) {
    let mut policies: Vec<String> = Vec::new();
    let mut scenarios: Vec<String> = Vec::new();
    let mut loads: Vec<f64> = vec![0.9];
    let mut seeds: Vec<u64> = vec![1, 2];
    let mut jobs = 60usize;
    let mut shard = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--policies" => {
                policies = value("--policies").split(',').map(str::to_string).collect();
            }
            "--scenarios" => {
                // ';'-separated: scenario specs themselves contain commas.
                scenarios = value("--scenarios")
                    .split(';')
                    .map(str::to_string)
                    .collect();
            }
            "--loads" => {
                loads = value("--loads")
                    .split(',')
                    .map(|l| {
                        l.parse()
                            .unwrap_or_else(|_| fail(format!("bad load '{l}'")))
                    })
                    .collect();
            }
            "--seeds" => {
                seeds = value("--seeds")
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .unwrap_or_else(|_| fail(format!("bad seed '{s}'")))
                    })
                    .collect();
            }
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --jobs value"));
            }
            "--shard" => shard = Some(parse_shard(&value("--shard"))),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint"))),
            "--csv" => csv = Some(PathBuf::from(value("--csv"))),
            other => fail(format!("unknown sweep argument '{other}'")),
        }
    }
    if policies.is_empty() {
        fail("sweep needs --policies");
    }

    let registry = PolicyRegistry::with_baselines();
    let scenario_registry = ScenarioRegistry::new();
    let base = WorkloadSpec::icpp_default().with_num_jobs(jobs);
    let mut session = EvalSession::new(&registry)
        .cluster(ClusterSpec::icpp_default())
        .sim(SimConfig::default())
        .seeds(&seeds)
        .table("sweep", "ad-hoc scenario sweep", "load")
        .points(tcrm_workload::load_sweep(&base, &loads))
        .policies(policies.iter())
        .unwrap_or_else(|e| fail(e));
    if !scenarios.is_empty() {
        session = session
            .scenarios(&scenario_registry, scenarios.iter())
            .unwrap_or_else(|e| fail(e));
    }
    if let Some((index, count)) = shard {
        session = session.shard(index, count);
    }
    if let Some(path) = &checkpoint {
        session = session.checkpoint(path.clone());
    }
    // Progress heartbeat for long sweeps: at most one line per 2 s window,
    // so quick sweeps stay silent.
    let started = Instant::now();
    let last_tick = AtomicU64::new(0);
    session = session.on_row(move |_, done, total| {
        let elapsed = started.elapsed();
        let tick = elapsed.as_secs() / 2;
        if tick > 0 && tick > last_tick.swap(tick, Ordering::Relaxed) {
            let rate = done as f64 / elapsed.as_secs_f64().max(1e-9);
            eprintln!("sweep: progress {done}/{total} cells ({rate:.1} rows/s)");
        }
    });
    let report = session.run().unwrap_or_else(|e| fail(e));
    if report.stale_checkpoint {
        eprintln!(
            "sweep: checkpoint was for a different grid (fingerprint mismatch); \
             recomputed every row"
        );
    }
    eprintln!(
        "sweep: {} rows ({} resumed, {} simulated)",
        report.table.rows.len(),
        report.resumed,
        report.computed
    );
    if let Some(path) = csv {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, report.table.to_csv()).unwrap_or_else(|e| fail(e));
        eprintln!("sweep: wrote {}", path.display());
    } else {
        println!("{}", report.table.to_markdown());
    }
}

/// `expdriver serve`: run the serving facade (deterministic virtual-time
/// executor from `tcrm-serve`) over one scenario and report tail latencies,
/// queue depth and shed rates — optionally across several shed policies.
fn run_serve(args: &[String]) {
    let mut policy = String::from("edf");
    let mut scenario = String::from("poisson+overload(2x,60s)");
    let mut seed = 1u64;
    let mut jobs = 200usize;
    let mut producers = 4usize;
    let mut queue_cap = 32usize;
    let mut sheds = vec![ShedPolicy::RejectNewest];
    let mut mode = ClockMode::Virtual;
    let mut chunk = tcrm_serve::DEFAULT_CHUNK;
    let mut event_log: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--policy" => policy = value("--policy"),
            "--scenario" => scenario = value("--scenario"),
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --jobs"))
            }
            "--producers" => {
                producers = value("--producers")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --producers"))
            }
            "--queue-cap" => {
                queue_cap = value("--queue-cap")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --queue-cap"))
            }
            "--shed" => {
                let spec = value("--shed");
                sheds = if spec == "all" {
                    ShedPolicy::ALL.to_vec()
                } else {
                    spec.split(',')
                        .map(|s| s.parse().unwrap_or_else(|e| fail(e)))
                        .collect()
                };
            }
            "--mode" => {
                mode = match value("--mode").as_str() {
                    "virtual" => ClockMode::Virtual,
                    "wall" => ClockMode::Wall,
                    other => fail(format!("--mode must be 'virtual' or 'wall', got '{other}'")),
                };
            }
            "--chunk" => chunk = cli::parse_chunk(&value("--chunk")).unwrap_or_else(|e| fail(e)),
            "--event-log" => event_log = Some(PathBuf::from(value("--event-log"))),
            "--report" => report_path = Some(PathBuf::from(value("--report"))),
            "--csv" => csv = Some(PathBuf::from(value("--csv"))),
            other => fail(format!("unknown serve argument '{other}'")),
        }
    }
    let scenario_registry = ScenarioRegistry::new();
    let base = WorkloadSpec::icpp_default().with_num_jobs(jobs);
    let cluster = ClusterSpec::icpp_default();
    let make_source = || {
        scenario_registry
            .build_str(&scenario, &base, &cluster, seed)
            .unwrap_or_else(|e| fail(e))
    };
    let registry = PolicyRegistry::with_baselines();

    let mut table = ResultTable::new(
        "serve",
        format!("serving facade on '{scenario}' ({jobs} jobs, seed {seed})"),
        "queue_cap",
    );
    let mut report_md = format!("## expdriver serve — '{scenario}', policy {policy}\n\n");
    let write_out = |path: &PathBuf, contents: &str| {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, contents).unwrap_or_else(|e| fail(e));
    };
    for shed in &sheds {
        let mut scheduler = registry
            .build_str(&policy, seed)
            .unwrap_or_else(|e| fail(e));
        let config = ServeConfig {
            producers,
            channel_capacity: 64,
            chunk,
            queue_cap,
            shed_policy: *shed,
            seed,
            mode,
            ..ServeConfig::default()
        };
        let mut session = ServeSession::new(cluster.clone(), SimConfig::default(), config);
        // Progress heartbeat for long serve runs, mirroring the sweep one:
        // at most one line per 2 s window, so quick runs stay silent.
        let heartbeat_started = Instant::now();
        let mut heartbeat_tick = 0u64;
        session.on_progress(move |p| {
            let elapsed = heartbeat_started.elapsed();
            let tick = elapsed.as_secs() / 2;
            if tick > 0 && tick != heartbeat_tick {
                heartbeat_tick = tick;
                let rate = p.submitted as f64 / elapsed.as_secs_f64().max(1e-9);
                eprintln!(
                    "serve: progress t={:.1} submitted={} completed={} ({rate:.0} jobs/s)",
                    p.time, p.submitted, p.completed
                );
            }
        });
        let run = session.run_source(make_source, scheduler.as_mut());
        let t = &run.telemetry;
        eprintln!(
            "serve: {policy}@{shed} p50={:.6}s p99={:.6}s p999={:.6}s max_depth={} shed_rate={:.4}{}",
            t.decision_latency.quantile(0.5),
            t.decision_latency.quantile(0.99),
            t.decision_latency.quantile(0.999),
            t.max_queue_depth,
            t.shed_rate(),
            if run.aborted { " (aborted)" } else { "" },
        );
        table.extend(vec![ResultRow {
            scheduler: format!("{policy}@{shed}"),
            scenario: scenario.clone(),
            parameter: queue_cap as f64,
            seed,
            summary: run.summary.clone(),
        }]);
        report_md.push_str(&t.render_markdown());
        report_md.push('\n');
        if let Some(path) = &event_log {
            // One log per shed policy; a single-policy run keeps the exact
            // path (the CI determinism pin `cmp`s it between runs).
            let path = if sheds.len() == 1 {
                path.clone()
            } else {
                path.with_extension(format!("{shed}.log"))
            };
            write_out(&path, &run.event_log);
            eprintln!("serve: wrote {}", path.display());
        }
    }
    report_md.push_str(&table.to_markdown());
    if let Some(path) = &report_path {
        write_out(path, &report_md);
        eprintln!("serve: wrote {}", path.display());
    } else {
        println!("{report_md}");
    }
    if let Some(path) = &csv {
        write_out(path, &table.to_csv());
        eprintln!("serve: wrote {}", path.display());
    }
}

/// `expdriver record-trace`: generate a synthetic workload and persist it as
/// a replayable trace (`replay(<path>)` in scenario specs).
fn run_record_trace(args: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut jobs = 200usize;
    let mut load = 0.9f64;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --jobs"))
            }
            "--load" => {
                load = value("--load")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --load"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            other => fail(format!("unknown record-trace argument '{other}'")),
        }
    }
    let Some(out) = out else {
        fail("record-trace needs --out <path>");
    };
    let spec = WorkloadSpec::icpp_default()
        .with_num_jobs(jobs)
        .with_load(load);
    let source =
        SyntheticSource::new(&spec, &ClusterSpec::icpp_default(), seed).unwrap_or_else(|e| fail(e));
    let trace = Trace::new(spec, seed, source.collect());
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    trace.save(&out).unwrap_or_else(|e| fail(e));
    eprintln!(
        "record-trace: wrote {} ({} jobs, load {load}, seed {seed})",
        out.display(),
        trace.len()
    );
}

/// `expdriver merge-checkpoints`: combine shard checkpoints of one grid into
/// the full table.
fn run_merge_checkpoints(args: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--csv" => csv = Some(PathBuf::from(value("--csv"))),
            other if other.starts_with('-') => {
                fail(format!("unknown merge-checkpoints argument '{other}'"))
            }
            input => inputs.push(PathBuf::from(input)),
        }
    }
    let Some(out) = out else {
        fail("merge-checkpoints needs --out <path>");
    };
    if inputs.is_empty() {
        fail("merge-checkpoints needs at least one input checkpoint");
    }
    let tables: Vec<ResultTable> = inputs
        .iter()
        .map(|path| {
            ResultTable::load_json(path)
                .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())))
        })
        .collect();
    let merged = ResultTable::merge(tables).unwrap_or_else(|e| fail(e));
    merged.save_json(&out).unwrap_or_else(|e| fail(e));
    eprintln!(
        "merge-checkpoints: {} rows from {} checkpoints -> {}",
        merged.rows.len(),
        inputs.len(),
        out.display()
    );
    if let Some(path) = &csv {
        std::fs::write(path, merged.to_csv()).unwrap_or_else(|e| fail(e));
        eprintln!("merge-checkpoints: wrote {}", path.display());
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "sweep" => return run_sweep(&args[1..]),
        "serve" => return run_serve(&args[1..]),
        "record-trace" => return run_record_trace(&args[1..]),
        "merge-checkpoints" => return run_merge_checkpoints(&args[1..]),
        _ => {}
    }

    let mut quick = true;
    let mut out_dir = PathBuf::from("results");
    let mut shard = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--out" => {
                out_dir = PathBuf::from(iter.next().unwrap_or_else(|| usage()));
            }
            "--shard" => {
                shard = Some(parse_shard(&iter.next().unwrap_or_else(|| usage())));
            }
            "all" => experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    experiments.dedup();

    let mut lab = Lab::new(quick, &out_dir);
    // Stream sweep progress and resume statistics to stderr: interrupted
    // runs pick their shared grids back up from `<out>/main-grid-*.json`.
    lab.verbose = true;
    lab.shard = shard;
    let lab = lab;
    println!(
        "# TCRM experiment driver — mode: {}, output: {}{}",
        if quick { "quick" } else { "full" },
        out_dir.display(),
        match shard {
            Some((i, n)) => format!(", shard {i}/{n}"),
            None => String::new(),
        }
    );

    let mut report = String::from("# TCRM evaluation report\n\n");
    report.push_str(&format!(
        "Mode: **{}**. Regenerate with `cargo run -p tcrm-bench --release --bin expdriver -- all {}`.\n\n",
        if quick { "quick" } else { "full" },
        if quick { "--quick" } else { "--full" }
    ));

    let mut ran: Vec<ExperimentOutput> = Vec::new();
    for name in &experiments {
        let started = std::time::Instant::now();
        match lab.run(name) {
            Some(output) => {
                println!(
                    "== {} (done in {:.1}s) ==",
                    name,
                    started.elapsed().as_secs_f64()
                );
                println!("{}", output.markdown);
                if let Err(e) = output.write_to(&out_dir) {
                    eprintln!("warning: could not write {name}: {e}");
                }
                report.push_str(&output.markdown);
                report.push('\n');
                ran.push(output);
            }
            None => {
                eprintln!("unknown experiment '{name}' — skipping");
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(out_dir.join("REPORT.md"), &report))
    {
        eprintln!("warning: could not write REPORT.md: {e}");
    }
    println!(
        "Wrote {} experiment outputs to {}",
        ran.len(),
        out_dir.display()
    );
}
