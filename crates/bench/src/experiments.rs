//! One function per table and figure of the reconstructed evaluation.
//!
//! All experiments are driven through a [`Lab`], which owns the cluster and
//! workload configuration, lazily trains (and caches to disk) the DRL agent
//! variants, and scales every experiment down when `quick` mode is requested
//! (the integration tests and the default `expdriver` invocation use quick
//! mode; `--full` reproduces the paper-scale runs).

use crate::policy::PolicyRegistry;
use crate::results::ResultTable;
use crate::runner::{EvalReport, EvalSession};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcrm_baselines::{BASELINE_NAMES, EXTENDED_BASELINE_NAMES};
use tcrm_core::{
    train_agent, AgentConfig, DrlScheduler, LearnerKind, RewardKind, TrainConfig, TrainSetup,
};
use tcrm_rl::TrainingHistory;
use tcrm_sim::{ClusterSpec, Job, SimConfig, Simulator};
use tcrm_workload::{load_sweep, slack_sweep, SyntheticSource, WorkloadSpec};

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (`table1`, `fig3`, …).
    pub name: String,
    /// Markdown rendering (tables / series).
    pub markdown: String,
    /// CSV rendering of the underlying data.
    pub csv: String,
}

impl ExperimentOutput {
    /// Write `<out_dir>/<name>.md` and `<out_dir>/<name>.csv`.
    pub fn write_to(&self, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(out_dir.join(format!("{}.md", self.name)), &self.markdown)?;
        std::fs::write(out_dir.join(format!("{}.csv", self.name)), &self.csv)?;
        Ok(())
    }
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11",
    // summary is a derived artefact listing headline comparisons
    "summary",
];

/// The experiment laboratory: shared configuration, cached agents and cached
/// evaluation grids.
pub struct Lab {
    /// Quick mode scales every run down to seconds/minutes.
    pub quick: bool,
    /// Print sweep progress and resume statistics to stderr (the expdriver
    /// turns this on; tests leave it off).
    pub verbose: bool,
    /// Run only shard `i` of `n` of every evaluation grid (the
    /// `expdriver --shard i/n` flag). Sharded runs write per-shard
    /// checkpoints (`…-shard-i-of-n.json`) meant to be combined with
    /// `expdriver merge-checkpoints`; the rendered experiment outputs of a
    /// sharded run cover only the shard's rows.
    pub shard: Option<(usize, usize)>,
    /// Directory checkpoints and results are written to.
    pub out_dir: PathBuf,
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    sim: SimConfig,
    registry: Mutex<PolicyRegistry>,
    agents: Mutex<HashMap<String, (DrlScheduler, TrainingHistory)>>,
    main_grid: Mutex<Option<ResultTable>>,
}

impl Lab {
    /// Create a lab.
    pub fn new(quick: bool, out_dir: impl Into<PathBuf>) -> Self {
        Lab {
            quick,
            verbose: false,
            shard: None,
            out_dir: out_dir.into(),
            cluster: ClusterSpec::icpp_default(),
            workload: WorkloadSpec::icpp_default(),
            sim: SimConfig::default(),
            registry: Mutex::new(PolicyRegistry::with_baselines()),
            agents: Mutex::new(HashMap::new()),
            main_grid: Mutex::new(None),
        }
    }

    /// Override the cluster, workload family and simulator configuration
    /// (used by integration tests to shrink experiments further than quick
    /// mode does).
    pub fn with_environment(
        mut self,
        cluster: ClusterSpec,
        workload: WorkloadSpec,
        sim: SimConfig,
    ) -> Self {
        self.cluster = cluster;
        self.workload = workload;
        self.sim = sim;
        self
    }

    /// Number of jobs per evaluation run.
    fn eval_jobs(&self) -> usize {
        if self.quick {
            120
        } else {
            2000
        }
    }

    /// Replication seeds per evaluation cell.
    fn seeds(&self) -> Vec<u64> {
        if self.quick {
            vec![1, 2]
        } else {
            vec![1, 2, 3, 4, 5]
        }
    }

    /// The load grid used by the sweep figures.
    fn load_grid(&self) -> Vec<f64> {
        if self.quick {
            vec![0.5, 0.9, 1.1]
        } else {
            tcrm_workload::sweep::default_load_grid()
        }
    }

    fn train_config(&self, learner: LearnerKind, seed: u64) -> TrainConfig {
        if self.quick {
            TrainConfig {
                learner,
                iterations: 30,
                episodes_per_iteration: 4,
                jobs_per_episode: 20,
                seed,
                ..Default::default()
            }
        } else {
            TrainConfig {
                learner,
                iterations: 400,
                episodes_per_iteration: 8,
                jobs_per_episode: 50,
                seed,
                ..Default::default()
            }
        }
    }

    /// Train (or fetch from cache / checkpoint) one agent variant.
    pub fn agent(&self, key: &str) -> (DrlScheduler, TrainingHistory) {
        if let Some(found) = self.agents.lock().get(key) {
            return found.clone();
        }
        let (agent_cfg, learner) = match key {
            "drl" => (AgentConfig::default(), LearnerKind::A2c),
            "drl-rigid" => (AgentConfig::default().rigid(), LearnerKind::A2c),
            "drl-class-blind" => (
                AgentConfig::default().heterogeneity_blind(),
                LearnerKind::A2c,
            ),
            "drl-reward-miss" => (
                AgentConfig::default().with_reward(RewardKind::MissPenalty),
                LearnerKind::A2c,
            ),
            "drl-reward-slowdown" => (
                AgentConfig::default().with_reward(RewardKind::Slowdown),
                LearnerKind::A2c,
            ),
            "drl-ppo" => (AgentConfig::default(), LearnerKind::Ppo),
            "drl-reinforce" => (AgentConfig::default(), LearnerKind::Reinforce),
            other => panic!("unknown agent variant '{other}'"),
        };
        // Try the on-disk checkpoint first (training history is re-derived
        // only when an actual training run happens).
        let ckpt_dir = self.out_dir.join("agents");
        let ckpt = ckpt_dir.join(format!("{key}.json"));
        let hist_path = ckpt_dir.join(format!("{key}.history.json"));
        if ckpt.exists() {
            if let Ok(agent) = DrlScheduler::load(&ckpt) {
                let history: TrainingHistory = std::fs::read_to_string(&hist_path)
                    .ok()
                    .and_then(|s| serde_json::from_str(&s).ok())
                    .unwrap_or_default();
                let pair = (agent.with_name(key.to_string()), history);
                self.agents.lock().insert(key.to_string(), pair.clone());
                return pair;
            }
        }
        let setup = TrainSetup {
            cluster: self.cluster.clone(),
            workload: self.workload.clone(),
            sim: self.sim.clone(),
            agent: agent_cfg,
            train: self.train_config(learner, 7),
        };
        let outcome = train_agent(&setup);
        let agent = outcome.agent.with_name(key.to_string());
        let _ = std::fs::create_dir_all(&ckpt_dir);
        let _ = agent.save(&ckpt);
        let _ = std::fs::write(
            &hist_path,
            serde_json::to_string(&outcome.history).unwrap_or_default(),
        );
        let pair = (agent, outcome.history);
        self.agents.lock().insert(key.to_string(), pair.clone());
        pair
    }

    fn workload_at(&self, load: f64) -> WorkloadSpec {
        self.workload
            .clone()
            .with_num_jobs(self.eval_jobs())
            .with_load(load)
    }

    /// Materialise one workload through the streaming source API (the
    /// experiments that drive `Simulator::run` directly need a `Vec`).
    fn jobs(&self, workload: &WorkloadSpec, cluster: &ClusterSpec, seed: u64) -> Vec<Job> {
        SyntheticSource::new(workload, cluster, seed)
            .expect("lab workloads validate")
            .collect()
    }

    /// Train (or load) the agent variant `key` and make sure the policy
    /// registry can resolve it by name, so experiment policy lists can mix
    /// baselines and DRL variants freely.
    fn registered_agent(&self, key: &str) -> (DrlScheduler, TrainingHistory) {
        let pair = self.agent(key);
        let mut registry = self.registry.lock();
        if !registry.contains(key) {
            registry
                .register_drl(pair.0.clone())
                .expect("agent keys are grammar-clean and unique");
        }
        pair
    }

    /// Run one evaluation sweep over `policies × points × seeds` through the
    /// registry, with the lab's cluster/engine configuration and optional
    /// verbose progress reporting.
    fn sweep(
        &self,
        experiment: &str,
        caption: &str,
        parameter_name: &str,
        policies: &[&str],
        points: Vec<(f64, WorkloadSpec)>,
        checkpoint: Option<PathBuf>,
    ) -> ResultTable {
        let registry = self.registry.lock();
        let mut session = EvalSession::new(&registry)
            .cluster(self.cluster.clone())
            .sim(self.sim.clone())
            .seeds(&self.seeds())
            .table(experiment, caption, parameter_name)
            .points(points)
            .policies(policies.iter().copied())
            .unwrap_or_else(|e| panic!("{experiment}: {e}"));
        // Sharded runs compute their slice of the grid into a per-shard
        // checkpoint; `merge-checkpoints` reassembles the full grid.
        let checkpoint = match (self.shard, checkpoint) {
            (Some((index, count)), Some(path)) => {
                session = session.shard(index, count);
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                Some(path.with_file_name(format!("{stem}-shard-{index}-of-{count}.json")))
            }
            (Some((index, count)), None) => {
                session = session.shard(index, count);
                None
            }
            (None, path) => path,
        };
        if self.verbose {
            let label = experiment.to_string();
            session = session.on_row(move |row, done, total| {
                if done % 8 == 0 || done == total {
                    eprintln!(
                        "  [{label}] {done}/{total} rows (last: {} @ {:.2}, seed {})",
                        row.scheduler, row.parameter, row.seed
                    );
                }
            });
        }
        if let Some(path) = checkpoint {
            session = session.checkpoint(path);
        }
        let EvalReport {
            table,
            computed,
            resumed,
            stale_checkpoint,
        } = session
            .run()
            .unwrap_or_else(|e| panic!("{experiment}: {e}"));
        if stale_checkpoint {
            eprintln!(
                "  [{experiment}] checkpoint was for a different grid; recomputed from scratch"
            );
        }
        if self.verbose && resumed > 0 {
            eprintln!("  [{experiment}] resumed {resumed} cached rows, simulated {computed}");
        }
        table
    }

    /// All comparison policies: the seven baselines plus the main DRL agent.
    fn comparison_policies(&self) -> Vec<&'static str> {
        self.registered_agent("drl");
        let mut policies: Vec<&'static str> = BASELINE_NAMES.to_vec();
        policies.push("drl");
        policies
    }

    /// The shared load-sweep grid over all comparison schedulers (used by
    /// Table 2/3 and Figures 3/4). Checkpointed to
    /// `<out_dir>/main-grid-{quick,full}.json`, so an interrupted run resumes
    /// from the completed rows.
    fn main_grid(&self) -> ResultTable {
        if let Some(table) = self.main_grid.lock().as_ref() {
            return table.clone();
        }
        let policies = self.comparison_policies();
        let points: Vec<(f64, WorkloadSpec)> = load_sweep(
            &self.workload.clone().with_num_jobs(self.eval_jobs()),
            &self.load_grid(),
        );
        // Quick and full grids resume from separate checkpoints: their rows
        // share (scheduler, load, seed) keys but not workload scale.
        let mode = if self.quick { "quick" } else { "full" };
        let checkpoint = self.out_dir.join(format!("main-grid-{mode}.json"));
        let table = self.sweep(
            "main-grid",
            "All schedulers across offered load",
            "load",
            &policies,
            points,
            Some(checkpoint),
        );
        *self.main_grid.lock() = Some(table.clone());
        table
    }

    // ------------------------------------------------------------------
    // Individual experiments
    // ------------------------------------------------------------------

    /// Table 1: cluster and workload configuration (static description).
    pub fn table1(&self) -> ExperimentOutput {
        let mut md = String::from("### table1 — Cluster and workload configuration\n\n");
        md.push_str("| node class | count | cpu | mem (GiB) | gpu | io (Gbit/s) | speed batch/stream/ml-train/ml-infer |\n|---|---|---|---|---|---|---|\n");
        let mut csv =
            String::from("node_class,count,cpu,mem,gpu,io,s_batch,s_stream,s_mltrain,s_mlinfer\n");
        for class in &self.cluster.node_classes {
            let c = class.capacity.as_array();
            let s = class.speed.as_array();
            md.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {:.1} / {:.1} / {:.1} / {:.1} |\n",
                class.name, class.count, c[0], c[1], c[2], c[3], s[0], s[1], s[2], s[3]
            ));
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                class.name, class.count, c[0], c[1], c[2], c[3], s[0], s[1], s[2], s[3]
            ));
        }
        md.push_str("\n| job class | mix | mean work | cpu/unit | mem/unit | gpu/unit | utility |\n|---|---|---|---|---|---|---|\n");
        csv.push_str("job_class,mix,work_mean,cpu,mem,gpu,utility\n");
        for t in &self.workload.classes {
            let d = t.demand_per_unit.as_array();
            md.push_str(&format!(
                "| {} | {:.0}% | {:.0} | {} | {} | {} | {:.1} |\n",
                t.class,
                t.weight * 100.0,
                t.work_mean,
                d[0],
                d[1],
                d[2],
                t.utility_value
            ));
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                t.class, t.weight, t.work_mean, d[0], d[1], d[2], t.utility_value
            ));
        }
        md.push_str(&format!(
            "\nDeadline slack ∈ [{:.1}, {:.1}] × best-case service time; load sweep {:?}.\n",
            self.workload.deadlines.slack_min,
            self.workload.deadlines.slack_max,
            self.load_grid()
        ));
        ExperimentOutput {
            name: "table1".into(),
            markdown: md,
            csv,
        }
    }

    /// Table 2: deadline-miss rate per scheduler at moderate and high load.
    pub fn table2(&self) -> ExperimentOutput {
        let grid = self.main_grid();
        let loads = self.table_loads();
        let mut table = ResultTable::new(
            "table2",
            format!("Deadline-miss rate at load {:?}", loads),
            "load",
        );
        table.extend(
            grid.rows
                .iter()
                .filter(|r| loads.iter().any(|l| (r.parameter - l).abs() < 1e-9))
                .cloned()
                .collect(),
        );
        ExperimentOutput {
            name: "table2".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    fn table_loads(&self) -> Vec<f64> {
        let grid = self.load_grid();
        // Moderate and high load points present in the grid.
        let moderate = grid
            .iter()
            .cloned()
            .min_by(|a, b| (a - 0.7).abs().partial_cmp(&(b - 0.7).abs()).unwrap())
            .unwrap();
        let high = grid
            .iter()
            .cloned()
            .min_by(|a, b| (a - 1.1).abs().partial_cmp(&(b - 1.1).abs()).unwrap())
            .unwrap();
        vec![moderate, high]
    }

    /// Table 3: slowdown and time-utility per scheduler (moderate load).
    pub fn table3(&self) -> ExperimentOutput {
        let grid = self.main_grid();
        let load = self
            .load_grid()
            .iter()
            .cloned()
            .min_by(|a, b| (a - 0.9).abs().partial_cmp(&(b - 0.9).abs()).unwrap())
            .unwrap();
        let mut table = ResultTable::new(
            "table3",
            format!("Slowdown and utility ratio at load {load}"),
            "load",
        );
        table.extend(
            grid.rows
                .iter()
                .filter(|r| (r.parameter - load).abs() < 1e-9)
                .cloned()
                .collect(),
        );
        ExperimentOutput {
            name: "table3".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Table 4: decision latency per scheduler vs cluster size, plus agent
    /// model size.
    pub fn table4(&self) -> ExperimentOutput {
        let scales: Vec<f64> = if self.quick {
            vec![1.0, 2.0]
        } else {
            vec![1.0, 2.0, 4.0, 8.0]
        };
        let (agent, _) = self.registered_agent("drl");
        let mut md = String::from(
            "### table4 — Mean decision latency (µs per decision epoch)\n\n| scheduler | nodes | mean latency (µs) | decisions |\n|---|---|---|---|\n",
        );
        let mut csv = String::from("scheduler,nodes,mean_latency_us,decisions\n");
        let registry = self.registry.lock();
        for scale in &scales {
            let cluster = ClusterSpec::icpp_scaled(*scale);
            let nodes = cluster.num_nodes();
            let workload = self
                .workload
                .clone()
                .with_num_jobs(if self.quick { 80 } else { 400 })
                .with_load(0.9);
            for policy in ["edf", "tetris", "greedy-elastic", "drl"] {
                let jobs = self.jobs(&workload, &cluster, 11);
                let mut scheduler = registry.build_str(policy, 11).expect("policy registered");
                let start = Instant::now();
                let result =
                    Simulator::new(cluster.clone(), self.sim.clone()).run(jobs, &mut scheduler);
                let elapsed = start.elapsed();
                let decisions = result.summary.decision_epochs.max(1);
                let latency_us = elapsed.as_secs_f64() * 1e6 / decisions as f64;
                md.push_str(&format!(
                    "| {policy} | {nodes} | {latency_us:.1} | {decisions} |\n"
                ));
                csv.push_str(&format!("{policy},{nodes},{latency_us:.3},{decisions}\n"));
            }
        }
        md.push_str(&format!(
            "\nPolicy network parameters: {}; observation dim {}, action count {}.\n",
            agent.policy().network().num_parameters(),
            agent.policy().observation_dim(),
            agent.policy().action_count()
        ));
        ExperimentOutput {
            name: "table4".into(),
            markdown: md,
            csv,
        }
    }

    /// Table 5: extended heuristic comparison — the headline baselines plus
    /// the EASY-backfill, HEFT and slack-pack heuristics — at moderate load.
    pub fn table5(&self) -> ExperimentOutput {
        let load = self
            .load_grid()
            .iter()
            .cloned()
            .min_by(|a, b| (a - 0.9).abs().partial_cmp(&(b - 0.9).abs()).unwrap())
            .unwrap();
        self.registered_agent("drl");
        let mut policies: Vec<&str> = BASELINE_NAMES
            .iter()
            .chain(EXTENDED_BASELINE_NAMES.iter())
            .copied()
            .collect();
        policies.push("drl");
        let table = self.sweep(
            "table5",
            &format!(
                "Extended heuristic comparison (incl. backfill / HEFT / slack-pack) at load {load}"
            ),
            "load",
            &policies,
            vec![(load, self.workload_at(load))],
            None,
        );
        ExperimentOutput {
            name: "table5".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 10: energy and fairness per scheduler at moderate load. Energy
    /// uses the per-class utilisation-proportional power models of the
    /// cluster spec; fairness is the Jain index over completed-job slowdowns.
    pub fn fig10(&self) -> ExperimentOutput {
        let load = self
            .load_grid()
            .iter()
            .cloned()
            .min_by(|a, b| (a - 0.9).abs().partial_cmp(&(b - 0.9).abs()).unwrap())
            .unwrap();
        let workload = self.workload_at(load);
        self.registered_agent("drl");
        let policies = ["drl", "edf", "greedy-elastic", "backfill", "tetris", "fifo"];
        let mut md = String::from(
            "### fig10 — Energy and fairness per scheduler (load ≈ 0.9)\n\n| scheduler | energy (kWh) | mean power (kW) | kJ / completed job | slowdown fairness (Jain) | miss rate |\n|---|---|---|---|---|---|\n",
        );
        let mut csv = String::from(
            "scheduler,seed,total_kwh,mean_watts,joules_per_job,slowdown_fairness,miss_rate,utility_ratio\n",
        );
        let registry = self.registry.lock();
        for policy in policies {
            let mut kwh = Vec::new();
            let mut watts = Vec::new();
            let mut per_job = Vec::new();
            let mut fairness = Vec::new();
            let mut miss = Vec::new();
            for &seed in &self.seeds() {
                let jobs = self.jobs(&workload, &self.cluster, seed);
                let mut scheduler = registry.build_str(policy, seed).expect("policy registered");
                let result = Simulator::new(self.cluster.clone(), self.sim.clone())
                    .run(jobs, &mut scheduler);
                let energy = result
                    .trace
                    .energy_report(&self.cluster, result.summary.completed_jobs);
                csv.push_str(&format!(
                    "{},{},{:.6},{:.1},{:.1},{:.4},{:.4},{:.4}\n",
                    policy,
                    seed,
                    energy.total_kwh,
                    energy.mean_watts(),
                    energy.joules_per_completed_job,
                    result.summary.slowdown_fairness,
                    result.summary.miss_rate,
                    result.summary.utility_ratio
                ));
                kwh.push(energy.total_kwh);
                watts.push(energy.mean_watts());
                per_job.push(energy.joules_per_completed_job);
                fairness.push(result.summary.slowdown_fairness);
                miss.push(result.summary.miss_rate);
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            md.push_str(&format!(
                "| {} | {:.3} | {:.2} | {:.1} | {:.3} | {:.1}% |\n",
                policy,
                mean(&kwh),
                mean(&watts) / 1000.0,
                mean(&per_job) / 1000.0,
                mean(&fairness),
                mean(&miss) * 100.0
            ));
        }
        md.push_str(
            "\nEnergy integrates each node class's utilisation-proportional power model over the run; idle machines still draw idle power, so schedulers that finish the workload sooner or keep fast classes busier spend fewer joules per completed job.\n",
        );
        ExperimentOutput {
            name: "fig10".into(),
            markdown: md,
            csv,
        }
    }

    /// Figure 2: training convergence of the DRL agent.
    pub fn fig2(&self) -> ExperimentOutput {
        let (_, history) = self.agent("drl");
        let mut md = String::from(
            "### fig2 — Training convergence (episode return per iteration)\n\n| iteration | mean return | min | max | entropy | policy loss |\n|---|---|---|---|---|---|\n",
        );
        let mut csv =
            String::from("iteration,mean_return,min_return,max_return,entropy,policy_loss,value_loss,mean_length\n");
        for s in &history.iterations {
            md.push_str(&format!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.3} | {:.4} |\n",
                s.iteration,
                s.mean_return,
                s.min_return,
                s.max_return,
                s.update.entropy,
                s.update.policy_loss
            ));
            csv.push_str(&format!(
                "{},{:.4},{:.4},{:.4},{:.4},{:.6},{:.6},{:.2}\n",
                s.iteration,
                s.mean_return,
                s.min_return,
                s.max_return,
                s.update.entropy,
                s.update.policy_loss,
                s.update.value_loss,
                s.mean_length
            ));
        }
        md.push_str(&format!(
            "\nFinal mean return (last 5 iterations): {:.2}; best iteration: {:.2}.\n",
            history.final_mean_return(5),
            history.best_mean_return()
        ));
        ExperimentOutput {
            name: "fig2".into(),
            markdown: md,
            csv,
        }
    }

    /// Figure 3: deadline-miss rate vs offered load, all schedulers.
    pub fn fig3(&self) -> ExperimentOutput {
        let grid = self.main_grid();
        let mut table = grid.clone();
        table.experiment = "fig3".into();
        table.caption = "Deadline-miss rate vs offered load".into();
        ExperimentOutput {
            name: "fig3".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 4: mean bounded slowdown vs offered load, all schedulers.
    pub fn fig4(&self) -> ExperimentOutput {
        let grid = self.main_grid();
        let mut table = grid.clone();
        table.experiment = "fig4".into();
        table.caption = "Mean bounded slowdown vs offered load".into();
        ExperimentOutput {
            name: "fig4".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 5: per-class utilisation timeline, DRL vs EDF, at load 0.9.
    pub fn fig5(&self) -> ExperimentOutput {
        let workload = self.workload_at(0.9);
        self.registered_agent("drl");
        let mut md = String::from(
            "### fig5 — Cluster utilisation timeline (load 0.9)\n\n| scheduler | mean overall util | mean cpu-heavy | mean mem-heavy | mean gpu | mean edge |\n|---|---|---|---|---|---|\n",
        );
        let mut csv =
            String::from("scheduler,time,overall,cpu_heavy,mem_heavy,gpu,edge,pending,running\n");
        let registry = self.registry.lock();
        for policy in ["drl", "edf"] {
            let jobs = self.jobs(&workload, &self.cluster, 21);
            let mut scheduler = registry.build_str(policy, 21).expect("policy registered");
            let result =
                Simulator::new(self.cluster.clone(), self.sim.clone()).run(jobs, &mut scheduler);
            for sample in &result.trace.samples {
                let class_means: Vec<f64> = sample
                    .per_class
                    .iter()
                    .map(|v| {
                        let nz: Vec<f64> = v.0.iter().cloned().filter(|x| *x > 0.0).collect();
                        if nz.is_empty() {
                            0.0
                        } else {
                            nz.iter().sum::<f64>() / nz.len() as f64
                        }
                    })
                    .collect();
                csv.push_str(&format!(
                    "{},{:.1},{:.4},{:.4},{:.4},{:.4},{:.4},{},{}\n",
                    policy,
                    sample.time,
                    sample.overall,
                    class_means.first().copied().unwrap_or(0.0),
                    class_means.get(1).copied().unwrap_or(0.0),
                    class_means.get(2).copied().unwrap_or(0.0),
                    class_means.get(3).copied().unwrap_or(0.0),
                    sample.pending,
                    sample.running
                ));
            }
            md.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                policy,
                result.trace.mean_overall(),
                result.trace.mean_class_overall(0),
                result.trace.mean_class_overall(1),
                result.trace.mean_class_overall(2),
                result.trace.mean_class_overall(3),
            ));
        }
        ExperimentOutput {
            name: "fig5".into(),
            markdown: md,
            csv,
        }
    }

    /// Figure 6: elasticity ablation across load.
    pub fn fig6(&self) -> ExperimentOutput {
        self.registered_agent("drl");
        self.registered_agent("drl-rigid");
        let points = load_sweep(
            &self.workload.clone().with_num_jobs(self.eval_jobs()),
            &self.load_grid(),
        );
        let table = self.sweep(
            "fig6",
            "Elasticity ablation: elastic vs rigid allocation across load",
            "load",
            &[
                "drl",
                "drl-rigid",
                "greedy-elastic",
                "greedy-elastic+rigid",
                "edf",
            ],
            points,
            None,
        );
        ExperimentOutput {
            name: "fig6".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 7: heterogeneity ablation at load 0.9.
    pub fn fig7(&self) -> ExperimentOutput {
        self.registered_agent("drl");
        self.registered_agent("drl-class-blind");
        let table = self.sweep(
            "fig7",
            "Heterogeneity ablation: class-aware vs class-blind state/action (load 0.9)",
            "load",
            &["drl", "drl-class-blind", "edf", "least-loaded"],
            vec![(0.9, self.workload_at(0.9))],
            None,
        );
        ExperimentOutput {
            name: "fig7".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 8: sensitivity to deadline tightness (slack factor sweep).
    pub fn fig8(&self) -> ExperimentOutput {
        self.registered_agent("drl");
        let slacks: Vec<f64> = if self.quick {
            vec![1.2, 2.0, 3.0]
        } else {
            tcrm_workload::sweep::default_slack_grid()
        };
        let base = self
            .workload
            .clone()
            .with_num_jobs(self.eval_jobs())
            .with_load(0.9);
        let table = self.sweep(
            "fig8",
            "Sensitivity to deadline tightness (slack factor, load 0.9)",
            "slack",
            &["drl", "edf", "greedy-elastic", "fifo"],
            slack_sweep(&base, &slacks),
            None,
        );
        ExperimentOutput {
            name: "fig8".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 9: reward-shaping ablation at load 0.9.
    pub fn fig9(&self) -> ExperimentOutput {
        self.registered_agent("drl");
        self.registered_agent("drl-reward-miss");
        self.registered_agent("drl-reward-slowdown");
        let table = self.sweep(
            "fig9",
            "Reward-shaping ablation (utility vs miss-penalty vs slowdown, load 0.9)",
            "load",
            &["drl", "drl-reward-miss", "drl-reward-slowdown", "edf"],
            vec![(0.9, self.workload_at(0.9))],
            None,
        );
        ExperimentOutput {
            name: "fig9".into(),
            markdown: table.to_markdown(),
            csv: table.to_csv(),
        }
    }

    /// Figure 11: learner ablation — the same scheduling MDP trained with
    /// A2C (the default), PPO and REINFORCE, evaluated at moderate load and
    /// compared on both final policy quality and training convergence.
    pub fn fig11(&self) -> ExperimentOutput {
        let variants = [
            ("a2c", "drl"),
            ("ppo", "drl-ppo"),
            ("reinforce", "drl-reinforce"),
        ];
        let load = self
            .load_grid()
            .iter()
            .cloned()
            .min_by(|a, b| (a - 0.9).abs().partial_cmp(&(b - 0.9).abs()).unwrap())
            .unwrap();
        let points = vec![(load, self.workload_at(load))];

        // Evaluation table.
        let mut policies: Vec<&str> = Vec::new();
        for (_, key) in variants {
            self.registered_agent(key);
            policies.push(key);
        }
        policies.push("edf");
        let table = self.sweep(
            "fig11",
            &format!("Learner ablation (A2C vs PPO vs REINFORCE) at load {load}"),
            "load",
            &policies,
            points,
            None,
        );

        // Convergence appendix: final/best training return per learner.
        let mut md = table.to_markdown();
        md.push_str("\n| learner | final mean return (last 5 iters) | best iteration return | iterations |\n|---|---|---|---|\n");
        let mut csv = table.to_csv();
        csv.push_str("\nlearner,final_mean_return,best_return,iterations\n");
        for (label, key) in variants {
            let (_, history) = self.agent(key);
            md.push_str(&format!(
                "| {} | {:.2} | {:.2} | {} |\n",
                label,
                history.final_mean_return(5),
                history.best_mean_return(),
                history.iterations.len()
            ));
            csv.push_str(&format!(
                "{},{:.4},{:.4},{}\n",
                label,
                history.final_mean_return(5),
                history.best_mean_return(),
                history.iterations.len()
            ));
        }
        ExperimentOutput {
            name: "fig11".into(),
            markdown: md,
            csv,
        }
    }

    /// A derived summary of the headline comparisons (who wins where).
    pub fn summary(&self) -> ExperimentOutput {
        let grid = self.main_grid();
        let mut md = String::from("### summary — Headline comparisons\n\n");
        let mut csv = String::from(
            "load,best_scheduler,best_miss_rate,drl_miss_rate,edf_miss_rate,fifo_miss_rate\n",
        );
        for load in self.load_grid() {
            let at_load: Vec<_> = grid
                .aggregates()
                .into_iter()
                .filter(|a| (a.parameter - load).abs() < 1e-9)
                .collect();
            if at_load.is_empty() {
                continue;
            }
            let best = at_load
                .iter()
                .min_by(|a, b| a.miss_rate.partial_cmp(&b.miss_rate).unwrap())
                .unwrap();
            let get = |name: &str| {
                at_load
                    .iter()
                    .find(|a| a.scheduler == name)
                    .map(|a| a.miss_rate)
                    .unwrap_or(f64::NAN)
            };
            md.push_str(&format!(
                "* load {:.2}: best = **{}** ({:.1}% miss); drl {:.1}%, edf {:.1}%, fifo {:.1}%\n",
                load,
                best.scheduler,
                best.miss_rate * 100.0,
                get("drl") * 100.0,
                get("edf") * 100.0,
                get("fifo") * 100.0
            ));
            csv.push_str(&format!(
                "{:.2},{},{:.4},{:.4},{:.4},{:.4}\n",
                load,
                best.scheduler,
                best.miss_rate,
                get("drl"),
                get("edf"),
                get("fifo")
            ));
        }
        ExperimentOutput {
            name: "summary".into(),
            markdown: md,
            csv,
        }
    }

    /// Run one experiment by id.
    pub fn run(&self, name: &str) -> Option<ExperimentOutput> {
        match name {
            "table1" => Some(self.table1()),
            "table2" => Some(self.table2()),
            "table3" => Some(self.table3()),
            "table4" => Some(self.table4()),
            "table5" => Some(self.table5()),
            "fig2" => Some(self.fig2()),
            "fig3" => Some(self.fig3()),
            "fig4" => Some(self.fig4()),
            "fig5" => Some(self.fig5()),
            "fig6" => Some(self.fig6()),
            "fig7" => Some(self.fig7()),
            "fig8" => Some(self.fig8()),
            "fig9" => Some(self.fig9()),
            "fig10" => Some(self.fig10()),
            "fig11" => Some(self.fig11()),
            "summary" => Some(self.summary()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro lab that keeps every experiment to a couple of seconds: tiny
    /// cluster-level knobs are not exposed, so we shrink via the quick flag
    /// plus very small overrides on the private fields through `Lab::new`.
    fn micro_lab(dir: &str) -> Lab {
        let out = std::env::temp_dir().join("tcrm-bench-tests").join(dir);
        let mut lab = Lab::new(true, out);
        // Shrink further for unit tests.
        lab.workload = lab.workload.with_num_jobs(40);
        lab
    }

    #[test]
    fn table1_is_static_and_lists_all_classes() {
        let lab = micro_lab("table1");
        let out = lab.table1();
        assert!(out.markdown.contains("cpu-heavy"));
        assert!(out.markdown.contains("ml-train"));
        assert_eq!(out.csv.lines().count(), 1 + 4 + 1 + 4);
    }

    #[test]
    fn experiment_ids_resolve() {
        let lab = micro_lab("ids");
        assert!(lab.run("does-not-exist").is_none());
        for id in ALL_EXPERIMENTS {
            // Only check the cheap static ones here; the expensive ones are
            // exercised by the integration tests and the expdriver.
            if id == "table1" {
                assert!(lab.run(id).is_some());
            }
        }
    }
}
