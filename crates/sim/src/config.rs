//! Cluster and simulation configuration.
//!
//! [`ClusterSpec`] describes the heterogeneous machine park (Table 1 of the
//! reconstructed evaluation); [`SimConfig`] collects the engine knobs
//! (decision epochs, the re-scale cooldown, run limits and metric
//! retention).

use crate::job::JobClass;
use crate::node::{NodeClassId, SpeedProfile};
use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};

/// A simple linear machine power model: a machine draws `idle_watts` when
/// empty and `peak_watts` when its resources are fully utilised, interpolating
/// linearly in between. This is the standard utilisation-proportional model
/// used by cluster energy studies and feeds the energy accounting in
/// [`crate::metrics::EnergyReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Power draw of one idle machine, in watts.
    pub idle_watts: f64,
    /// Power draw of one fully utilised machine, in watts.
    pub peak_watts: f64,
}

impl PowerModel {
    /// Build a power model from idle and peak draw.
    pub fn new(idle_watts: f64, peak_watts: f64) -> Self {
        PowerModel {
            idle_watts,
            peak_watts,
        }
    }

    /// Power draw of one machine at scalar utilisation `util ∈ [0, 1]`.
    pub fn watts_at(&self, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        self.idle_watts + (self.peak_watts - self.idle_watts) * u
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        // A generic dual-socket server: ~100 W idle, ~350 W at full load.
        PowerModel {
            idle_watts: 100.0,
            peak_watts: 350.0,
        }
    }
}

/// Description of one node class: how many machines, their capacity and their
/// job-class speed profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeClassSpec {
    /// Human-readable name used in tables/figures.
    pub name: String,
    /// Number of machines of this class.
    pub count: usize,
    /// Capacity of one machine.
    pub capacity: ResourceVector,
    /// Per-job-class execution speed factors.
    pub speed: SpeedProfile,
    /// Per-machine power model (defaults to a generic server when absent in
    /// serialised specs produced before energy accounting existed).
    #[serde(default)]
    pub power: PowerModel,
}

impl NodeClassSpec {
    /// Build a node class spec with the default power model.
    pub fn new(
        name: impl Into<String>,
        count: usize,
        capacity: ResourceVector,
        speed: SpeedProfile,
    ) -> Self {
        NodeClassSpec {
            name: name.into(),
            count,
            capacity,
            speed,
            power: PowerModel::default(),
        }
    }

    /// Override the per-machine power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Total capacity contributed by this class.
    pub fn total_capacity(&self) -> ResourceVector {
        self.capacity.scaled(self.count as f64)
    }
}

/// The full heterogeneous cluster description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// All node classes. `NodeClassId(i)` indexes into this vector.
    pub node_classes: Vec<NodeClassSpec>,
}

impl ClusterSpec {
    /// Build a spec from explicit classes.
    pub fn new(node_classes: Vec<NodeClassSpec>) -> Self {
        ClusterSpec { node_classes }
    }

    /// The default heterogeneous cluster used throughout the reconstructed
    /// evaluation (Table 1): four node classes mixing CPU-heavy, memory-heavy,
    /// GPU-accelerated and small edge machines.
    pub fn icpp_default() -> Self {
        ClusterSpec {
            node_classes: vec![
                NodeClassSpec::new(
                    "cpu-heavy",
                    8,
                    ResourceVector::of(32.0, 128.0, 0.0, 10.0),
                    SpeedProfile::new([1.2, 1.0, 0.8, 0.9]),
                )
                .with_power(PowerModel::new(120.0, 420.0)),
                NodeClassSpec::new(
                    "mem-heavy",
                    8,
                    ResourceVector::of(16.0, 256.0, 0.0, 10.0),
                    SpeedProfile::new([1.0, 1.3, 0.7, 0.8]),
                )
                .with_power(PowerModel::new(130.0, 380.0)),
                NodeClassSpec::new(
                    "gpu",
                    4,
                    ResourceVector::of(16.0, 128.0, 4.0, 25.0),
                    SpeedProfile::new([1.0, 1.0, 6.0, 3.0]),
                )
                .with_power(PowerModel::new(250.0, 950.0)),
                NodeClassSpec::new(
                    "edge",
                    4,
                    ResourceVector::of(8.0, 32.0, 0.0, 5.0),
                    SpeedProfile::new([0.7, 1.1, 0.3, 0.8]),
                )
                .with_power(PowerModel::new(25.0, 90.0)),
            ],
        }
    }

    /// A deliberately small homogeneous cluster used by unit tests and the
    /// quickstart example.
    pub fn tiny() -> Self {
        ClusterSpec {
            node_classes: vec![NodeClassSpec::new(
                "generic",
                2,
                ResourceVector::of(8.0, 32.0, 1.0, 10.0),
                SpeedProfile::uniform(1.0),
            )],
        }
    }

    /// A scaled variant of the default cluster with roughly `scale ×` the
    /// machine count in every class (at least one machine per class). Used by
    /// the scalability experiments (Table 4).
    pub fn icpp_scaled(scale: f64) -> Self {
        let mut spec = Self::icpp_default();
        for class in &mut spec.node_classes {
            class.count = ((class.count as f64 * scale).round() as usize).max(1);
        }
        spec
    }

    /// A homogeneous variant with the same aggregate capacity as this spec:
    /// every node class keeps its machine count but gets the average capacity
    /// and a uniform speed profile. Used by the heterogeneity ablation.
    pub fn homogenized(&self) -> Self {
        let total_nodes: usize = self.node_classes.iter().map(|c| c.count).sum();
        let total_cap = self.total_capacity();
        let avg_cap = if total_nodes > 0 {
            total_cap.scaled(1.0 / total_nodes as f64)
        } else {
            ResourceVector::zero()
        };
        ClusterSpec {
            node_classes: self
                .node_classes
                .iter()
                .map(|c| {
                    NodeClassSpec::new(
                        format!("{}-homog", c.name),
                        c.count,
                        avg_cap,
                        SpeedProfile::uniform(1.0),
                    )
                })
                .collect(),
        }
    }

    /// Number of node classes.
    pub fn num_classes(&self) -> usize {
        self.node_classes.len()
    }

    /// Total number of machines.
    pub fn num_nodes(&self) -> usize {
        self.node_classes.iter().map(|c| c.count).sum()
    }

    /// Aggregate capacity across the whole cluster.
    pub fn total_capacity(&self) -> ResourceVector {
        self.node_classes
            .iter()
            .fold(ResourceVector::zero(), |acc, c| acc + c.total_capacity())
    }

    /// Aggregate capacity of a single node class.
    pub fn class_capacity(&self, class: NodeClassId) -> ResourceVector {
        self.node_classes[class.0].total_capacity()
    }

    /// Speed factor of a node class for a job class.
    pub fn speed_factor(&self, class: NodeClassId, job_class: JobClass) -> f64 {
        self.node_classes[class.0].speed.factor(job_class)
    }

    /// The best speed factor available anywhere in the cluster for a job
    /// class.
    pub fn best_speed_factor(&self, job_class: JobClass) -> f64 {
        self.node_classes
            .iter()
            .map(|c| c.speed.factor(job_class))
            .fold(f64::MIN, f64::max)
    }

    /// A rough aggregate "work capacity" in work-units per second for a given
    /// job-class mix (probabilities summing to 1). Used by the workload
    /// generator to translate an offered-load target into an arrival rate.
    pub fn work_capacity(&self, class_mix: &[(JobClass, f64)]) -> f64 {
        // Every machine can host roughly capacity/typical-unit demand units;
        // we approximate with the CPU dimension as the unit anchor: one
        // parallel unit ~ 2 cores.
        const CORES_PER_UNIT: f64 = 2.0;
        self.node_classes
            .iter()
            .map(|c| {
                let units = c.total_capacity().0[0] / CORES_PER_UNIT;
                let avg_speed: f64 = class_mix
                    .iter()
                    .map(|(jc, p)| p * c.speed.factor(*jc))
                    .sum();
                units * avg_speed
            })
            .sum()
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::icpp_default()
    }
}

/// Engine knobs. The re-scale charge
/// ([`RECONFIG_COST_FRAC`](crate::engine::RECONFIG_COST_FRAC)) and the
/// utilisation sampling period
/// ([`UTIL_SAMPLE_INTERVAL`](crate::engine::UTIL_SAMPLE_INTERVAL)) are engine
/// constants, not knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// If set, a decision epoch is raised every `decision_interval` seconds
    /// even when no arrival/completion happened, letting the scheduler
    /// re-scale running jobs proactively.
    pub decision_interval: Option<f64>,
    /// Minimum simulated time between two re-scaling operations on the same
    /// job (and between a job's start and its first re-scaling). Models the
    /// fact that elastic reconfiguration is not instantaneous and prevents
    /// degenerate policies from thrashing a job's parallelism.
    pub scale_cooldown: f64,
    /// Maximum number of scheduler invocations per decision epoch before the
    /// engine forces progress (guards against schedulers that keep emitting
    /// infeasible actions).
    pub max_decisions_per_epoch: usize,
    /// Hard cap on simulated time; the run aborts (completing metrics for the
    /// finished jobs only) if exceeded. Guards against livelock.
    pub max_sim_time: f64,
    /// Drop the per-job completion log and the utilisation trace, so a run's
    /// metric footprint is O(1) in the number of jobs. Every run builds its
    /// [`crate::Summary`] from the same streaming aggregates, so every field
    /// is identical either way except the slowdown percentiles: exact from
    /// the sorted log when it is kept, from a log-bucketed histogram
    /// (relative error ≤ 1.1%) when it is dropped. Million-arrival serving
    /// runs turn this on; evaluation sweeps that need exact percentiles or
    /// the utilisation trace leave it off.
    #[serde(default)]
    pub bounded_metrics: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            decision_interval: Some(10.0),
            scale_cooldown: 20.0,
            max_decisions_per_epoch: 64,
            max_sim_time: 1e6,
            bounded_metrics: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_shape() {
        let spec = ClusterSpec::icpp_default();
        assert_eq!(spec.num_classes(), 4);
        assert_eq!(spec.num_nodes(), 24);
    }

    #[test]
    fn gpu_class_accelerates_ml() {
        let spec = ClusterSpec::icpp_default();
        let gpu = NodeClassId(2);
        assert!(spec.speed_factor(gpu, JobClass::MlTraining) > 3.0);
        assert!(spec.best_speed_factor(JobClass::MlTraining) >= 6.0);
        assert!(spec.best_speed_factor(JobClass::Batch) >= 1.0);
    }

    #[test]
    fn total_capacity_adds_up() {
        let spec = ClusterSpec::tiny();
        assert_eq!(
            spec.total_capacity(),
            ResourceVector::of(16.0, 64.0, 2.0, 20.0)
        );
    }

    #[test]
    fn scaled_cluster_grows() {
        let base = ClusterSpec::icpp_default();
        let big = ClusterSpec::icpp_scaled(4.0);
        assert_eq!(big.num_nodes(), base.num_nodes() * 4);
        let small = ClusterSpec::icpp_scaled(0.01);
        assert_eq!(small.num_nodes(), 4); // at least one per class
    }

    #[test]
    fn homogenized_preserves_aggregate_capacity() {
        let spec = ClusterSpec::icpp_default();
        let homog = spec.homogenized();
        let a = spec.total_capacity();
        let b = homog.total_capacity();
        for i in 0..crate::resources::NUM_RESOURCES {
            assert!((a.0[i] - b.0[i]).abs() < 1e-6);
        }
        for c in &homog.node_classes {
            assert_eq!(c.speed.factor(JobClass::MlTraining), 1.0);
        }
    }

    #[test]
    fn work_capacity_positive_for_default_mix() {
        let spec = ClusterSpec::icpp_default();
        let mix = [
            (JobClass::Batch, 0.4),
            (JobClass::Stream, 0.3),
            (JobClass::MlTraining, 0.15),
            (JobClass::MlInference, 0.15),
        ];
        assert!(spec.work_capacity(&mix) > 0.0);
    }

    #[test]
    fn power_model_interpolates_between_idle_and_peak() {
        let p = PowerModel::new(100.0, 500.0);
        assert!((p.watts_at(0.0) - 100.0).abs() < 1e-12);
        assert!((p.watts_at(1.0) - 500.0).abs() < 1e-12);
        assert!((p.watts_at(0.5) - 300.0).abs() < 1e-12);
        // Out-of-range utilisation is clamped.
        assert!((p.watts_at(-1.0) - 100.0).abs() < 1e-12);
        assert!((p.watts_at(2.0) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn node_class_spec_without_power_field_deserialises_with_default() {
        // Specs serialised before energy accounting existed omit `power`.
        let json = r#"{
            "name": "legacy",
            "count": 2,
            "capacity": [8.0, 32.0, 0.0, 10.0],
            "speed": {"factors": [1.0, 1.0, 1.0, 1.0]}
        }"#;
        let spec: Result<NodeClassSpec, _> = serde_json::from_str(json);
        if let Ok(spec) = spec {
            assert_eq!(spec.power, PowerModel::default());
        } else {
            // If the capacity/speed wire format differs, round-trip a real
            // spec with the field stripped instead.
            let full = NodeClassSpec::new(
                "legacy",
                2,
                ResourceVector::of(8.0, 32.0, 0.0, 10.0),
                SpeedProfile::uniform(1.0),
            );
            let mut value = serde_json::to_value(&full).unwrap();
            value.as_object_mut().unwrap().remove("power");
            let back: NodeClassSpec = serde_json::from_value(value).unwrap();
            assert_eq!(back.power, PowerModel::default());
        }
    }

    #[test]
    fn default_cluster_power_reflects_hardware_classes() {
        let spec = ClusterSpec::icpp_default();
        let gpu = &spec.node_classes[2];
        let edge = &spec.node_classes[3];
        assert!(gpu.power.peak_watts > edge.power.peak_watts * 5.0);
        for class in &spec.node_classes {
            assert!(class.power.idle_watts > 0.0);
            assert!(class.power.peak_watts >= class.power.idle_watts);
        }
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SimConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Configs written while the reference-path switches still existed
        // carry two keys this struct no longer has; they load unchanged.
        let legacy = json.replacen(
            '{',
            "{\"incremental_view\":false,\"placement_index\":false,",
            1,
        );
        assert!(legacy.contains("\"placement_index\":false"));
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(cfg, back);
        // So do configs written while the re-scale charge and sampling
        // period were settable and re-scaling could be switched off: the
        // engine now uses its constants, whatever values the file holds.
        let legacy = json.replacen(
            '{',
            "{\"reconfig_cost_frac\":0.5,\"util_sample_interval\":1.0,\"allow_scaling\":false,",
            1,
        );
        assert!(legacy.contains("\"allow_scaling\":false"));
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, SimConfig::default());
        let spec = ClusterSpec::icpp_default();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
