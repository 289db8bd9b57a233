//! Nodes: the physical machines of the heterogeneous cluster.

use crate::job::JobClass;
use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node class inside the [`crate::config::ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeClassId(pub usize);

impl fmt::Display for NodeClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class-{}", self.0)
    }
}

/// Unique identifier of a node within one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A single machine: a capacity vector plus the amount currently in use.
///
/// Nodes never know which jobs occupy them — allocation bookkeeping lives in
/// [`crate::cluster::Cluster`] and [`crate::engine::Simulator`]; the node only
/// enforces capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier, dense from 0 within a cluster.
    pub id: NodeId,
    /// Node class this machine belongs to.
    pub class: NodeClassId,
    /// Total capacity.
    pub capacity: ResourceVector,
    /// Currently allocated resources.
    pub used: ResourceVector,
}

impl Node {
    /// Create an empty node.
    pub fn new(id: NodeId, class: NodeClassId, capacity: ResourceVector) -> Self {
        Node {
            id,
            class,
            capacity,
            used: ResourceVector::zero(),
        }
    }

    /// Free capacity (clamped at zero to absorb rounding).
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.used)
    }

    /// Can `demand` be placed on this node right now?
    pub fn can_fit(&self, demand: &ResourceVector) -> bool {
        demand.fits_in(&self.free())
    }

    /// Reserve `demand`. Returns `false` (and leaves the node unchanged) if it
    /// does not fit.
    pub fn allocate(&mut self, demand: &ResourceVector) -> bool {
        if !self.can_fit(demand) {
            return false;
        }
        self.used += *demand;
        true
    }

    /// Release `demand`. Debug-asserts that we never release more than is in
    /// use; in release builds the usage is clamped at zero.
    pub fn release(&mut self, demand: &ResourceVector) {
        self.used -= *demand;
        debug_assert!(
            self.used.is_non_negative(),
            "node {} released more than allocated: {}",
            self.id,
            self.used
        );
        self.used = self.used.max(&ResourceVector::zero());
    }

    /// Fraction of capacity in use for the bottleneck resource.
    pub fn utilization(&self) -> f64 {
        self.used.dominant_share(&self.capacity).min(1.0)
    }

    /// Per-dimension utilisation in `[0, 1]`.
    pub fn utilization_vector(&self) -> ResourceVector {
        self.used.normalized_by(&self.capacity)
    }

    /// True when nothing is allocated.
    pub fn is_idle(&self) -> bool {
        self.used.total() <= 1e-9
    }
}

/// A speed profile maps each [`JobClass`] to an execution-rate multiplier on a
/// node class. A GPU node might give ML training a 6× factor while leaving
/// batch analytics at 1×.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedProfile {
    factors: [f64; JobClass::COUNT],
}

impl SpeedProfile {
    /// The same speed for every job class.
    pub fn uniform(factor: f64) -> Self {
        SpeedProfile {
            factors: [factor; JobClass::COUNT],
        }
    }

    /// Build from explicit per-class factors in [`JobClass::ALL`] order.
    pub fn new(factors: [f64; JobClass::COUNT]) -> Self {
        SpeedProfile { factors }
    }

    /// Speed factor for one job class.
    pub fn factor(&self, class: JobClass) -> f64 {
        self.factors[class.index()]
    }

    /// Override the factor for one class.
    pub fn with(mut self, class: JobClass, factor: f64) -> Self {
        self.factors[class.index()] = factor;
        self
    }

    /// Raw factor array.
    pub fn as_array(&self) -> [f64; JobClass::COUNT] {
        self.factors
    }

    /// The largest factor across classes (used for best-case feasibility
    /// bounds).
    pub fn max_factor(&self) -> f64 {
        self.factors.iter().cloned().fold(f64::MIN, f64::max)
    }
}

impl Default for SpeedProfile {
    fn default() -> Self {
        SpeedProfile::uniform(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(
            NodeId(0),
            NodeClassId(0),
            ResourceVector::of(16.0, 64.0, 2.0, 10.0),
        )
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut n = node();
        let d = ResourceVector::of(4.0, 8.0, 1.0, 1.0);
        assert!(n.allocate(&d));
        assert_eq!(n.free(), ResourceVector::of(12.0, 56.0, 1.0, 9.0));
        n.release(&d);
        assert!(n.is_idle());
        assert_eq!(n.free(), n.capacity);
    }

    #[test]
    fn allocate_rejects_overcommit() {
        let mut n = node();
        let d = ResourceVector::of(20.0, 1.0, 0.0, 0.0);
        assert!(!n.allocate(&d));
        assert!(n.is_idle());
    }

    #[test]
    fn utilization_tracks_dominant_resource() {
        let mut n = node();
        n.allocate(&ResourceVector::of(8.0, 8.0, 2.0, 0.0));
        assert!((n.utilization() - 1.0).abs() < 1e-9); // GPUs saturated
        let v = n.utilization_vector();
        assert!((v.0[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speed_profile_lookup_and_override() {
        let p = SpeedProfile::uniform(1.0)
            .with(JobClass::MlTraining, 6.0)
            .with(JobClass::MlInference, 3.0);
        assert_eq!(p.factor(JobClass::Batch), 1.0);
        assert_eq!(p.factor(JobClass::MlTraining), 6.0);
        assert_eq!(p.max_factor(), 6.0);
    }
}
