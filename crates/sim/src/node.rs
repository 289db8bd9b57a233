//! Node and node-class identifiers, and the per-class speed profiles.

use crate::job::JobClass;
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
}

impl Default for SpeedProfile {
    fn default() -> Self {
        SpeedProfile::uniform(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_profile_lookup_and_override() {
        let p = SpeedProfile::uniform(1.0)
            .with(JobClass::MlTraining, 6.0)
            .with(JobClass::MlInference, 3.0);
        assert_eq!(p.factor(JobClass::Batch), 1.0);
        assert_eq!(p.factor(JobClass::MlTraining), 6.0);
    }
}
