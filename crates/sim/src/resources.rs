//! Multi-dimensional resource vectors.
//!
//! The simulator tracks four resource dimensions per node and per job demand:
//! CPU cores, memory (GiB), GPU devices and I/O bandwidth (Gbit/s). A fixed
//! small dimensionality keeps the hot arithmetic allocation-free (`[f64; 4]`
//! on the stack) while still capturing the multi-resource packing problem the
//! paper's heterogeneous cluster poses.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Number of resource dimensions tracked by the simulator.
pub const NUM_RESOURCES: usize = 4;

/// The identity of one resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU cores.
    Cpu,
    /// Memory in GiB.
    Memory,
    /// GPU devices (fractional sharing allowed).
    Gpu,
    /// I/O or network bandwidth in Gbit/s.
    Io,
}

impl ResourceKind {
    /// All resource kinds in index order.
    pub const ALL: [ResourceKind; NUM_RESOURCES] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Gpu,
        ResourceKind::Io,
    ];

    /// The index of this kind inside a [`ResourceVector`].
    pub fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Gpu => 2,
            ResourceKind::Io => 3,
        }
    }

    /// Short human-readable label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "mem",
            ResourceKind::Gpu => "gpu",
            ResourceKind::Io => "io",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A non-negative quantity of each resource dimension.
///
/// `ResourceVector` is used both for node capacities and for per-unit job
/// demands. All arithmetic is element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ResourceVector(pub [f64; NUM_RESOURCES]);

impl ResourceVector {
    /// Build a vector from raw values in [`ResourceKind::ALL`] order.
    pub fn new(values: [f64; NUM_RESOURCES]) -> Self {
        ResourceVector(values)
    }

    /// The all-zero vector.
    pub fn zero() -> Self {
        ResourceVector([0.0; NUM_RESOURCES])
    }

    /// A vector with the same value in every dimension.
    pub fn splat(v: f64) -> Self {
        ResourceVector([v; NUM_RESOURCES])
    }

    /// Convenience constructor naming every dimension.
    pub fn of(cpu: f64, mem: f64, gpu: f64, io: f64) -> Self {
        ResourceVector([cpu, mem, gpu, io])
    }

    /// Get one dimension by kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.0[kind.index()]
    }

    /// Set one dimension by kind, returning the modified vector.
    pub fn with(mut self, kind: ResourceKind, value: f64) -> Self {
        self.0[kind.index()] = value;
        self
    }

    /// True if every component is (numerically) non-negative.
    ///
    /// A small epsilon absorbs floating point rounding from repeated
    /// allocate/release cycles.
    pub fn is_non_negative(&self) -> bool {
        self.0.iter().all(|&v| v >= -1e-9)
    }

    /// True if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Element-wise `self <= other` (with epsilon slack), i.e. a demand of
    /// `self` fits in free capacity `other`.
    pub fn fits_in(&self, other: &ResourceVector) -> bool {
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(d, c)| *d <= *c + 1e-9)
    }

    /// Element-wise subtraction clamped at zero (useful for "free capacity"
    /// displays where rounding could produce tiny negatives).
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = (self.0[i] - other.0[i]).max(0.0);
        }
        ResourceVector(out)
    }

    /// Element-wise maximum.
    pub fn max(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = self.0[i].max(other.0[i]);
        }
        ResourceVector(out)
    }

    /// Element-wise minimum.
    pub fn min(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = self.0[i].min(other.0[i]);
        }
        ResourceVector(out)
    }

    /// Scale every component by a factor.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        let mut out = self.0;
        for v in &mut out {
            *v *= factor;
        }
        ResourceVector(out)
    }

    /// The dominant share of this demand relative to a capacity: the maximum
    /// over dimensions of `demand_i / capacity_i` (dimensions with zero
    /// capacity are ignored unless the demand there is positive, in which case
    /// the share is `+inf`). This is the DRF-style measure used by the packing
    /// baselines and by the state encoder.
    pub fn dominant_share(&self, capacity: &ResourceVector) -> f64 {
        let mut share: f64 = 0.0;
        for i in 0..NUM_RESOURCES {
            if capacity.0[i] > 0.0 {
                share = share.max(self.0[i] / capacity.0[i]);
            } else if self.0[i] > 0.0 {
                return f64::INFINITY;
            }
        }
        share
    }

    /// Element-wise division by a capacity, mapping zero-capacity dimensions
    /// to zero. Used to build normalised state features.
    pub fn normalized_by(&self, capacity: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = if capacity.0[i] > 0.0 {
                self.0[i] / capacity.0[i]
            } else {
                0.0
            };
        }
        ResourceVector(out)
    }

    /// The dot product with another vector (used by alignment-scoring
    /// baselines such as Tetris).
    pub fn dot(&self, other: &ResourceVector) -> f64 {
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }

    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Iterate over `(kind, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        ResourceKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }

    /// The raw component array.
    pub fn as_array(&self) -> [f64; NUM_RESOURCES] {
        self.0
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = f64;
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVector {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.0[kind.index()]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self.0;
        for i in 0..NUM_RESOURCES {
            out[i] += rhs.0[i];
        }
        ResourceVector(out)
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        for i in 0..NUM_RESOURCES {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self.0;
        for i in 0..NUM_RESOURCES {
            out[i] -= rhs.0[i];
        }
        ResourceVector(out)
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        for i in 0..NUM_RESOURCES {
            self.0[i] -= rhs.0[i];
        }
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, rhs: f64) -> ResourceVector {
        self.scaled(rhs)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={:.2}, mem={:.2}, gpu={:.2}, io={:.2}]",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrip() {
        for (i, kind) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn basic_arithmetic() {
        let a = ResourceVector::of(4.0, 8.0, 1.0, 2.0);
        let b = ResourceVector::of(1.0, 2.0, 0.0, 0.5);
        assert_eq!(a + b, ResourceVector::of(5.0, 10.0, 1.0, 2.5));
        assert_eq!(a - b, ResourceVector::of(3.0, 6.0, 1.0, 1.5));
        assert_eq!(b * 2.0, ResourceVector::of(2.0, 4.0, 0.0, 1.0));
    }

    #[test]
    fn fits_in_respects_every_dimension() {
        let cap = ResourceVector::of(4.0, 8.0, 1.0, 2.0);
        assert!(ResourceVector::of(4.0, 8.0, 1.0, 2.0).fits_in(&cap));
        assert!(ResourceVector::of(0.0, 0.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVector::of(4.1, 0.0, 0.0, 0.0).fits_in(&cap));
        assert!(!ResourceVector::of(0.0, 0.0, 1.5, 0.0).fits_in(&cap));
    }

    #[test]
    fn dominant_share_picks_bottleneck() {
        let cap = ResourceVector::of(10.0, 100.0, 2.0, 10.0);
        let demand = ResourceVector::of(1.0, 50.0, 0.0, 1.0);
        assert!((demand.dominant_share(&cap) - 0.5).abs() < 1e-12);
        // Demanding a resource the capacity does not have is infeasible.
        let gpu_demand = ResourceVector::of(0.0, 0.0, 1.0, 0.0);
        let cpu_only = ResourceVector::of(8.0, 32.0, 0.0, 10.0);
        assert!(gpu_demand.dominant_share(&cpu_only).is_infinite());
    }

    #[test]
    fn normalization_handles_zero_capacity() {
        let cap = ResourceVector::of(10.0, 0.0, 2.0, 10.0);
        let demand = ResourceVector::of(5.0, 3.0, 1.0, 0.0);
        let n = demand.normalized_by(&cap);
        assert_eq!(n, ResourceVector::of(0.5, 0.0, 0.5, 0.0));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = ResourceVector::of(1.0, 1.0, 1.0, 1.0);
        let b = ResourceVector::of(2.0, 0.5, 1.0, 0.0);
        assert_eq!(a.saturating_sub(&b), ResourceVector::of(0.0, 0.5, 0.0, 1.0));
    }

    #[test]
    fn indexing_by_kind() {
        let mut v = ResourceVector::zero();
        v[ResourceKind::Gpu] = 2.0;
        assert_eq!(v.get(ResourceKind::Gpu), 2.0);
        assert_eq!(v[ResourceKind::Cpu], 0.0);
    }

    #[test]
    fn display_is_readable() {
        let v = ResourceVector::of(1.0, 2.0, 3.0, 4.0);
        let s = format!("{v}");
        assert!(s.contains("cpu=1.00") && s.contains("io=4.00"));
    }
}
