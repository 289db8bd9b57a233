//! The cluster: a set of heterogeneous nodes plus placement logic.

use crate::allocation::Placement;
use crate::config::ClusterSpec;
use crate::fit_index::{bucket_rank, units_that_fit, FitIndex};
use crate::job::JobClass;
use crate::node::{NodeClassId, NodeId};
use crate::resources::{ResourceVector, NUM_RESOURCES};
use crate::view::NodeClassView;

/// A concrete cluster instantiated from a [`ClusterSpec`].
///
/// The cluster owns the node capacity bookkeeping and the placement search.
/// It does not know about jobs or time; the [`crate::engine::Simulator`] maps
/// jobs to placements through it.
///
/// Its record of each node class is that class's [`NodeClassView`] row —
/// the row every [`crate::ClusterView`] copies: capacities, speeds, each
/// node's free vector and the bucketed free-capacity [`FitIndex`] over them.
/// Node ids are dense and grouped by class, so a class's nodes are one
/// contiguous id range and a node's position in its row is its id minus the
/// range start. Next to the rows the cluster keeps each node's `used`
/// vector and each class's unclamped free-capacity accumulator. Every
/// [`Self::apply_placement`] / [`Self::release_placement`] updates the
/// touched nodes' `used`, writes `capacity − used` (clamped at zero) into
/// the row through `NodeClassView::set_node_free`, which re-ranks the node
/// in the index, and applies the demand **as a delta** to the accumulator,
/// whose clamped value is the row's `free_capacity`. So
/// [`Self::free_capacity_of_class`] and everything built on it is O(1) per
/// class, and [`Self::find_placement`] walks the row's index in worst-fit
/// order without a per-start sort. The sorted walk survives as the
/// property-tested oracle [`Self::find_placement_walk`], which the engine
/// never calls.
///
/// [`Self::check_invariants`] cross-checks the rows, the aggregates and the
/// fit indices against a fresh per-node recomputation from `used`.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// One row per class, indexed by `NodeClassId`.
    classes: Vec<NodeClassView>,
    /// First node id of each class.
    class_start: Vec<usize>,
    /// Allocated resources of each node, indexed by `NodeId`.
    used: Vec<ResourceVector>,
    /// Delta-maintained, unclamped per-class free capacity (see the type
    /// docs).
    free_by_class: Vec<ResourceVector>,
}

impl Cluster {
    /// Instantiate all nodes described by the spec, every one free.
    pub fn new(spec: &ClusterSpec) -> Self {
        let mut class_start = Vec::with_capacity(spec.num_classes());
        let mut next = 0usize;
        let classes = spec
            .node_classes
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                class_start.push(next);
                next += class.count;
                NodeClassView {
                    id: NodeClassId(ci),
                    name: class.name.clone(),
                    node_count: class.count,
                    total_capacity: spec.class_capacity(NodeClassId(ci)),
                    free_capacity: ResourceVector::zero(),
                    node_free: Vec::with_capacity(class.count),
                    // Straight from the spec (not derived by division), the
                    // denominator of every bucket rank.
                    unit_capacity: class.capacity,
                    fit_index: FitIndex::new(),
                    speed_factors: class.speed.as_array(),
                }
            })
            .collect();
        let mut cluster = Cluster {
            classes,
            class_start,
            used: vec![ResourceVector::zero(); next],
            free_by_class: vec![ResourceVector::zero(); spec.num_classes()],
        };
        cluster.reset();
        cluster
    }

    /// Release every allocation, returning the cluster to its freshly built
    /// state without reallocating. Re-derives the per-class aggregates from
    /// the class capacities, so accumulated floating-point residue from a
    /// previous run cannot carry over.
    pub fn reset(&mut self) {
        self.used.fill(ResourceVector::zero());
        for (row, free) in self.classes.iter_mut().zip(&mut self.free_by_class) {
            *free = row.total_capacity;
            row.free_capacity = free.max(&ResourceVector::zero());
            let idle = row.unit_capacity.saturating_sub(&ResourceVector::zero());
            row.node_free.clear();
            row.node_free.resize(row.node_count, idle);
            // O(n) refill of the retained fit-index buffers.
            row.rebuild_fit_index();
        }
    }

    /// Number of machines.
    pub fn num_nodes(&self) -> usize {
        self.used.len()
    }

    /// Number of node classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class of `node` and its position in that class's row.
    pub fn locate(&self, node: NodeId) -> (NodeClassId, usize) {
        // The last class starting at or before the node: empty classes
        // share their start with the next class and come first.
        let ci = self.class_start.partition_point(|&s| s <= node.0) - 1;
        (NodeClassId(ci), node.0 - self.class_start[ci])
    }

    /// Resources currently allocated on one node.
    pub fn used(&self, node: NodeId) -> ResourceVector {
        self.used[node.0]
    }

    /// The cluster's record of one class: the row views copy.
    pub fn class_row(&self, id: NodeClassId) -> &NodeClassView {
        &self.classes[id.0]
    }

    /// Snapshot of one class as schedulers see it: a copy of the stored row.
    pub fn class_view(&self, id: NodeClassId) -> NodeClassView {
        self.class_row(id).clone()
    }

    /// Free capacity aggregated over one node class: an O(1) read of the
    /// delta-maintained aggregate (clamped at zero to absorb float residue).
    pub fn free_capacity_of_class(&self, class: NodeClassId) -> ResourceVector {
        self.classes[class.0].free_capacity
    }

    /// Total capacity of one node class.
    pub fn total_capacity_of_class(&self, class: NodeClassId) -> ResourceVector {
        self.classes[class.0].total_capacity
    }

    /// Total capacity of the whole cluster.
    pub fn total_capacity(&self) -> ResourceVector {
        self.classes
            .iter()
            .fold(ResourceVector::zero(), |acc, row| acc + row.total_capacity)
    }

    /// Free capacity aggregated over the whole cluster (O(classes), from the
    /// delta-maintained aggregates).
    pub fn free_capacity(&self) -> ResourceVector {
        self.classes
            .iter()
            .fold(ResourceVector::zero(), |acc, row| acc + row.free_capacity)
    }

    /// Per-dimension utilisation of one class in `[0, 1]`.
    pub fn class_utilization(&self, class: NodeClassId) -> ResourceVector {
        let total = self.total_capacity_of_class(class);
        let free = self.free_capacity_of_class(class);
        let used = total.saturating_sub(&free);
        used.normalized_by(&total)
    }

    /// Average utilisation across classes and dimensions (scalar in `[0,1]`),
    /// weighting each dimension of each class by its capacity share.
    pub fn overall_utilization(&self) -> f64 {
        let total = self.total_capacity();
        let free = self.free_capacity();
        let used = total.saturating_sub(&free);
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..NUM_RESOURCES {
            if total.0[i] > 0.0 {
                num += used.0[i];
                den += total.0[i];
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Find a placement for `units` parallel units of `per_unit` demand on
    /// machines of `class`, or `None` if the class cannot host them.
    ///
    /// The policy is worst-fit across the class (fill the emptiest machine
    /// first) which spreads elastic jobs and leaves room to grow. "Emptiest"
    /// is keyed on the node's [`bucket_rank`] — the floor-log2 bucket of its
    /// scarcest relative free resource, the same demand-independent key the
    /// [`FitIndex`] maintains — and ties break on the lower node id so the
    /// search is deterministic. The search is the row's emptiest-first walk
    /// (the one the unit counts take); the reference
    /// [`Self::find_placement_walk`] sorts the row into the same
    /// `(bucket_rank desc, id asc)` order, which keeps the two byte-identical
    /// (pinned by `tests/placement_index.rs`).
    pub fn find_placement(
        &self,
        class: NodeClassId,
        per_unit: &ResourceVector,
        units: u32,
    ) -> Option<Vec<Placement>> {
        let mut placements = Vec::new();
        self.find_placement_into(class, per_unit, units, &mut placements)
            .then_some(placements)
    }

    /// [`Self::find_placement`] into a caller-retained buffer, which is
    /// cleared first: true when the units fit (the buffer then holds the
    /// placement), false otherwise. The engine recycles the buffers of
    /// finished allocations through this, so starting a job does not
    /// allocate once the buffers have grown.
    pub fn find_placement_into(
        &self,
        class: NodeClassId,
        per_unit: &ResourceVector,
        units: u32,
        placements: &mut Vec<Placement>,
    ) -> bool {
        placements.clear();
        if let Some(fits) = self.trivial_placement(class, per_unit, units, placements) {
            return fits;
        }
        let first = self.class_start[class.0];
        let mut remaining = units;
        for (idx, fit) in self.classes[class.0].fits_desc(per_unit) {
            if fit == 0 {
                continue;
            }
            let take = fit.min(remaining);
            placements.push(Placement {
                node: NodeId(first + idx),
                units: take,
            });
            remaining -= take;
            if remaining == 0 {
                return true;
            }
        }
        false
    }

    /// The answer both placement paths give without searching: no units
    /// place nowhere, and zero-demand units trivially fit on the first
    /// machine of the class (pushed to `placements`). `None` when a search
    /// is needed.
    fn trivial_placement(
        &self,
        class: NodeClassId,
        per_unit: &ResourceVector,
        units: u32,
        placements: &mut Vec<Placement>,
    ) -> Option<bool> {
        if units == 0 {
            return Some(false);
        }
        if per_unit.total() <= 0.0 {
            let fits = self.classes[class.0].node_count > 0;
            if fits {
                placements.push(Placement {
                    node: NodeId(self.class_start[class.0]),
                    units,
                });
            }
            return Some(fits);
        }
        None
    }

    /// Reference placement: a sorted walk over the row's `node_free`, a test
    /// oracle that the engine never calls. Same contract as
    /// [`Self::find_placement`], but sorts the whole class into the identical
    /// `(bucket_rank desc, id asc)` worst-fit order on every call —
    /// O(n log n) per search instead of O(placed + skipped), and no use of
    /// the fit index.
    pub fn find_placement_walk(
        &self,
        class: NodeClassId,
        per_unit: &ResourceVector,
        units: u32,
    ) -> Option<Vec<Placement>> {
        let mut placements = Vec::new();
        if let Some(fits) = self.trivial_placement(class, per_unit, units, &mut placements) {
            return fits.then_some(placements);
        }
        let row = &self.classes[class.0];
        let mut candidates: Vec<(usize, u32, u8)> = row
            .node_free
            .iter()
            .enumerate()
            .map(|(idx, free)| {
                let rank = bucket_rank(free, &row.unit_capacity);
                (idx, units_that_fit(free, per_unit), rank)
            })
            .filter(|(_, fit, _)| *fit > 0)
            .collect();
        // Emptiest bucket first, then lowest id.
        candidates.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        let mut remaining = units;
        for (idx, fit, _) in candidates {
            if remaining == 0 {
                break;
            }
            let take = fit.min(remaining);
            placements.push(Placement {
                node: NodeId(self.class_start[class.0] + idx),
                units: take,
            });
            remaining -= take;
        }
        (remaining == 0).then_some(placements)
    }

    /// Reserve resources for a placement. Panics in debug builds if the
    /// placement does not fit (placements must come from [`Self::find_placement`]
    /// against the current state).
    pub fn apply_placement(&mut self, per_unit: &ResourceVector, placements: &[Placement]) {
        for p in placements {
            let demand = per_unit.scaled(p.units as f64);
            let (class, idx) = self.locate(p.node);
            // Callers validate with find_placement first; the usage is
            // recorded either way so release stays symmetric.
            debug_assert!(
                demand.fits_in(&self.classes[class.0].node_free[idx]),
                "placement on {} does not fit",
                p.node
            );
            self.used[p.node.0] += demand;
            self.free_by_class[class.0] -= demand;
            self.sync_node(class, idx, p.node);
        }
    }

    /// Release the resources of a placement.
    pub fn release_placement(&mut self, per_unit: &ResourceVector, placements: &[Placement]) {
        for p in placements {
            let demand = per_unit.scaled(p.units as f64);
            let (class, idx) = self.locate(p.node);
            let used = &mut self.used[p.node.0];
            *used -= demand;
            debug_assert!(
                used.is_non_negative(),
                "{} released more than allocated: {used}",
                p.node
            );
            *used = used.max(&ResourceVector::zero());
            self.free_by_class[class.0] += demand;
            self.sync_node(class, idx, p.node);
        }
    }

    /// Write one node's free vector and its class's clamped aggregate into
    /// the class row after the node's usage changed.
    fn sync_node(&mut self, class: NodeClassId, idx: usize, node: NodeId) {
        let row = &mut self.classes[class.0];
        let free = row.unit_capacity.saturating_sub(&self.used[node.0]);
        row.set_node_free(idx, free);
        row.free_capacity = self.free_by_class[class.0].max(&ResourceVector::zero());
    }

    /// Speed factor a job class enjoys on a node class.
    pub fn speed_factor(&self, class: NodeClassId, job_class: JobClass) -> f64 {
        self.classes[class.0].speed_factor(job_class)
    }

    /// Iterate over class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = NodeClassId> {
        (0..self.classes.len()).map(NodeClassId)
    }

    /// Sanity check used by tests and debug assertions: no node exceeds its
    /// capacity and usage is non-negative; every row's `node_free` is
    /// exactly `capacity − used` (clamped at zero) bit for bit and its
    /// `free_capacity` exactly the clamped accumulator; the accumulators
    /// agree with a fresh per-node sum (within floating-point tolerance);
    /// and every fit index agrees with ranks recomputed from `node_free`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let bits = |v: &ResourceVector| v.0.map(f64::to_bits);
        for (row, (&start, accumulated)) in self
            .classes
            .iter()
            .zip(self.class_start.iter().zip(&self.free_by_class))
        {
            let class = row.id;
            let cap = row.unit_capacity;
            if row.node_free.len() != row.node_count {
                return Err(format!(
                    "{class} row holds {} node frees for {} nodes",
                    row.node_free.len(),
                    row.node_count
                ));
            }
            let mut summed = ResourceVector::zero();
            for (idx, free) in row.node_free.iter().enumerate() {
                let node = NodeId(start + idx);
                let used = self.used[node.0];
                if !used.is_non_negative() {
                    return Err(format!("{node} has negative usage {used}"));
                }
                if !used.fits_in(&cap) {
                    return Err(format!("{node} over capacity: used {used} capacity {cap}"));
                }
                let expect = cap.saturating_sub(&used);
                if bits(free) != bits(&expect) {
                    return Err(format!(
                        "{node} row free {free} differs from capacity - used {expect}"
                    ));
                }
                summed += *free;
            }
            let clamped = accumulated.max(&ResourceVector::zero());
            if bits(&row.free_capacity) != bits(&clamped) {
                return Err(format!(
                    "{class} row free capacity {} differs from the clamped aggregate {clamped}",
                    row.free_capacity
                ));
            }
            for i in 0..NUM_RESOURCES {
                if (summed.0[i] - clamped.0[i]).abs() > 1e-6 {
                    return Err(format!(
                        "{class} free-capacity aggregate drifted: maintained {clamped} vs summed {summed}"
                    ));
                }
            }
            row.fit_index
                .check(&cap, row.node_free.iter().copied())
                .map_err(|e| format!("{class}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeClassSpec;
    use crate::fit_index::rank_floor;
    use crate::node::SpeedProfile;

    fn cluster() -> Cluster {
        Cluster::new(&ClusterSpec::icpp_default())
    }

    /// One class of a single 16-core, 2-GPU machine.
    fn one_node() -> Cluster {
        Cluster::new(&ClusterSpec::new(vec![NodeClassSpec::new(
            "single",
            1,
            ResourceVector::of(16.0, 64.0, 2.0, 10.0),
            SpeedProfile::uniform(1.0),
        )]))
    }

    fn on_node_0(units: u32) -> [Placement; 1] {
        [Placement {
            node: NodeId(0),
            units,
        }]
    }

    #[test]
    fn construction_matches_spec() {
        let spec = ClusterSpec::icpp_default();
        let c = Cluster::new(&spec);
        assert_eq!(c.num_nodes(), 24);
        assert_eq!(c.num_classes(), 4);
        assert_eq!(c.total_capacity(), spec.total_capacity());
        assert_eq!(c.free_capacity(), spec.total_capacity());
        // Node ids are dense and grouped by class.
        assert_eq!(c.locate(NodeId(0)), (NodeClassId(0), 0));
        assert_eq!(c.locate(NodeId(23)), (NodeClassId(3), 3));
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = one_node();
        let capacity = c.class_row(NodeClassId(0)).unit_capacity;
        let d = ResourceVector::of(4.0, 8.0, 1.0, 1.0);
        c.apply_placement(&d, &on_node_0(1));
        assert_eq!(c.used(NodeId(0)), d);
        assert_eq!(
            c.class_row(NodeClassId(0)).node_free,
            vec![ResourceVector::of(12.0, 56.0, 1.0, 9.0)]
        );
        assert!(c.check_invariants().is_ok());
        c.release_placement(&d, &on_node_0(1));
        assert_eq!(c.used(NodeId(0)), ResourceVector::zero());
        assert_eq!(c.class_row(NodeClassId(0)).node_free, vec![capacity]);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn allocate_rejects_overcommit() {
        let c = one_node();
        let d = ResourceVector::of(20.0, 1.0, 0.0, 0.0);
        assert!(c.find_placement(NodeClassId(0), &d, 1).is_none());
        assert_eq!(c.class_row(NodeClassId(0)).units_available(&d), 0);
        assert_eq!(c.used(NodeId(0)), ResourceVector::zero());
    }

    #[test]
    fn utilization_tracks_dominant_resource() {
        let mut c = one_node();
        c.apply_placement(&ResourceVector::of(8.0, 8.0, 2.0, 0.0), &on_node_0(1));
        let capacity = c.class_row(NodeClassId(0)).unit_capacity;
        // GPUs saturated: the dominant share is 1.
        assert!((c.used(NodeId(0)).dominant_share(&capacity) - 1.0).abs() < 1e-9);
        let v = c.class_utilization(NodeClassId(0));
        assert!((v.0[0] - 0.5).abs() < 1e-9);
        assert!((v.0[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn placement_spreads_worst_fit() {
        let spec = ClusterSpec::tiny();
        let mut c = Cluster::new(&spec);
        let per_unit = ResourceVector::of(2.0, 4.0, 0.0, 1.0);
        // Ask for 6 units: each tiny node fits 4 (cpu bottleneck 8/2), so it
        // must span both machines.
        let placement = c
            .find_placement(NodeClassId(0), &per_unit, 6)
            .expect("placement exists");
        assert_eq!(placement.iter().map(|p| p.units).sum::<u32>(), 6);
        assert!(placement.len() == 2);
        c.apply_placement(&per_unit, &placement);
        assert!(c.check_invariants().is_ok());
        // Remaining capacity only fits 2 more units.
        let class = c.class_view(NodeClassId(0));
        assert_eq!(class.units_available_capped(&per_unit, 100), 2);
        c.release_placement(&per_unit, &placement);
        assert_eq!(c.free_capacity(), spec.total_capacity());
    }

    #[test]
    fn placement_fails_when_class_is_full() {
        let mut c = Cluster::new(&ClusterSpec::tiny());
        let per_unit = ResourceVector::of(8.0, 1.0, 0.0, 0.0);
        let placement = c.find_placement(NodeClassId(0), &per_unit, 2).unwrap();
        c.apply_placement(&per_unit, &placement);
        assert!(c.find_placement(NodeClassId(0), &per_unit, 1).is_none());
    }

    #[test]
    fn gpu_demand_only_fits_gpu_class() {
        let c = cluster();
        let per_unit = ResourceVector::of(1.0, 1.0, 1.0, 0.0);
        // Class 2 is the GPU class in the default spec.
        assert!(c.find_placement(NodeClassId(2), &per_unit, 1).is_some());
        assert!(c.find_placement(NodeClassId(0), &per_unit, 1).is_none());
        assert!(c.find_placement(NodeClassId(3), &per_unit, 1).is_none());
    }

    #[test]
    fn utilization_tracks_allocations() {
        let mut c = Cluster::new(&ClusterSpec::tiny());
        assert_eq!(c.overall_utilization(), 0.0);
        let per_unit = ResourceVector::of(4.0, 16.0, 0.5, 5.0);
        let placement = c.find_placement(NodeClassId(0), &per_unit, 2).unwrap();
        c.apply_placement(&per_unit, &placement);
        let util = c.overall_utilization();
        assert!(util > 0.3 && util <= 1.0, "util={util}");
        let class_util = c.class_utilization(NodeClassId(0));
        assert!((class_util.0[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn equal_capacity_ties_break_on_node_id_on_both_paths() {
        // Nodes with identical free capacity (same bucket rank) must be
        // visited in ascending NodeId order by the indexed path and the
        // reference walk alike.
        let c = Cluster::new(&ClusterSpec::tiny());
        let per_unit = ResourceVector::of(2.0, 4.0, 0.0, 1.0);
        let lowest = Some(on_node_0(1).to_vec());
        assert_eq!(
            c.find_placement(NodeClassId(0), &per_unit, 1),
            lowest,
            "indexed: equal-rank tie must go to the lowest id"
        );
        assert_eq!(
            c.find_placement_walk(NodeClassId(0), &per_unit, 1),
            lowest,
            "walk: equal-rank tie must go to the lowest id"
        );
    }

    /// True when the fit query for `per_unit` on `class` skips a node: its
    /// rank floor is non-zero and some node of the class ranks below it.
    fn floor_prunes(c: &Cluster, class: NodeClassId, per_unit: &ResourceVector) -> bool {
        let row = c.class_row(class);
        let floor = rank_floor(per_unit, &row.unit_capacity);
        let fit = &row.fit_index;
        floor > 0 && (0..fit.len()).any(|i| fit.rank(i) < floor)
    }

    #[test]
    fn indexed_and_walk_placements_are_identical() {
        // Drive both paths through an allocate/release churn and require
        // byte-identical placements and exact unit counts at every step.
        // Every class sees every demand, and the node-filling ones leave
        // some steps querying past full nodes below the rank floor. The
        // I/O-heavy one fills a node's I/O with CPU to spare, so an
        // I/O-free demand (rank floor 0) must count that rank-0 node too.
        let spec = ClusterSpec::icpp_default();
        let mut c = Cluster::new(&spec);
        let demands = [
            ResourceVector::of(2.0, 4.0, 0.0, 1.0),
            ResourceVector::of(7.0, 1.0, 0.0, 0.0),
            ResourceVector::of(1.0, 100.0, 0.0, 0.0),
            ResourceVector::of(4.0, 16.0, 1.0, 2.0),
            ResourceVector::of(8.0, 32.0, 0.0, 2.5),
            ResourceVector::of(4.0, 32.0, 1.0, 6.25),
            ResourceVector::of(1.0, 2.0, 0.0, 5.0),
        ];
        let mut live: Vec<(ResourceVector, Vec<Placement>)> = Vec::new();
        let mut pruned_steps = 0;
        for step in 0..60usize {
            let class = NodeClassId(step % c.num_classes());
            let per_unit = demands[(step / c.num_classes() + step) % demands.len()];
            let units = 1 + (step % 5) as u32;
            pruned_steps += usize::from(floor_prunes(&c, class, &per_unit));
            // The class's snapshot counts what a fresh per-node sum counts.
            let fresh_sum = c
                .class_row(class)
                .node_free
                .iter()
                .map(|free| units_that_fit(free, &per_unit))
                .fold(0u32, u32::saturating_add);
            let view = c.class_view(class);
            assert_eq!(
                view.units_available(&per_unit),
                fresh_sum,
                "step {step}: indexed count disagrees with the fresh per-node sum"
            );
            for cap in [0, 1, units, fresh_sum, fresh_sum + 1] {
                assert_eq!(
                    view.units_available_capped(&per_unit, cap),
                    fresh_sum.min(cap),
                    "step {step}: capped count at {cap}"
                );
            }
            let indexed = c.find_placement(class, &per_unit, units);
            let walk = c.find_placement_walk(class, &per_unit, units);
            assert_eq!(indexed, walk, "step {step} diverged");
            if let Some(p) = indexed {
                c.apply_placement(&per_unit, &p);
                live.push((per_unit, p));
            }
            // Free the oldest allocation every third step to churn ranks.
            if step % 3 == 2 && !live.is_empty() {
                let (d, p) = live.remove(0);
                c.release_placement(&d, &p);
            }
            c.check_invariants().expect("invariants hold");
        }
        assert!(
            pruned_steps > 0,
            "no step queried below a non-zero rank floor"
        );
        for (d, p) in live.drain(..) {
            c.release_placement(&d, &p);
        }
        assert_eq!(c.free_capacity(), spec.total_capacity());
        c.check_invariants().expect("invariants hold after drain");
    }

    #[test]
    fn units_available_respects_fragmentation() {
        let mut c = Cluster::new(&ClusterSpec::tiny());
        // Fill 6 of 8 cores on node 0.
        let filler = ResourceVector::of(6.0, 1.0, 0.0, 0.0);
        c.apply_placement(&filler, &on_node_0(1));
        // A 4-core unit now only fits on node 1 even though 10 cores are free
        // cluster-wide.
        let per_unit = ResourceVector::of(4.0, 1.0, 0.0, 0.0);
        assert_eq!(c.class_view(NodeClassId(0)).units_available(&per_unit), 2);
    }
}
