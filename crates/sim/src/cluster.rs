//! The cluster: a set of heterogeneous nodes plus placement logic.

use crate::allocation::Placement;
use crate::config::ClusterSpec;
use crate::fit_index::{bucket_rank, rank_floor, units_that_fit, FitIndex};
use crate::job::JobClass;
use crate::node::{Node, NodeClassId, NodeId};
use crate::resources::{ResourceVector, NUM_RESOURCES};
use crate::view::NodeClassView;

/// A concrete cluster instantiated from a [`ClusterSpec`].
///
/// The cluster owns the node capacity bookkeeping and the placement search.
/// It does not know about jobs or time; the [`crate::engine::Simulator`] maps
/// jobs to placements through it.
///
/// Three pieces of *indexed state* keep the per-epoch cost independent of
/// the node count:
///
/// * nodes are stored contiguously per class (the order
///   [`ClusterSpec::build_nodes`] emits), so [`Self::nodes_of_class`] is a
///   slice walk over one class instead of a filter over every node;
/// * per-class free capacity is maintained **as deltas** on every
///   [`Self::apply_placement`] / [`Self::release_placement`] instead of being
///   re-summed over the nodes at every read —
///   [`Self::free_capacity_of_class`] and everything built on it
///   (utilisation sampling, view refills, feature extraction) is O(1) per
///   class;
/// * each class carries a bucketed free-capacity [`FitIndex`]
///   delta-updated by the same two methods, so [`Self::find_placement`]
///   visits nodes in worst-fit order without the per-start sort that capped
///   `sim_scale` at 256 nodes. The pre-index slice walk survives as the
///   property-tested oracle [`Self::find_placement_walk`] (re-keyed to the
///   same `(bucket_rank desc, id asc)` order), which the engine never calls.
///
/// The cluster answers placement queries only. "How many units fit on this
/// class?" is asked of the class's snapshot, [`Self::class_view`] — the
/// row every [`crate::ClusterView`] holds, which keeps its own fit index.
///
/// [`Self::check_invariants`] cross-checks both the aggregates and the fit
/// indices against a fresh per-node recomputation.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    nodes: Vec<Node>,
    /// Contiguous `[start, end)` node-index range of each class.
    class_ranges: Vec<(usize, usize)>,
    /// Delta-maintained per-class free capacity (see the type docs).
    free_by_class: Vec<ResourceVector>,
    /// Delta-maintained per-class bucketed placement index (see the type
    /// docs), serving every fit query and [`Self::find_placement`].
    fit: Vec<FitIndex>,
}

impl Cluster {
    /// Instantiate all nodes described by the spec.
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = spec.build_nodes();
        let mut class_ranges = Vec::with_capacity(spec.num_classes());
        let mut start = 0usize;
        for (ci, class) in spec.node_classes.iter().enumerate() {
            let end = start + class.count;
            class_ranges.push((start, end));
            debug_assert!(
                nodes[start..end].iter().all(|n| n.class == NodeClassId(ci)),
                "build_nodes must emit classes contiguously"
            );
            start = end;
        }
        let free_by_class = (0..spec.num_classes())
            .map(|ci| spec.class_capacity(NodeClassId(ci)))
            .collect();
        let mut cluster = Cluster {
            fit: vec![FitIndex::new(); spec.num_classes()],
            spec,
            nodes,
            class_ranges,
            free_by_class,
        };
        cluster.rebuild_fit_indices();
        cluster
    }

    /// Per-node capacity of one class (uniform within a class by
    /// construction) — the denominator every bucket rank is computed
    /// against, on the cluster and the view path alike.
    pub fn unit_capacity_of_class(&self, class: NodeClassId) -> ResourceVector {
        self.spec.node_classes[class.0].capacity
    }

    /// Rebuild every class's fit index from the nodes' current free vectors.
    fn rebuild_fit_indices(&mut self) {
        for ci in 0..self.spec.num_classes() {
            let cap = self.spec.node_classes[ci].capacity;
            let (start, end) = self.class_ranges[ci];
            let frees = self.nodes[start..end].iter().map(|n| n.free());
            self.fit[ci].rebuild(&cap, frees);
        }
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Release every allocation, returning the cluster to its freshly built
    /// state without reconstructing the nodes. Re-derives the per-class
    /// aggregates from the spec, so accumulated floating-point residue from a
    /// previous run cannot carry over.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.used = ResourceVector::zero();
        }
        for (ci, free) in self.free_by_class.iter_mut().enumerate() {
            *free = self.spec.class_capacity(NodeClassId(ci));
        }
        // O(n) refill of the retained fit-index buffers (no allocation).
        self.rebuild_fit_indices();
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of machines.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of node classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes()
    }

    /// One node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Nodes of one class (a contiguous slice walk, not a full-cluster
    /// filter).
    pub fn nodes_of_class(&self, class: NodeClassId) -> impl Iterator<Item = &Node> {
        self.class_nodes(class).iter()
    }

    /// The contiguous node slice of one class.
    pub fn class_nodes(&self, class: NodeClassId) -> &[Node] {
        let (start, end) = self.class_ranges[class.0];
        &self.nodes[start..end]
    }

    /// Position of `node` within its class (dense, in node-id order).
    pub fn index_in_class(&self, node: NodeId) -> usize {
        let class = self.nodes[node.0].class;
        node.0 - self.class_ranges[class.0].0
    }

    /// Free capacity aggregated over one node class: an O(1) read of the
    /// delta-maintained aggregate (clamped at zero to absorb float residue).
    pub fn free_capacity_of_class(&self, class: NodeClassId) -> ResourceVector {
        self.free_by_class[class.0].max(&ResourceVector::zero())
    }

    /// Total capacity of one node class.
    pub fn total_capacity_of_class(&self, class: NodeClassId) -> ResourceVector {
        self.spec.class_capacity(class)
    }

    /// Free capacity aggregated over the whole cluster (O(classes), from the
    /// delta-maintained aggregates).
    pub fn free_capacity(&self) -> ResourceVector {
        self.free_by_class
            .iter()
            .fold(ResourceVector::zero(), |acc, f| {
                acc + f.max(&ResourceVector::zero())
            })
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
        let total = self.spec.total_capacity();
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

    /// Snapshot of one class as schedulers see it: the row every
    /// [`crate::ClusterView`] holds, its fit index built. The engine's full
    /// view rebuild builds its class rows through this.
    pub fn class_view(&self, id: NodeClassId) -> NodeClassView {
        let spec = &self.spec.node_classes[id.0];
        let mut view = NodeClassView {
            id,
            name: spec.name.clone(),
            node_count: spec.count,
            total_capacity: self.total_capacity_of_class(id),
            free_capacity: self.free_capacity_of_class(id),
            node_free: Vec::with_capacity(spec.count),
            // Straight from the spec (not derived by division) so view-side
            // bucket ranks are bit-identical to the cluster's.
            unit_capacity: spec.capacity,
            fit_index: FitIndex::new(),
            speed_factors: spec.speed.as_array(),
        };
        self.refill_class_view(&mut view);
        view
    }

    /// Refill a class view's per-node free rows from the nodes and rebuild
    /// its fit index, into the retained buffers (no allocation once
    /// warmed) — the reference recomputation the incremental
    /// [`NodeClassView::set_node_free`] maintenance is checked against.
    pub(crate) fn refill_class_view(&self, view: &mut NodeClassView) {
        view.node_free.clear();
        view.node_free
            .extend(self.nodes_of_class(view.id).map(|n| n.free()));
        view.rebuild_fit_index();
    }

    /// Find a placement for `units` parallel units of `per_unit` demand on
    /// machines of `class`, or `None` if the class cannot host them.
    ///
    /// The policy is worst-fit across the class (fill the emptiest machine
    /// first) which spreads elastic jobs and leaves room to grow. "Emptiest"
    /// is keyed on the node's [`bucket_rank`] — the floor-log2 bucket of its
    /// scarcest relative free resource, the same demand-independent key the
    /// [`FitIndex`] maintains — and ties break on the lower node id so the
    /// search is deterministic. The search walks the class's [`FitIndex`]
    /// in exactly this `(bucket_rank desc, id asc)` order; the reference
    /// [`Self::find_placement_walk`] sorts the class slice into the same
    /// order, which keeps the two byte-identical (pinned by
    /// `tests/placement_index.rs`).
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
        self.find_placement_indexed(class, per_unit, units, placements)
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
            let first = self.nodes_of_class(class).next();
            placements.extend(first.map(|n| Placement { node: n.id, units }));
            return Some(first.is_some());
        }
        None
    }

    /// Indexed placement: O(placed + skipped) bucket-order traversal, no
    /// per-start sort, that stops at the demand's [`rank_floor`] (the nodes
    /// below it fit nothing, so the walk skips them too).
    fn find_placement_indexed(
        &self,
        class: NodeClassId,
        per_unit: &ResourceVector,
        units: u32,
        placements: &mut Vec<Placement>,
    ) -> bool {
        let slice = self.class_nodes(class);
        let mut remaining = units;
        let floor = rank_floor(per_unit, &self.unit_capacity_of_class(class));
        for idx in self.fit[class.0].nodes_desc_from(floor) {
            let node = &slice[idx];
            let fit = units_that_fit(&node.free(), per_unit);
            if fit == 0 {
                continue;
            }
            let take = fit.min(remaining);
            placements.push(Placement {
                node: node.id,
                units: take,
            });
            remaining -= take;
            if remaining == 0 {
                return true;
            }
        }
        false
    }

    /// Reference placement: the pre-index slice walk, a test oracle that the
    /// engine never calls. Same contract as [`Self::find_placement`], but
    /// sorts the whole class slice into the identical
    /// `(bucket_rank desc, id asc)` worst-fit order on every call — O(n log n)
    /// per search instead of O(placed + skipped).
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
        let cap = self.unit_capacity_of_class(class);
        let mut candidates: Vec<(&Node, u32, u8)> = self
            .nodes_of_class(class)
            .map(|n| {
                let free = n.free();
                (n, units_that_fit(&free, per_unit), bucket_rank(&free, &cap))
            })
            .filter(|(_, fit, _)| *fit > 0)
            .collect();
        // Emptiest bucket first, then lowest id.
        candidates.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.id.cmp(&b.0.id)));
        let mut remaining = units;
        for (node, fit, _) in candidates {
            if remaining == 0 {
                break;
            }
            let take = fit.min(remaining);
            placements.push(Placement {
                node: node.id,
                units: take,
            });
            remaining -= take;
        }
        if remaining == 0 {
            Some(placements)
        } else {
            None
        }
    }

    /// Reserve resources for a placement. Panics in debug builds if the
    /// placement does not fit (placements must come from [`Self::find_placement`]
    /// against the current state).
    pub fn apply_placement(&mut self, per_unit: &ResourceVector, placements: &[Placement]) {
        for p in placements {
            let demand = per_unit.scaled(p.units as f64);
            let ok = self.nodes[p.node.0].allocate(&demand);
            debug_assert!(ok, "placement on {} does not fit", p.node);
            if !ok {
                // Defensive: force the accounting anyway so release stays
                // symmetric; callers validate with find_placement first.
                self.nodes[p.node.0].used += demand;
            }
            self.free_by_class[self.nodes[p.node.0].class.0] -= demand;
            self.reindex_node(p.node);
        }
    }

    /// Release the resources of a placement.
    pub fn release_placement(&mut self, per_unit: &ResourceVector, placements: &[Placement]) {
        for p in placements {
            let demand = per_unit.scaled(p.units as f64);
            self.nodes[p.node.0].release(&demand);
            self.free_by_class[self.nodes[p.node.0].class.0] += demand;
            self.reindex_node(p.node);
        }
    }

    /// Delta-update the fit index after one node's usage changed.
    fn reindex_node(&mut self, node: NodeId) {
        let n = &self.nodes[node.0];
        let ci = n.class.0;
        let idx = node.0 - self.class_ranges[ci].0;
        let free = n.free();
        let cap = self.spec.node_classes[ci].capacity;
        self.fit[ci].update(idx, &free, &cap);
    }

    /// Speed factor a job class enjoys on a node class.
    pub fn speed_factor(&self, class: NodeClassId, job_class: JobClass) -> f64 {
        self.spec.speed_factor(class, job_class)
    }

    /// Iterate over class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = NodeClassId> {
        (0..self.spec.num_classes()).map(NodeClassId)
    }

    /// Sanity check used by tests and debug assertions: no node exceeds its
    /// capacity, usage is non-negative, and the delta-maintained per-class
    /// free-capacity aggregates agree with a fresh per-node sum (within
    /// floating-point tolerance).
    pub fn check_invariants(&self) -> Result<(), String> {
        for n in &self.nodes {
            if !n.used.is_non_negative() {
                return Err(format!("{} has negative usage {}", n.id, n.used));
            }
            if !n.used.fits_in(&n.capacity) {
                return Err(format!(
                    "{} over capacity: used {} capacity {}",
                    n.id, n.used, n.capacity
                ));
            }
        }
        for class in self.class_ids() {
            let summed = self
                .nodes_of_class(class)
                .fold(ResourceVector::zero(), |acc, n| acc + n.free());
            let aggregate = self.free_capacity_of_class(class);
            for i in 0..NUM_RESOURCES {
                if (summed.0[i] - aggregate.0[i]).abs() > 1e-6 {
                    return Err(format!(
                        "{class} free-capacity aggregate drifted: maintained {aggregate} vs summed {summed}"
                    ));
                }
            }
            // The fit index must agree with ranks recomputed from the nodes.
            let cap = self.unit_capacity_of_class(class);
            self.fit[class.0]
                .check(&cap, self.nodes_of_class(class).map(|n| n.free()))
                .map_err(|e| format!("{class}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::icpp_default())
    }

    #[test]
    fn construction_matches_spec() {
        let c = cluster();
        assert_eq!(c.num_nodes(), 24);
        assert_eq!(c.num_classes(), 4);
        assert_eq!(c.free_capacity(), c.spec().total_capacity());
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn placement_spreads_worst_fit() {
        let mut c = Cluster::new(ClusterSpec::tiny());
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
        assert_eq!(c.free_capacity(), c.spec().total_capacity());
    }

    #[test]
    fn placement_fails_when_class_is_full() {
        let mut c = Cluster::new(ClusterSpec::tiny());
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
        let mut c = Cluster::new(ClusterSpec::tiny());
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
        let c = Cluster::new(ClusterSpec::tiny());
        let per_unit = ResourceVector::of(2.0, 4.0, 0.0, 1.0);
        let lowest = Some(vec![Placement {
            node: NodeId(0),
            units: 1,
        }]);
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
        let floor = rank_floor(per_unit, &c.unit_capacity_of_class(class));
        let fit = &c.fit[class.0];
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
        let mut c = Cluster::new(ClusterSpec::icpp_default());
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
                .nodes_of_class(class)
                .map(|n| units_that_fit(&n.free(), &per_unit))
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
        assert_eq!(c.free_capacity(), c.spec().total_capacity());
        c.check_invariants().expect("invariants hold after drain");
    }

    #[test]
    fn units_available_respects_fragmentation() {
        let mut c = Cluster::new(ClusterSpec::tiny());
        // Fill 6 of 8 cores on node 0.
        let filler = ResourceVector::of(6.0, 1.0, 0.0, 0.0);
        c.apply_placement(
            &filler,
            &[Placement {
                node: NodeId(0),
                units: 1,
            }],
        );
        // A 4-core unit now only fits on node 1 even though 10 cores are free
        // cluster-wide.
        let per_unit = ResourceVector::of(4.0, 1.0, 0.0, 0.0);
        assert_eq!(c.class_view(NodeClassId(0)).units_available(&per_unit), 2);
    }
}
