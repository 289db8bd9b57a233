//! Property-based tests of the simulator's core data structures: resource
//! algebra, placement/release round-trips, event ordering, speedup models and
//! time-utility functions.

use proptest::prelude::*;
use tcrm_sim::allocation::{Allocation, Placement};
use tcrm_sim::node::SpeedProfile;
use tcrm_sim::prelude::*;
use tcrm_sim::{EventKind, EventQueue};

fn arb_resources() -> impl Strategy<Value = ResourceVector> {
    (0.0f64..64.0, 0.0f64..256.0, 0.0f64..8.0, 0.0f64..40.0)
        .prop_map(|(c, m, g, i)| ResourceVector::of(c, m, g, i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Resource vector algebra
    // ------------------------------------------------------------------

    #[test]
    fn addition_then_subtraction_is_identity(a in arb_resources(), b in arb_resources()) {
        let back = (a + b) - b;
        for i in 0..NUM_RESOURCES {
            prop_assert!((back.0[i] - a.0[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn fits_in_is_monotone_in_capacity(demand in arb_resources(), cap in arb_resources(), extra in arb_resources()) {
        if demand.fits_in(&cap) {
            prop_assert!(demand.fits_in(&(cap + extra)));
        }
    }

    #[test]
    fn dominant_share_bounds(demand in arb_resources(), cap in arb_resources()) {
        let share = demand.dominant_share(&cap);
        prop_assert!(share >= 0.0);
        if share <= 1.0 && share.is_finite() {
            // A demand whose dominant share is <= 1 fits in the capacity.
            prop_assert!(demand.fits_in(&cap));
        }
        if !demand.fits_in(&cap) {
            prop_assert!(share > 1.0 - 1e-12 || share.is_infinite());
        }
    }

    #[test]
    fn saturating_sub_never_negative(a in arb_resources(), b in arb_resources()) {
        let r = a.saturating_sub(&b);
        prop_assert!(r.is_non_negative());
        for i in 0..NUM_RESOURCES {
            prop_assert!(r.0[i] <= a.0[i] + 1e-12);
        }
    }

    #[test]
    fn normalization_is_bounded_when_demand_fits(demand in arb_resources(), cap in arb_resources()) {
        if demand.fits_in(&cap) {
            let n = demand.normalized_by(&cap);
            for i in 0..NUM_RESOURCES {
                prop_assert!(n.0[i] >= 0.0 && n.0[i] <= 1.0 + 1e-9);
            }
        }
    }

    // ------------------------------------------------------------------
    // Node usage and allocation bookkeeping
    // ------------------------------------------------------------------

    #[test]
    fn node_allocate_release_roundtrip(
        cap in arb_resources(),
        count in 1usize..5,
        demand in arb_resources(),
        units in 1u32..6,
    ) {
        let spec = ClusterSpec::new(vec![NodeClassSpec::new(
            "random",
            count,
            cap,
            SpeedProfile::uniform(1.0),
        )]);
        let mut cluster = Cluster::new(&spec);
        let class = NodeClassId(0);
        let Some(placement) = cluster.find_placement(class, &demand, units) else {
            return Ok(());
        };
        cluster.apply_placement(&demand, &placement);
        prop_assert!(cluster.check_invariants().is_ok());
        for p in &placement {
            prop_assert!(cluster.used(p.node) == demand.scaled(p.units as f64));
        }
        cluster.release_placement(&demand, &placement);
        for p in &placement {
            let (_, idx) = cluster.locate(p.node);
            prop_assert!(cluster.used(p.node) == ResourceVector::zero());
            prop_assert_eq!(
                cluster.class_row(class).node_free[idx].0.map(f64::to_bits),
                cap.0.map(f64::to_bits)
            );
        }
        prop_assert!(cluster.check_invariants().is_ok());
    }

    #[test]
    fn allocation_shrink_conserves_units(units in prop::collection::vec(1u32..6, 1..6), shrink_by in 0u32..30) {
        let placements: Vec<Placement> = units
            .iter()
            .enumerate()
            .map(|(i, &u)| Placement { node: NodeId(i), units: u })
            .collect();
        let total: u32 = units.iter().sum();
        let mut alloc = Allocation::new(placements);
        let mut released = Vec::new();
        alloc.shrink(shrink_by, &mut released);
        let released_units: u32 = released.iter().map(|p| p.units).sum();
        prop_assert_eq!(released_units, shrink_by.min(total));
        prop_assert_eq!(alloc.total_units(), total - shrink_by.min(total));
        prop_assert!(alloc.placements.iter().all(|p| p.units > 0));
    }

    // ------------------------------------------------------------------
    // Event queue ordering
    // ------------------------------------------------------------------

    #[test]
    fn events_always_pop_in_nondecreasing_time(times in prop::collection::vec(0.0f64..1e6, 1..64)) {
        let mut q = EventQueue::new();
        for t in &times {
            q.push(*t, EventKind::DecisionEpoch);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= last);
            last = e.time;
        }
    }

    // ------------------------------------------------------------------
    // Speedup models and utility functions
    // ------------------------------------------------------------------

    #[test]
    fn speedup_models_are_monotone_and_at_most_linear(
        serial in 0.0f64..1.0,
        alpha in 0.1f64..1.0,
        p in 1u32..64,
    ) {
        for model in [
            SpeedupModel::Linear,
            SpeedupModel::Amdahl { serial_fraction: serial },
            SpeedupModel::Power { alpha },
        ] {
            let s = model.speedup(p);
            let s_next = model.speedup(p + 1);
            prop_assert!(s >= 1.0 - 1e-12);
            prop_assert!(s_next + 1e-12 >= s, "{model:?} not monotone at {p}");
            prop_assert!(s <= p as f64 + 1e-9, "{model:?} super-linear at {p}");
        }
    }

    #[test]
    fn utility_is_bounded_and_monotone_in_finish_time(
        value in 0.1f64..10.0,
        grace in 0.0f64..2.0,
        rel_deadline in 1.0f64..500.0,
        finish_a in 0.0f64..2000.0,
        finish_b in 0.0f64..2000.0,
    ) {
        let u = TimeUtility::soft(value, grace);
        let arrival = 0.0;
        let deadline = rel_deadline;
        let ua = u.utility(arrival, deadline, finish_a);
        let ub = u.utility(arrival, deadline, finish_b);
        prop_assert!(ua >= 0.0 && ua <= value + 1e-9);
        if finish_a <= finish_b {
            prop_assert!(ua + 1e-9 >= ub, "utility must not increase with later finish");
        }
        // Finishing exactly at the deadline earns full value.
        prop_assert!((u.utility(arrival, deadline, deadline) - value).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Cluster placement invariants
    // ------------------------------------------------------------------

    #[test]
    fn placement_never_exceeds_capacity(
        cpu in 0.5f64..10.0,
        mem in 1.0f64..40.0,
        units in 1u32..20,
    ) {
        let mut cluster = Cluster::new(&ClusterSpec::icpp_default());
        let per_unit = ResourceVector::of(cpu, mem, 0.0, 0.2);
        for class in cluster.class_ids().collect::<Vec<_>>() {
            if let Some(placement) = cluster.find_placement(class, &per_unit, units) {
                let placed: u32 = placement.iter().map(|p| p.units).sum();
                prop_assert_eq!(placed, units);
                cluster.apply_placement(&per_unit, &placement);
                prop_assert!(cluster.check_invariants().is_ok());
                cluster.release_placement(&per_unit, &placement);
            }
            prop_assert!(cluster.check_invariants().is_ok());
        }
        // After all releases the cluster is back to full capacity.
        let free = cluster.free_capacity();
        let total = ClusterSpec::icpp_default().total_capacity();
        for i in 0..NUM_RESOURCES {
            prop_assert!((free.0[i] - total.0[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn find_placement_agrees_with_units_available(
        cpu in 0.5f64..12.0,
        mem in 1.0f64..80.0,
        units in 1u32..24,
    ) {
        let cluster = Cluster::new(&ClusterSpec::icpp_default());
        let per_unit = ResourceVector::of(cpu, mem, 0.0, 0.1);
        for class in cluster.class_ids() {
            let available = cluster.class_view(class).units_available(&per_unit);
            let placement = cluster.find_placement(class, &per_unit, units);
            prop_assert_eq!(placement.is_some(), available >= units);
        }
    }

    // ------------------------------------------------------------------
    // The start memo's fit table
    // ------------------------------------------------------------------

    /// The identity the start memo's fit table relies on: a capped count
    /// is the uncapped one clamped to the cap, so one stored answer decides
    /// every smaller cap.
    #[test]
    fn units_available_capped_is_the_uncapped_count_clamped_to_the_cap(
        nodes in 1usize..10,
        capacity in (1.0f64..16.0, 1.0f64..64.0, 0.0f64..4.0, 1.0f64..20.0),
        fill in prop::collection::vec((arb_unit(), 1u32..4), 0..12),
        random_demand in arb_unit(),
        mode in 0u32..3,
        k in 1u32..6,
        offset in -1e-9f64..1e-9,
        caps in prop::collection::vec(0u32..48, 1..6),
    ) {
        let (cpu, mem, gpu, net) = capacity;
        let spec = ClusterSpec::new(vec![NodeClassSpec::new(
            "random",
            nodes,
            ResourceVector::of(cpu, mem, gpu, net),
            SpeedProfile::uniform(1.0),
        )]);
        let mut cluster = Cluster::new(&spec);
        let class = NodeClassId(0);
        for (per_unit, units) in &fill {
            if let Some(placement) = cluster.find_placement(class, per_unit, *units) {
                cluster.apply_placement(per_unit, &placement);
            }
        }
        let row = cluster.class_row(class);
        let demand = match mode {
            0 => random_demand,
            1 => ResourceVector::default(),
            // `k` units of it fill the first node's free vector to within
            // 1e-9 in every dimension.
            _ => ResourceVector(
                row.node_free[0]
                    .0
                    .map(|free| ((free + offset) / k as f64).max(0.0)),
            ),
        };
        let uncapped = row.units_available_capped(&demand, u32::MAX);
        for cap in caps.into_iter().chain([0, 1, u32::MAX]) {
            prop_assert_eq!(
                row.units_available_capped(&demand, cap),
                uncapped.min(cap),
                "cap {} on demand {:?}",
                cap,
                demand
            );
        }
    }
}

/// One unit of a job's demand.
fn arb_unit() -> impl Strategy<Value = ResourceVector> {
    (0.1f64..4.0, 0.5f64..16.0, 0.0f64..1.0, 0.1f64..2.0)
        .prop_map(|(c, m, g, n)| ResourceVector::of(c, m, g, n))
}
