//! The bucketed free-capacity placement index.
//!
//! Worst-fit placement used to be a sorted walk over a class's node slice on
//! every job start — O(n log n) per decision, the scale ceiling named in the
//! ROADMAP. The fix is to key worst-fit on a **demand-independent** quantity
//! that can be maintained incrementally: each node's *scarcest relative free
//! resource* (the minimum of `free_i / capacity_i` over the dimensions the
//! class actually has), quantised to its floor-log2 bucket. Nodes of a class
//! live in one of [`NUM_RANKS`] buckets ordered from full (rank 0) to
//! completely free ([`MAX_RANK`]); within a bucket they are kept in ascending
//! node order, so iterating buckets from the top yields the deterministic
//! worst-fit visit order `(rank desc, node id asc)` without any per-query
//! sort.
//!
//! The index is delta-updated on every allocation/release (an O(log bucket)
//! membership move) and rebuilt in O(n) when a retained snapshot refills from
//! scratch. Both the indexed queries and the reference walk
//! ([`crate::cluster::Cluster::find_placement_walk`], a test oracle the engine
//! never calls) order candidates by the *same* `(bucket_rank desc, id asc)`
//! key, which is what keeps their placements byte-identical (pinned in
//! `tests/placement_index.rs`).
//!
//! **Rank floor.** A fit query need not visit every bucket. A node fits one
//! unit of demand `d` when `(free_i + 1e-9) / d_i ≥ 1` on every demanded
//! dimension, i.e. `free_i ≥ d_i − 1e-9`. So when *every* positive-capacity
//! dimension of the class is demanded, a fitting node's scarcest fraction
//! is at least `g = min_i (d_i − 1e-9) / cap_i`, and its bucket is at least
//! the bucket of `g`. [`rank_floor`] returns that bucket minus one octave:
//! in floating point the fit test also accepts a `free_i` up to half an ulp
//! of `d_i` below `d_i − 1e-9`, never more than half of that difference, so
//! the scarcest fraction stays above `g / 2` (proptested below).
//! Queries walk [`FitIndex::nodes_desc_from`] that floor, skipping the full
//! nodes that dominate the low buckets under load; skipped nodes fit zero
//! units, so counts and placements are unchanged. The floor is 0 (the full
//! walk) when some positive-capacity dimension is undemanded — a CPU-only
//! job on a GPU class can fit a node whose GPUs are all taken — and when
//! `g` is not positive or NaN.
//!
//! Determinism note: `floor(log2(x))` is read straight from the IEEE-754
//! exponent bits instead of `f64::log2` — exact for every normal positive
//! double and identical on every platform, so index and walk can never be
//! split by a libm rounding difference.

use crate::resources::{ResourceVector, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

/// Number of free-fraction buckets. Rank 0 collects nodes whose scarcest
/// dimension is below 2^-15 of capacity (effectively full); the top rank
/// holds completely free nodes. 16 octaves discriminate free fractions down
/// to ~0.003% of a node, far below any placeable unit demand.
pub const NUM_RANKS: usize = 16;

/// The rank of a completely free node (`NUM_RANKS - 1`).
pub const MAX_RANK: u8 = (NUM_RANKS - 1) as u8;

/// Bucket rank of a node with free vector `free` in a class whose per-node
/// capacity is `unit_capacity`: `MAX_RANK + floor(log2(min_i free_i/cap_i))`
/// over the dimensions with positive capacity, clamped to `[0, MAX_RANK]`.
///
/// Edge cases: a fully free node (fraction ≥ 1, including a class with no
/// positive-capacity dimension at all, where the fraction stays `+inf`) ranks
/// [`MAX_RANK`]; zero, negative, subnormal or NaN fractions rank 0.
#[inline]
pub fn bucket_rank(free: &ResourceVector, unit_capacity: &ResourceVector) -> u8 {
    let mut frac = f64::INFINITY;
    for i in 0..NUM_RESOURCES {
        let cap = unit_capacity.0[i];
        if cap > 0.0 {
            let f = free.0[i] / cap;
            if f < frac {
                frac = f;
            }
        }
    }
    fraction_rank(frac)
}

/// The lowest bucket that can hold a node fitting one unit of `per_unit`
/// demand in a class whose per-node capacity is `unit_capacity`; every node
/// in a lower bucket provably fits zero units (see the module docs). 0 —
/// the full walk — when some positive-capacity dimension is undemanded
/// (zero, negative or NaN demand) or the guaranteed fraction is not
/// positive.
#[inline]
pub fn rank_floor(per_unit: &ResourceVector, unit_capacity: &ResourceVector) -> u8 {
    let mut g = f64::INFINITY;
    for i in 0..NUM_RESOURCES {
        let cap = unit_capacity.0[i];
        if cap > 0.0 {
            let d = per_unit.0[i];
            if !(d > 0.0) {
                return 0;
            }
            let f = (d - 1e-9) / cap;
            if f.is_nan() {
                return 0;
            }
            g = g.min(f);
        }
    }
    // One octave of margin absorbs the rounding of the fit test.
    fraction_rank(g).saturating_sub(1)
}

/// `MAX_RANK + floor(log2(frac))` clamped to `[0, MAX_RANK]`; zero,
/// negative, subnormal and NaN fractions rank 0.
#[inline]
fn fraction_rank(frac: f64) -> u8 {
    if frac >= 1.0 {
        return MAX_RANK;
    }
    if !(frac > 0.0) {
        // Zero, negative or NaN scarcest fraction: the node is full.
        return 0;
    }
    // floor(log2(frac)) via the biased exponent — exact for normal doubles.
    let biased = ((frac.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: far below 2^-15 of capacity.
        return 0;
    }
    let rank = MAX_RANK as i32 + (biased - 1023);
    rank.max(0) as u8
}

/// Bucketed free-capacity index over one node class.
///
/// Node positions are *in-class* indices (dense, node-id order), so the same
/// structure serves both the [`crate::cluster::Cluster`] (whose classes are
/// contiguous node ranges) and the per-class
/// [`crate::view::NodeClassView::node_free`] snapshot rows.
///
/// Steady-state maintenance is allocation-free: every bucket is pre-reserved
/// to the class size at (re)build, so membership moves are binary-searched
/// `Vec` inserts/removes that never touch the allocator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FitIndex {
    /// Current bucket of each in-class node index.
    rank_of: Vec<u8>,
    /// Per-rank membership, each sorted ascending by in-class index.
    /// Invariant: exactly [`NUM_RANKS`] buckets once built (empty when the
    /// index has never been built, e.g. a deserialized legacy snapshot —
    /// queries detect that through [`Self::len`] and fall back to a walk).
    buckets: Vec<Vec<u32>>,
}

impl FitIndex {
    /// An empty index (no nodes tracked; [`Self::len`] is 0).
    pub fn new() -> Self {
        FitIndex::default()
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.rank_of.len()
    }

    /// True when no nodes are tracked (a fresh or legacy-deserialized index).
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty()
    }

    /// Current rank of one node.
    pub fn rank(&self, idx: usize) -> u8 {
        self.rank_of[idx]
    }

    /// Rebuild the index from scratch over `frees` (in in-class node order).
    /// Retains and pre-reserves every buffer: after the first build for a
    /// given class size, neither rebuilds nor incremental updates allocate.
    pub fn rebuild<I>(&mut self, unit_capacity: &ResourceVector, frees: I)
    where
        I: IntoIterator<Item = ResourceVector>,
    {
        if self.buckets.len() != NUM_RANKS {
            self.buckets.resize_with(NUM_RANKS, Vec::new);
        }
        self.rank_of.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        for (i, free) in frees.into_iter().enumerate() {
            let rank = bucket_rank(&free, unit_capacity);
            self.rank_of.push(rank);
            // In-order pushes keep every bucket ascending.
            self.buckets[rank as usize].push(i as u32);
        }
        // One worst-case reservation per bucket: a membership move may push
        // any bucket to the full class size, and the steady-state loops must
        // never allocate.
        let n = self.rank_of.len();
        for b in &mut self.buckets {
            if b.capacity() < n {
                b.reserve(n - b.len());
            }
        }
    }

    /// Re-rank one node after its free vector changed (an allocation or a
    /// release touched it). O(log bucket) searches plus two memmoves.
    pub fn update(&mut self, idx: usize, free: &ResourceVector, unit_capacity: &ResourceVector) {
        let new_rank = bucket_rank(free, unit_capacity);
        let old_rank = self.rank_of[idx];
        if new_rank == old_rank {
            return;
        }
        let key = idx as u32;
        let old = &mut self.buckets[old_rank as usize];
        let pos = old
            .binary_search(&key)
            .expect("fit index bucket lost a member");
        old.remove(pos);
        let new = &mut self.buckets[new_rank as usize];
        let pos = new.binary_search(&key).unwrap_err();
        new.insert(pos, key);
        self.rank_of[idx] = new_rank;
    }

    /// The tracked in-class node indices in buckets `floor..=MAX_RANK`, in
    /// worst-fit visit order: emptiest bucket first, ascending node index
    /// within a bucket — exactly the `(bucket_rank desc, id asc)` order the
    /// reference walk sorts into. With the query's [`rank_floor`] these are
    /// the only nodes that can fit its demand; a floor of 0 yields them all.
    pub fn nodes_desc_from(&self, floor: u8) -> impl Iterator<Item = usize> + '_ {
        let floor = (floor as usize).min(self.buckets.len());
        self.buckets[floor..]
            .iter()
            .rev()
            .flat_map(|b| b.iter().map(|&i| i as usize))
    }

    /// Cross-check the index against freshly computed ranks over `frees`
    /// (the `check_invariants` hook): every node's stored rank must match a
    /// recomputation, every bucket must be ascending, and bucket membership
    /// must agree with `rank_of`.
    pub fn check<I>(&self, unit_capacity: &ResourceVector, frees: I) -> Result<(), String>
    where
        I: IntoIterator<Item = ResourceVector>,
    {
        let mut n = 0usize;
        for (i, free) in frees.into_iter().enumerate() {
            n += 1;
            let expect = bucket_rank(&free, unit_capacity);
            let got = *self
                .rank_of
                .get(i)
                .ok_or_else(|| format!("fit index tracks no node {i}"))?;
            if got != expect {
                return Err(format!(
                    "fit index rank drifted for node {i}: stored {got}, recomputed {expect} (free {free})"
                ));
            }
        }
        if self.rank_of.len() != n {
            return Err(format!(
                "fit index tracks {} nodes, class has {n}",
                self.rank_of.len()
            ));
        }
        if self.buckets.len() != NUM_RANKS {
            return Err(format!(
                "fit index has {} buckets, expected {NUM_RANKS}",
                self.buckets.len()
            ));
        }
        let mut members = 0usize;
        for (rank, bucket) in self.buckets.iter().enumerate() {
            if !bucket.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("fit index bucket {rank} is not strictly ascending"));
            }
            for &i in bucket {
                if self.rank_of[i as usize] as usize != rank {
                    return Err(format!(
                        "fit index node {i} sits in bucket {rank} but rank_of says {}",
                        self.rank_of[i as usize]
                    ));
                }
            }
            members += bucket.len();
        }
        if members != n {
            return Err(format!(
                "fit index buckets hold {members} members for {n} nodes"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeClassId, NodeId};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cap() -> ResourceVector {
        ResourceVector::of(8.0, 32.0, 0.0, 10.0)
    }

    #[test]
    fn rank_edges() {
        let c = cap();
        // Completely free and completely full.
        assert_eq!(bucket_rank(&c, &c), MAX_RANK);
        assert_eq!(bucket_rank(&ResourceVector::zero(), &c), 0);
        // Half free on the scarcest dimension: one octave below the top.
        let half = ResourceVector::of(4.0, 32.0, 0.0, 10.0);
        assert_eq!(bucket_rank(&half, &c), MAX_RANK - 1);
        // A quarter free: two octaves.
        let quarter = ResourceVector::of(8.0, 8.0, 0.0, 10.0);
        assert_eq!(bucket_rank(&quarter, &c), MAX_RANK - 2);
        // Vanishingly free clamps to rank 0 instead of underflowing.
        let sliver = ResourceVector::of(1e-9, 32.0, 0.0, 10.0);
        assert_eq!(bucket_rank(&sliver, &c), 0);
        // A class with no positive capacity at all: every node ties at the
        // top (pure id-order placement, the pre-index behaviour).
        let none = ResourceVector::zero();
        assert_eq!(bucket_rank(&none, &none), MAX_RANK);
        // Zero-capacity dimensions are ignored, not divided by.
        let gpu_free = ResourceVector::of(8.0, 32.0, 4.0, 10.0);
        assert_eq!(bucket_rank(&gpu_free, &c), MAX_RANK);
    }

    #[test]
    fn rank_is_exact_floor_log2() {
        let c = ResourceVector::of(1.0, 0.0, 0.0, 0.0);
        for e in 1..=(MAX_RANK as i32) {
            let frac = (2.0f64).powi(-e);
            let at = ResourceVector::of(frac, 0.0, 0.0, 0.0);
            assert_eq!(bucket_rank(&at, &c), MAX_RANK - e as u8, "at 2^-{e}");
            // Just below a boundary falls into the bucket beneath it.
            let below = ResourceVector::of(frac * (1.0 - 1e-12), 0.0, 0.0, 0.0);
            assert_eq!(
                bucket_rank(&below, &c),
                (MAX_RANK as i32 - e - 1).max(0) as u8,
                "below 2^-{e}"
            );
        }
    }

    /// Units of `per_unit` fitting into `free`, through the engine's own fit
    /// test (a node whose capacity is `free` and that has nothing allocated
    /// reports exactly `free` as its free vector).
    fn units_fitting(free: &ResourceVector, per_unit: &ResourceVector) -> u32 {
        Node::new(NodeId(0), NodeClassId(0), *free).units_that_fit(per_unit)
    }

    /// `x` moved by `steps` ulps (negative steps move down).
    fn ulps(mut x: f64, steps: i32) -> f64 {
        for _ in 0..steps.unsigned_abs() {
            x = if steps > 0 {
                x.next_up()
            } else {
                x.next_down()
            };
        }
        x
    }

    /// One dimension's `(capacity, demand, free)` from raw draws. Capacities
    /// include zero, arbitrary, power-of-two and *tight* ones — an exact
    /// power-of-two multiple of `demand − 1e-9`, so the guaranteed fraction
    /// `g` sits exactly on a bucket boundary. Demands include undemanded,
    /// at or below the 1e-9 tolerance, a few ulps above it, ordinary, larger
    /// than the capacity and NaN. Free values sit at exact multiples of the
    /// demand ±1 ulp, at the tolerance `demand − 1e-9` ±1 ulp, or anywhere
    /// in `[0, capacity]`.
    fn dimension(
        (cap_mode, demand_mode, free_mode, u, k, step): (u8, u8, u8, f64, i32, i32),
    ) -> (f64, f64, f64) {
        let mut cap = match cap_mode {
            0 => 0.0,
            1 => 1e-3 + u * 1e3,
            2 => 2f64.powi(k * 6),
            3 => 8.0 * 2f64.powi(k),
            _ => 1.0, // tight, set below
        };
        let scale = if cap > 0.0 { cap } else { 1.0 + u };
        let demand = match demand_mode {
            0 => 0.0,
            1 => [1e-9, 5e-10, 1e-12, -1.0][k.rem_euclid(4) as usize],
            2 => ulps(1e-9, 1 + k.rem_euclid(4)),
            3 => scale * (1.001 + 2.0 * u),
            4 => f64::NAN,
            5 => scale / 2f64.powi(k.rem_euclid(18)),
            _ => scale * (0.001 + 0.999 * u),
        };
        if cap_mode >= 4 && demand > 1e-9 {
            // Tight: g = (demand − 1e-9) / cap is exactly 2^-j.
            cap = (demand - 1e-9) * 2f64.powi(k.rem_euclid(15));
        }
        let free = match free_mode {
            0..=2 => ulps(demand * (1 + k.rem_euclid(4)) as f64, step),
            3..=5 => ulps(demand - 1e-9, step),
            6 => 0.0,
            _ => cap * u,
        };
        (cap, demand, free.max(0.0))
    }

    #[test]
    fn a_fitting_node_never_ranks_below_the_floor() {
        static FITTING: AtomicUsize = AtomicUsize::new(0);
        static PRUNING: AtomicUsize = AtomicUsize::new(0);
        static AT_FLOOR: AtomicUsize = AtomicUsize::new(0);
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(50_000))]

            fn a_fitting_node_never_ranks_below_the_floor(
                dims in prop::collection::vec(
                    (0u8..8, 0u8..12, 0u8..8, 0.0f64..1.0, -3i32..4, -1i32..2),
                    NUM_RESOURCES,
                ),
            ) {
                let mut cap = ResourceVector::zero();
                let mut demand = ResourceVector::zero();
                let mut free = ResourceVector::zero();
                for (i, raw) in dims.into_iter().enumerate() {
                    (cap.0[i], demand.0[i], free.0[i]) = dimension(raw);
                }
                let floor = rank_floor(&demand, &cap);
                for i in 0..NUM_RESOURCES {
                    if cap.0[i] > 0.0 && !(demand.0[i] > 0.0) {
                        prop_assert_eq!(floor, 0, "undemanded or NaN dimension {}", i);
                    }
                }
                let units = units_fitting(&free, &demand);
                if units >= 1 && units != u32::MAX {
                    let rank = bucket_rank(&free, &cap);
                    prop_assert!(
                        rank >= floor,
                        "fitting node ranks {} below floor {}: cap {:?} demand {:?} free {:?}",
                        rank, floor, cap, demand, free
                    );
                    FITTING.fetch_add(1, Ordering::Relaxed);
                    if floor > 0 {
                        PRUNING.fetch_add(1, Ordering::Relaxed);
                        if rank == floor {
                            AT_FLOOR.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        a_fitting_node_never_ranks_below_the_floor();
        // The draws must exercise the claim where it bites: fitting nodes
        // under a non-zero floor, some of them in the floor bucket itself
        // (the octave of margin is what admits them).
        assert!(FITTING.load(Ordering::Relaxed) > 1000);
        assert!(PRUNING.load(Ordering::Relaxed) > 100);
        assert!(
            AT_FLOOR.load(Ordering::Relaxed) > 0,
            "no fitting node sat at the floor"
        );
    }

    #[test]
    fn floor_edges() {
        let c = ResourceVector::of(16.0, 128.0, 4.0, 25.0);
        // Every dimension demanded: g = min(2/16, 8/128, 1/4, 1/25) ≈ 1/25,
        // bucket MAX_RANK − 5, minus one octave.
        let full = ResourceVector::of(2.0, 8.0, 1.0, 1.0);
        assert_eq!(rank_floor(&full, &c), MAX_RANK - 6);
        // A CPU-only job on the GPU class: a node whose GPUs are all taken
        // ranks 0 yet still fits it.
        let cpu_only = ResourceVector::of(2.0, 8.0, 0.0, 1.0);
        assert_eq!(rank_floor(&cpu_only, &c), 0);
        let gpus_taken = ResourceVector::of(16.0, 128.0, 0.0, 25.0);
        assert_eq!(bucket_rank(&gpus_taken, &c), 0);
        assert!(units_fitting(&gpus_taken, &cpu_only) >= 1);
        // NaN demand, demand within the tolerance, and NaN g all walk fully.
        let nan = ResourceVector::of(f64::NAN, 8.0, 1.0, 1.0);
        assert_eq!(rank_floor(&nan, &c), 0);
        let sliver = ResourceVector::of(1e-9, 8.0, 1.0, 1.0);
        assert_eq!(rank_floor(&sliver, &c), 0);
        let inf_cap = ResourceVector::of(f64::INFINITY, 0.0, 0.0, 0.0);
        let inf_demand = ResourceVector::of(f64::INFINITY, 0.0, 0.0, 0.0);
        assert_eq!(rank_floor(&inf_demand, &inf_cap), 0);
        // Demand above capacity floors one octave below the top; a demand
        // on a zero-capacity dimension does not enter g.
        let over = ResourceVector::of(64.0, 40.0, 0.0, 20.0);
        assert_eq!(rank_floor(&over, &cap()), MAX_RANK - 1);
        let over_gpu = ResourceVector::of(64.0, 40.0, 1e-3, 20.0);
        assert_eq!(rank_floor(&over_gpu, &cap()), MAX_RANK - 1);
    }

    #[test]
    fn rebuild_update_and_order() {
        let c = cap();
        let mut index = FitIndex::new();
        let frees = [
            c,                                        // node 0: free
            ResourceVector::of(4.0, 32.0, 0.0, 10.0), // node 1: half
            c,                                        // node 2: free
            ResourceVector::zero(),                   // node 3: full
        ];
        index.rebuild(&c, frees.iter().copied());
        assert_eq!(index.len(), 4);
        assert!(index.check(&c, frees.iter().copied()).is_ok());
        // Emptiest first, id-ascending within a bucket, full nodes last.
        let order: Vec<usize> = index.nodes_desc_from(0).collect();
        assert_eq!(order, vec![0, 2, 1, 3]);
        // A floor drops the buckets beneath it and keeps the order.
        let order: Vec<usize> = index.nodes_desc_from(MAX_RANK - 1).collect();
        assert_eq!(order, vec![0, 2, 1]);
        let order: Vec<usize> = index.nodes_desc_from(MAX_RANK).collect();
        assert_eq!(order, vec![0, 2]);
        // Free node 3 entirely: it joins the top bucket after 0 and 2.
        let mut frees = frees;
        frees[3] = c;
        index.update(3, &frees[3], &c);
        assert!(index.check(&c, frees.iter().copied()).is_ok());
        let order: Vec<usize> = index.nodes_desc_from(0).collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        // No-op update keeps everything in place.
        index.update(3, &frees[3], &c);
        assert!(index.check(&c, frees.iter().copied()).is_ok());
    }

    #[test]
    fn check_catches_drift() {
        let c = cap();
        let mut index = FitIndex::new();
        let frees = [c, ResourceVector::zero()];
        index.rebuild(&c, frees.iter().copied());
        // Lie about node 1's free vector: the cross-check must object.
        assert!(index.check(&c, [c, c].iter().copied()).is_err());
    }
}
