//! Allocations: where the parallel units of a running job live.
//!
//! An elastic job runs all of its units on machines of a *single* node class
//! (so the whole job executes at that class's speed factor), but the units may
//! be spread across several machines of that class. The [`Allocation`] records
//! the per-node placement so resources can be released or partially released
//! on scale-down.

use crate::job::JobId;
use crate::node::{NodeClassId, NodeId};
use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};

/// Units placed on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The machine.
    pub node: NodeId,
    /// Number of parallel units of the job placed on that machine.
    pub units: u32,
}

/// The complete placement of one running job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The job this allocation belongs to.
    pub job: JobId,
    /// Node class all placements belong to.
    pub class: NodeClassId,
    /// Per-node placements (non-empty, units all > 0).
    pub placements: Vec<Placement>,
    /// Resource demand of a single unit (copied from the job for convenient
    /// release computations).
    pub demand_per_unit: ResourceVector,
}

impl Allocation {
    /// Create an allocation; filters out zero-unit placements.
    pub fn new(
        job: JobId,
        class: NodeClassId,
        mut placements: Vec<Placement>,
        demand_per_unit: ResourceVector,
    ) -> Self {
        placements.retain(|p| p.units > 0);
        Allocation {
            job,
            class,
            placements,
            demand_per_unit,
        }
    }

    /// Total number of parallel units currently allocated.
    pub fn total_units(&self) -> u32 {
        self.placements.iter().map(|p| p.units).sum()
    }

    /// Total resources held by this allocation.
    pub fn total_demand(&self) -> ResourceVector {
        self.demand_per_unit.scaled(self.total_units() as f64)
    }

    /// Resources held on one specific node.
    pub fn demand_on(&self, node: NodeId) -> ResourceVector {
        let units: u32 = self
            .placements
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.units)
            .sum();
        self.demand_per_unit.scaled(units as f64)
    }

    /// Nodes touched by this allocation.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.placements.iter().map(|p| p.node)
    }

    /// Remove up to `units` units, preferring the placements with the fewest
    /// units first (so scale-down frees whole nodes as quickly as possible).
    /// Writes the placements that were released (for the cluster to free)
    /// into `released`, cleared first: the engine passes a pooled placement
    /// buffer, so a scale-down allocates nothing.
    pub fn shrink(&mut self, units: u32, released: &mut Vec<Placement>) {
        let mut to_remove = units;
        released.clear();
        // Sort ascending by units so small fragments are vacated first.
        self.placements.sort_by_key(|p| p.units);
        for p in &mut self.placements {
            if to_remove == 0 {
                break;
            }
            let take = p.units.min(to_remove);
            p.units -= take;
            to_remove -= take;
            if take > 0 {
                released.push(Placement {
                    node: p.node,
                    units: take,
                });
            }
        }
        self.placements.retain(|p| p.units > 0);
    }

    /// Add placements from a grow operation, merging with existing entries for
    /// the same node.
    pub fn grow(&mut self, additional: &[Placement]) {
        for add in additional {
            if add.units == 0 {
                continue;
            }
            if let Some(existing) = self.placements.iter_mut().find(|p| p.node == add.node) {
                existing.units += add.units;
            } else {
                self.placements.push(*add);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocation {
        Allocation::new(
            JobId(7),
            NodeClassId(1),
            vec![
                Placement {
                    node: NodeId(0),
                    units: 3,
                },
                Placement {
                    node: NodeId(1),
                    units: 1,
                },
            ],
            ResourceVector::of(2.0, 4.0, 0.0, 0.5),
        )
    }

    #[test]
    fn totals() {
        let a = alloc();
        assert_eq!(a.total_units(), 4);
        assert_eq!(a.total_demand(), ResourceVector::of(8.0, 16.0, 0.0, 2.0));
        assert_eq!(
            a.demand_on(NodeId(1)),
            ResourceVector::of(2.0, 4.0, 0.0, 0.5)
        );
        assert_eq!(a.demand_on(NodeId(9)), ResourceVector::zero());
    }

    #[test]
    fn zero_unit_placements_are_dropped() {
        let a = Allocation::new(
            JobId(1),
            NodeClassId(0),
            vec![Placement {
                node: NodeId(0),
                units: 0,
            }],
            ResourceVector::zero(),
        );
        assert!(a.placements.is_empty());
        assert_eq!(a.total_units(), 0);
    }

    #[test]
    fn shrink_prefers_small_fragments_and_reports_released() {
        let mut a = alloc();
        // A reused buffer: its stale entry must not survive.
        let mut released = vec![Placement {
            node: NodeId(9),
            units: 7,
        }];
        a.shrink(2, &mut released);
        // The 1-unit placement on node 1 goes first, then one unit from node 0.
        assert_eq!(a.total_units(), 2);
        let total_released: u32 = released.iter().map(|p| p.units).sum();
        assert_eq!(total_released, 2);
        assert!(released.iter().any(|p| p.node == NodeId(1) && p.units == 1));
        assert!(a.placements.iter().all(|p| p.units > 0));
    }

    #[test]
    fn shrink_more_than_available_empties_allocation() {
        let mut a = alloc();
        let mut released = Vec::new();
        a.shrink(100, &mut released);
        assert_eq!(a.total_units(), 0);
        assert!(a.placements.is_empty());
        assert_eq!(released.iter().map(|p| p.units).sum::<u32>(), 4);
    }

    #[test]
    fn grow_merges_same_node() {
        let mut a = alloc();
        a.grow(&[
            Placement {
                node: NodeId(0),
                units: 2,
            },
            Placement {
                node: NodeId(5),
                units: 1,
            },
            Placement {
                node: NodeId(6),
                units: 0,
            },
        ]);
        assert_eq!(a.total_units(), 7);
        assert_eq!(a.placements.len(), 3);
        assert_eq!(
            a.placements
                .iter()
                .find(|p| p.node == NodeId(0))
                .unwrap()
                .units,
            5
        );
    }
}
