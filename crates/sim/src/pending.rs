//! The indexed pending-job queue: a slab with an id index and the arrival
//! order.
//!
//! The engine's original `Vec<Job>` pending queue made every lookup and
//! removal an O(n) scan (`iter().position()`), repeated at every `Start`
//! action. [`PendingQueue`] keeps the jobs' scheduler rows
//! ([`PendingJobView`], the engine's only record of a queued job: the
//! engine converts each `Job` once, on admission) in a slab (stable slots,
//! free list) and maintains two indices incrementally:
//!
//! * **id index** — `JobId → slot` hash map: O(1) lookup and removal entry;
//! * **arrival order** — slots in insertion order. This is the *canonical
//!   iteration order* the engine exposes to schedulers (`ClusterView::
//!   pending` preserves it exactly), so introducing the slab does not
//!   reorder anything a policy can observe. A row's position in it is found
//!   by binary search on [`PendingJobView::arrival_seq`], which increases
//!   strictly along the order.
//!
//! The deadline order is not kept here: each view maintains its own
//! deadline index as it replays the change log.
//!
//! Removal from the middle of the arrival order shifts the tail (a `u32`
//! memmove), which costs O(pending) — but only once per *started job*, not
//! once per epoch, and moves 4-byte indices instead of whole rows.

use crate::job::{JobId, JobIdMap};
use crate::view::PendingJobView;

/// A slab of pending-job rows with a maintained id index and arrival order.
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    /// Slab storage; `None` slots are on the free list.
    slots: Vec<Option<PendingJobView>>,
    /// Reusable slots of removed jobs.
    free_slots: Vec<u32>,
    /// `JobId → slot`.
    index: JobIdMap<u32>,
    /// Slots in insertion (arrival-event) order — the canonical view order.
    arrival_order: Vec<u32>,
    /// Sequence number of the last push (0: none since the last clear).
    last_seq: u64,
}

impl PendingQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.arrival_order.len()
    }

    /// True when no job is pending.
    pub fn is_empty(&self) -> bool {
        self.arrival_order.is_empty()
    }

    /// Pre-size every internal collection for `n` jobs.
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve(n);
        self.index.reserve(n);
        self.arrival_order.reserve(n);
    }

    /// Drop every job but keep the allocated capacity (run-to-run reuse).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.index.clear();
        self.arrival_order.clear();
        self.last_seq = 0;
    }

    /// O(1) lookup by id.
    pub fn get(&self, id: JobId) -> Option<&PendingJobView> {
        self.index.get(&id).map(|&slot| self.job(slot))
    }

    /// Rows in arrival (insertion) order — the order `ClusterView::pending`
    /// exposes.
    pub fn iter(&self) -> impl Iterator<Item = &PendingJobView> + '_ {
        self.arrival_order.iter().map(move |&slot| self.job(slot))
    }

    /// Insert a row at the tail of the arrival order, stamping its
    /// [`PendingJobView::arrival_seq`]: 1 for the first push after a clear,
    /// one more for every later push, so the numbers increase strictly
    /// along the arrival order. Returns the stored row. Job ids must be
    /// unique among pending jobs.
    pub fn push(&mut self, mut job: PendingJobView) -> &PendingJobView {
        // Hard assert, not debug: every view's deadline index is kept by
        // binary searches on `(deadline, id)`, which assume a total order.
        // A NaN deadline admitted in a release build would silently corrupt
        // those indices (wrong rows fed to every deadline-ordered consumer)
        // rather than fail loudly. One branch per arrival is noise;
        // `Job::validate` rejects such jobs earlier on the checked paths.
        assert!(
            job.deadline.is_finite(),
            "job {} has a non-finite deadline",
            job.id
        );
        self.last_seq += 1;
        job.arrival_seq = self.last_seq;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                let old = self.index.insert(job.id, slot);
                debug_assert!(old.is_none(), "duplicate pending job {}", job.id);
                self.slots[slot as usize] = Some(job);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                let old = self.index.insert(job.id, slot);
                debug_assert!(old.is_none(), "duplicate pending job {}", job.id);
                self.slots.push(Some(job));
                slot
            }
        };
        self.arrival_order.push(slot);
        self.job(slot)
    }

    /// Remove a job by id and return its row: the arrival position comes
    /// from a binary search on the row's `arrival_seq`, then the tail of the
    /// arrival order shifts down.
    pub fn remove(&mut self, id: JobId) -> Option<PendingJobView> {
        let slot = self.index.remove(&id)?;
        let seq = self.job(slot).arrival_seq;
        let pos = self
            .arrival_order
            .partition_point(|&s| self.job(s).arrival_seq < seq);
        debug_assert_eq!(
            self.arrival_order.get(pos),
            Some(&slot),
            "arrival order out of sync for {id}"
        );
        self.arrival_order.remove(pos);
        self.free_slots.push(slot);
        Some(self.slots[slot as usize].take().expect("slab out of sync"))
    }

    fn job(&self, slot: u32) -> &PendingJobView {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slot is empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobClass};
    use crate::resources::ResourceVector;

    fn job(id: u64, deadline: f64) -> PendingJobView {
        PendingJobView::from_job(
            &Job::builder(JobId(id), JobClass::Batch)
                .arrival(0.0)
                .total_work(10.0)
                .demand_per_unit(ResourceVector::of(1.0, 1.0, 0.0, 0.1))
                .deadline(deadline)
                .build(),
        )
    }

    #[test]
    fn insertion_order_is_preserved_and_indexed() {
        let mut q = PendingQueue::new();
        for (id, dl) in [(5u64, 30.0), (1, 10.0), (9, 20.0), (3, 10.0)] {
            q.push(job(id, dl));
        }
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![5, 1, 9, 3]);
        let seqs: Vec<u64> = q.iter().map(|j| j.arrival_seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert!(q.get(JobId(9)).is_some());
        assert_eq!(q.get(JobId(1)).unwrap().deadline, 10.0);
        assert!(q.get(JobId(2)).is_none());
    }

    #[test]
    fn removal_keeps_every_index_consistent() {
        let mut q = PendingQueue::new();
        for id in 0..8u64 {
            q.push(job(id, 100.0 - id as f64));
        }
        let j = q.remove(JobId(3)).expect("job 3 pending");
        assert_eq!((j.id, j.arrival_seq), (JobId(3), 4));
        assert!(q.remove(JobId(3)).is_none());
        assert!(q.get(JobId(3)).is_none());
        // Removing the first and the last row too: the binary search on the
        // arrival sequence finds rows at either end.
        assert_eq!(q.remove(JobId(0)).map(|j| j.id), Some(JobId(0)));
        assert_eq!(q.remove(JobId(7)).map(|j| j.id), Some(JobId(7)));
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 6]);
        // Slots are recycled; sequence numbers are not.
        assert_eq!(q.push(job(42, 1.0)).arrival_seq, 9);
        let seqs: Vec<u64> = q.iter().map(|j| j.arrival_seq).collect();
        assert_eq!(seqs, vec![2, 3, 5, 6, 7, 9]);
        assert_eq!(q.len(), 6);
        assert_eq!(q.get(JobId(42)).map(|j| j.arrival_seq), Some(9));
    }

    #[test]
    fn clear_retains_capacity_and_resets_state() {
        let mut q = PendingQueue::new();
        for id in 0..16u64 {
            q.push(job(id, id as f64));
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.iter().count(), 0);
        assert_eq!(
            q.push(job(7, 3.0)).arrival_seq,
            1,
            "sequence numbers restart"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(JobId(7)).unwrap().deadline, 3.0);
    }
}
