//! The indexed pending-job queue: a slab with id, arrival-order and
//! deadline-order indices.
//!
//! The engine's original `Vec<Job>` pending queue made every lookup and
//! removal an O(n) scan (`iter().position()`), repeated at every `Start`
//! action. [`PendingQueue`] keeps the jobs in a slab (stable slots, free
//! list) and maintains three indices incrementally:
//!
//! * **id index** — `JobId → slot` hash map: O(1) lookup and removal entry;
//! * **arrival order** — slots in insertion order. This is the *canonical
//!   iteration order* the engine exposes to schedulers (`ClusterView::
//!   pending` preserves it exactly), so introducing the slab does not
//!   reorder anything a policy can observe;
//! * **deadline order** — slots sorted by `(deadline, id)`, maintained by
//!   binary-search insertion. The engine copies it into
//!   [`ClusterView::pending_by_deadline`](crate::view::ClusterView::pending_by_deadline)
//!   so EDF-family schedulers and the DRL queue-slot encoder stop re-sorting
//!   the queue at every decision.
//!
//! Removal from the middle of the arrival order shifts the tail (a `u32`
//! memmove plus a position fix-up), which costs O(pending) — but only once
//! per *started job*, not once per epoch, and moves 4-byte indices instead
//! of whole `Job` records.

use crate::job::{Job, JobId, JobIdMap};

/// A slab of pending jobs with maintained id/arrival/deadline indices.
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    /// Slab storage; `None` slots are on the free list.
    slots: Vec<Option<Job>>,
    /// Reusable slots of removed jobs.
    free_slots: Vec<u32>,
    /// `JobId → slot`.
    index: JobIdMap<u32>,
    /// Slots in insertion (arrival-event) order — the canonical view order.
    arrival_order: Vec<u32>,
    /// `slot → position in arrival_order` (parallel to `slots`).
    pos_in_arrival: Vec<u32>,
    /// Slots sorted by `(deadline, id)`.
    deadline_order: Vec<u32>,
    /// `slot → arrival sequence number` (parallel to `slots`).
    seq_of: Vec<u64>,
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
        self.pos_in_arrival.reserve(n);
        self.index.reserve(n);
        self.arrival_order.reserve(n);
        self.deadline_order.reserve(n);
        self.seq_of.reserve(n);
    }

    /// Drop every job but keep the allocated capacity (run-to-run reuse).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.index.clear();
        self.arrival_order.clear();
        self.pos_in_arrival.clear();
        self.deadline_order.clear();
        self.seq_of.clear();
        self.last_seq = 0;
    }

    /// O(1) lookup by id.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.index.get(&id).map(|&slot| self.job(slot))
    }

    /// True when `id` is pending.
    pub fn contains(&self, id: JobId) -> bool {
        self.index.contains_key(&id)
    }

    /// Jobs in arrival (insertion) order — the order `ClusterView::pending`
    /// exposes.
    pub fn iter(&self) -> impl Iterator<Item = &Job> + '_ {
        self.arrival_order.iter().map(move |&slot| self.job(slot))
    }

    /// Jobs in arrival order with their arrival sequence numbers (see
    /// [`Self::push`]).
    pub fn iter_with_seq(&self) -> impl Iterator<Item = (u64, &Job)> + '_ {
        self.arrival_order
            .iter()
            .map(move |&slot| (self.seq_of[slot as usize], self.job(slot)))
    }

    /// Positions (indices into the arrival order) sorted by `(deadline, id)`
    /// — the engine copies this into `ClusterView::pending_by_deadline`.
    pub fn deadline_positions(&self) -> impl Iterator<Item = u32> + '_ {
        self.deadline_order
            .iter()
            .map(move |&slot| self.pos_in_arrival[slot as usize])
    }

    /// Insert a job at the tail of the arrival order and into the deadline
    /// index. Returns the job's arrival sequence number: 1 for the first
    /// push after a clear, one more for every later push, so the numbers
    /// increase strictly along the arrival order. Job ids must be unique
    /// among pending jobs.
    pub fn push(&mut self, job: Job) -> u64 {
        // Hard assert, not debug: the (deadline, id) binary searches assume
        // a total order, and a NaN deadline admitted in a release build
        // would silently corrupt the index (wrong rows fed to every
        // deadline-ordered consumer) rather than fail loudly. One branch
        // per arrival is noise; `Job::validate` rejects such jobs earlier
        // on the checked paths.
        assert!(
            job.deadline.is_finite(),
            "job {} has a non-finite deadline",
            job.id
        );
        let key = (job.deadline, job.id);
        let dpos = self
            .deadline_order
            .partition_point(|&s| (self.job(s).deadline, self.job(s).id) < key);
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
                self.pos_in_arrival.push(0);
                self.seq_of.push(0);
                slot
            }
        };
        self.last_seq += 1;
        self.seq_of[slot as usize] = self.last_seq;
        self.pos_in_arrival[slot as usize] = self.arrival_order.len() as u32;
        self.arrival_order.push(slot);
        self.deadline_order.insert(dpos, slot);
        self.last_seq
    }

    /// Remove a job by id: O(log n) on the deadline index plus the
    /// arrival-order tail shift. Returns the job and the arrival-order
    /// position it occupied (the position `ClusterView::pending` drops).
    pub fn remove(&mut self, id: JobId) -> Option<(Job, u32)> {
        let slot = self.index.remove(&id)?;
        // Binary search on the unique, totally ordered (deadline, id) key —
        // deadlines are finite (asserted on push), so the probe always lands
        // exactly on the job's entry. Must run while the slot is still
        // occupied: the probe reads the job's own slot.
        let key = {
            let j = self.job(slot);
            (j.deadline, j.id)
        };
        let dpos = self
            .deadline_order
            .partition_point(|&s| (self.job(s).deadline, self.job(s).id) < key);
        debug_assert_eq!(
            self.deadline_order.get(dpos),
            Some(&slot),
            "deadline index out of sync for {id}"
        );
        self.deadline_order.remove(dpos);
        let job = self.slots[slot as usize].take().expect("slab out of sync");
        let pos = self.pos_in_arrival[slot as usize];
        self.arrival_order.remove(pos as usize);
        for &s in &self.arrival_order[pos as usize..] {
            self.pos_in_arrival[s as usize] -= 1;
        }
        self.free_slots.push(slot);
        Some((job, pos))
    }

    fn job(&self, slot: u32) -> &Job {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slot is empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use crate::resources::ResourceVector;

    fn job(id: u64, deadline: f64) -> Job {
        Job::builder(JobId(id), JobClass::Batch)
            .arrival(0.0)
            .total_work(10.0)
            .demand_per_unit(ResourceVector::of(1.0, 1.0, 0.0, 0.1))
            .deadline(deadline)
            .build()
    }

    #[test]
    fn insertion_order_is_preserved_and_indexed() {
        let mut q = PendingQueue::new();
        for (id, dl) in [(5u64, 30.0), (1, 10.0), (9, 20.0), (3, 10.0)] {
            q.push(job(id, dl));
        }
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![5, 1, 9, 3]);
        // Deadline order: (10,1), (10,3), (20,9), (30,5) → arrival positions.
        let dl: Vec<u32> = q.deadline_positions().collect();
        assert_eq!(dl, vec![1, 3, 2, 0]);
        assert!(q.contains(JobId(9)));
        assert_eq!(q.get(JobId(1)).unwrap().deadline, 10.0);
        assert!(q.get(JobId(2)).is_none());
    }

    #[test]
    fn removal_keeps_every_index_consistent() {
        let mut q = PendingQueue::new();
        for id in 0..8u64 {
            q.push(job(id, 100.0 - id as f64));
        }
        let (j, pos) = q.remove(JobId(3)).expect("job 3 pending");
        assert_eq!(j.id, JobId(3));
        assert_eq!(pos, 3);
        assert!(q.remove(JobId(3)).is_none());
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5, 6, 7]);
        // Deadline order is descending-id here (later ids = earlier deadline).
        let by_deadline: Vec<u64> = q
            .deadline_positions()
            .map(|p| q.iter().nth(p as usize).unwrap().id.0)
            .collect();
        assert_eq!(by_deadline, vec![7, 6, 5, 4, 2, 1, 0]);
        // Slots are recycled; sequence numbers are not.
        assert_eq!(q.push(job(42, 1.0)), 9);
        let seqs: Vec<u64> = q.iter_with_seq().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(q.len(), 8);
        assert_eq!(q.deadline_positions().next(), Some(7));
    }

    #[test]
    fn clear_retains_capacity_and_resets_state() {
        let mut q = PendingQueue::new();
        for id in 0..16u64 {
            q.push(job(id, id as f64));
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.deadline_positions().count(), 0);
        assert_eq!(q.push(job(7, 3.0)), 1, "sequence numbers restart");
        assert_eq!(q.len(), 1);
        assert_eq!(q.get(JobId(7)).unwrap().deadline, 3.0);
    }
}
