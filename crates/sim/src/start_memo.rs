//! The start pass's memo: which pending jobs can start, carried across the
//! views of one simulator run.

use crate::job::JobId;
use crate::node::NodeClassId;
use crate::view::{ClusterView, PendingJobView};
use std::cmp::Ordering;

/// Finds every pending job that can start now and its fastest class,
/// reusing what the previous call found.
///
/// [`Self::for_each_startable`] visits, in `(deadline, id)` order, every
/// pending row that fits some class at its minimum parallelism, with the
/// class [`ClusterView::best_class_for`] picks. The memo remembers which
/// jobs its last scan found startable, the newest
/// [`PendingJobView::arrival_seq`] it saw, and the view's run and
/// [`ClusterView::log_position`].
///
/// **The reuse rule.** A view of the same simulator run at a log position
/// no older than the memo's needs less than a full scan. Between two such
/// views, the later one differs from the earlier one in only two ways:
///
/// * pending rows have only left (started, cancelled, degraded) or arrived.
///   Arrivals, and the row a degrade re-admits, form the suffix of
///   [`ClusterView::pending`] past the remembered sequence number. No row
///   changed in place;
/// * every node's free capacity has only shrunk, except on the classes
///   whose [`ClusterView::released_at`] stamp lies after the memo's
///   position.
///
/// [`ClusterView::best_class_for`] is monotone in free capacity, so:
///
/// * if no class was released since, only the remembered startable jobs
///   plus the new arrivals are evaluated;
/// * otherwise one pass in `(deadline, id)` order evaluates those same
///   jobs, and every other job only if a `can_start` at its minimum
///   parallelism succeeds on one of the released classes: the other
///   classes have only lost capacity, so it still fits none of them.
///
/// Any other view gets the full scan: a view of another run (the engine
/// mints a new run on construction, clone and reset), or an older one.
/// The visits are identical either way.
#[derive(Debug, Clone, Default)]
pub struct StartMemo {
    /// Run of the last scan's view (0, never minted: nothing to reuse).
    run: u64,
    log_pos: usize,
    /// Arrival sequence number of the last pending row the last scan saw
    /// (0: none): later rows are new arrivals.
    seen_seq: u64,
    /// `(deadline, id)` keys the last scan found startable, in that order.
    startable: Vec<(f64, JobId)>,
    /// Reused buffer: the keys a memo scan evaluates.
    candidates: Vec<(f64, JobId)>,
    /// Reused buffer: the classes released since the last scan.
    released: Vec<NodeClassId>,
    full_rows: u64,
    memo_rows: u64,
    release_rows: u64,
    can_start_calls: u64,
}

impl StartMemo {
    /// Forget the memo and zero the counters (at simulation start).
    pub fn clear(&mut self) {
        self.run = 0;
        self.startable.clear();
        self.full_rows = 0;
        self.memo_rows = 0;
        self.release_rows = 0;
        self.can_start_calls = 0;
    }

    /// Pending rows evaluated by full scans since the last [`Self::clear`].
    pub fn full_rows(&self) -> u64 {
        self.full_rows
    }

    /// Pending rows evaluated by memo scans since the last [`Self::clear`].
    pub fn memo_rows(&self) -> u64 {
        self.memo_rows
    }

    /// Pending rows visited by release passes since the last
    /// [`Self::clear`].
    pub fn release_rows(&self) -> u64 {
        self.release_rows
    }

    /// [`ClusterView::can_start`] calls made by all three kinds of scan
    /// since the last [`Self::clear`].
    pub fn can_start_calls(&self) -> u64 {
        self.can_start_calls
    }

    /// Call `f` with every pending row of `view` that fits some class at
    /// its minimum parallelism and the fastest such class, in
    /// `(deadline, id)` order.
    pub fn for_each_startable(
        &mut self,
        view: &ClusterView,
        mut f: impl FnMut(&PendingJobView, NodeClassId),
    ) {
        let reuse =
            self.run != 0 && view.sync.run_id == self.run && view.sync.log_pos >= self.log_pos;
        // The last scan's keys become the candidates; `startable` collects
        // this scan's (the two buffers trade places every call).
        std::mem::swap(&mut self.startable, &mut self.candidates);
        self.startable.clear();
        if reuse {
            let log_pos = self.log_pos;
            self.released.clear();
            self.released.extend(
                (view.released_at.iter().enumerate())
                    .filter(|&(_, &at)| at > log_pos)
                    .map(|(class, _)| NodeClassId(class)),
            );
            let candidates = std::mem::take(&mut self.candidates);
            if self.released.is_empty() {
                self.memo_scan(candidates, view, &mut f);
            } else {
                self.release_scan(candidates, view, &mut f);
            }
        } else {
            for job in view.pending_in_deadline_order() {
                self.full_rows += 1;
                self.evaluate(job, view, &mut f);
            }
        }
        self.run = view.sync.run_id;
        self.log_pos = view.sync.log_pos;
        self.seen_seq = view.pending.last().map_or(0, |job| job.arrival_seq);
    }

    /// The pending rows that arrived after the last scan: a suffix of the
    /// arrival order.
    fn new_arrivals<'v>(&self, view: &'v ClusterView) -> &'v [PendingJobView] {
        let first = view
            .pending
            .partition_point(|job| job.arrival_seq <= self.seen_seq);
        &view.pending[first..]
    }

    /// No capacity was released: evaluate the last scan's startable keys
    /// plus the new arrivals, back in `(deadline, id)` order. A degraded
    /// row's key may appear twice; the lookup visits its row once.
    fn memo_scan(
        &mut self,
        mut candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId),
    ) {
        let new = self.new_arrivals(view);
        candidates.extend(new.iter().map(|job| (job.deadline, job.id)));
        candidates.sort_unstable_by(key_order);
        let mut from = 0;
        for &(deadline, id) in &candidates {
            from = view.deadline_position(from, deadline, id);
            let Some(&slot) = view.pending_by_deadline.get(from) else {
                break;
            };
            let job = &view.pending[slot as usize];
            if job.id == id {
                self.memo_rows += 1;
                self.evaluate(job, view, f);
                from += 1;
            }
        }
        self.candidates = candidates;
    }

    /// Capacity was released on the classes in `self.released`: one pass
    /// over the queue, evaluating the last scan's startable keys
    /// (`candidates`, sorted), the new arrivals and the rows that now fit
    /// a released class.
    fn release_scan(
        &mut self,
        candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId),
    ) {
        let mut next = candidates.iter().peekable();
        for job in view.pending_in_deadline_order() {
            self.release_rows += 1;
            let key = (job.deadline, job.id);
            while next
                .next_if(|&c| key_order(c, &key) == Ordering::Less)
                .is_some()
            {}
            let startable = next.next_if(|&c| c.1 == job.id).is_some();
            if startable || job.arrival_seq > self.seen_seq || self.fits_a_released_class(job, view)
            {
                self.evaluate(job, view, f);
            }
        }
        self.candidates = candidates;
    }

    fn fits_a_released_class(&mut self, job: &PendingJobView, view: &ClusterView) -> bool {
        for &class in &self.released {
            self.can_start_calls += 1;
            if view.can_start(job, class, job.min_parallelism) {
                return true;
            }
        }
        false
    }

    fn evaluate(
        &mut self,
        job: &PendingJobView,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId),
    ) {
        // `best_class_for` asks `can_start` once per class.
        self.can_start_calls += view.classes.len() as u64;
        let Some(class) = view.best_class_for(job) else {
            return;
        };
        self.startable.push((job.deadline, job.id));
        f(job, class);
    }
}

/// The `(deadline, id)` order of [`ClusterView::pending_by_deadline`].
fn key_order(a: &(f64, JobId), b: &(f64, JobId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}
