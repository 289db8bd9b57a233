//! The start pass's memo: which pending jobs can start, carried across the
//! views of one simulator run.

use crate::job::JobId;
use crate::node::NodeClassId;
use crate::resources::{ResourceVector, NUM_RESOURCES};
use crate::view::{ClusterView, PendingJobView};
use std::cmp::Ordering;

/// Finds every pending job that can start now, its fastest class and its
/// largest feasible parallelism there, reusing what the previous call
/// found.
///
/// [`Self::for_each_startable`] visits, in `(deadline, id)` order, every
/// pending row that fits some class at its minimum parallelism, with the
/// class [`ClusterView::best_class_for`] picks and
/// [`ClusterView::max_feasible_parallelism`] on it. The memo remembers
/// which jobs its last scan found startable, the groups of the jobs its
/// scans left blocked, the newest [`PendingJobView::arrival_seq`] it saw,
/// and the view's run and [`ClusterView::log_position`].
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
///   plus the new arrivals are evaluated (a memo scan);
/// * otherwise a release pass asks whether a job the last scans left
///   blocked now fits a released class: the other classes have only lost
///   capacity, so it still fits none of them. Whether a row fits a class at
///   its minimum parallelism depends only on its group, its
///   `(demand_per_unit, min_parallelism)` key. The memo keeps a superset
///   of the blocked rows' groups: every walk (a full scan or a release
///   walk) rebuilds it, and every memo scan adds the groups of the rows it
///   evaluated and found blocked; past eight groups it stops counting
///   and every release pass walks. The pass first asks `can_start` once per group and
///   released class (startable rows are evaluated anyway, so their groups
///   are not kept). If no group fits, the pass is the memo scan, which
///   visits the same rows in the same order (a skipped release pass).
///   Otherwise one walk in `(deadline, id)` order evaluates the remembered
///   startable jobs, the new arrivals and every other job that fits one of
///   the released classes.
///
/// Any other view gets the full scan: a view of another run (the engine
/// mints a new run on construction, clone and reset), or an older one.
/// The visits are identical either way.
///
/// **The fit table.** The view does not change during one call, and every
/// query the call makes (a `can_start`, a [`ClusterView::best_class_for`]
/// or a maximum feasible parallelism) is one
/// [`crate::NodeClassView::units_available_capped`]`(demand, cap)`, which
/// is `min(g, cap)` for a `g` that does not depend on `cap` (the aggregate
/// clamp, then an early-exit walk). So the call keeps a small table of
/// `(class, demand) → (cap asked, answer)` for the first eight demands it
/// meets: a stored answer decides every smaller cap, and every cap when it
/// is below the cap asked. A larger cap walks again, and so does every
/// query on a later demand, so a queue in which every row has its own
/// demand makes no more walks than without the table.
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
    /// A superset of the groups of the pending rows not in `startable`;
    /// longer than [`MAX_BLOCKED_GROUPS`] once it stopped counting.
    blocked: Vec<Group>,
    /// Reused buffer: the keys a memo scan evaluates.
    candidates: Vec<(f64, JobId)>,
    /// Reused buffer: the classes released since the last scan.
    released: Vec<NodeClassId>,
    fits: FitTable,
    full_rows: u64,
    memo_rows: u64,
    release_rows: u64,
    release_walks: u64,
    release_skips: u64,
}

/// The most blocked groups a release pass tests before walking: the
/// queues of the benchmark traces hold two to four.
const MAX_BLOCKED_GROUPS: usize = 8;

impl StartMemo {
    /// Forget the memo and zero the counters (at simulation start).
    pub fn clear(&mut self) {
        self.run = 0;
        self.startable.clear();
        self.blocked.clear();
        self.fits.walks = 0;
        self.full_rows = 0;
        self.memo_rows = 0;
        self.release_rows = 0;
        self.release_walks = 0;
        self.release_skips = 0;
    }

    /// Pending rows evaluated by full scans since the last [`Self::clear`].
    pub fn full_rows(&self) -> u64 {
        self.full_rows
    }

    /// Pending rows evaluated by memo scans since the last [`Self::clear`].
    pub fn memo_rows(&self) -> u64 {
        self.memo_rows
    }

    /// Pending rows visited by release passes (walked or skipped) since the
    /// last [`Self::clear`].
    pub fn release_rows(&self) -> u64 {
        self.release_rows
    }

    /// Release passes that walked the queue since the last [`Self::clear`].
    pub fn release_walks(&self) -> u64 {
        self.release_walks
    }

    /// Release passes that skipped the walk, because no blocked group fits
    /// a released class, since the last [`Self::clear`].
    pub fn release_skips(&self) -> u64 {
        self.release_skips
    }

    /// [`crate::NodeClassView::units_available_capped`] walks made by all
    /// kinds of scan since the last [`Self::clear`]: the fit queries the
    /// fit table did not answer.
    pub fn fit_walks(&self) -> u64 {
        self.fits.walks
    }

    /// Call `f(row, class, max_feasible)` with every pending row of `view`
    /// that fits some class at its minimum parallelism, the fastest such
    /// class and its largest feasible parallelism there, in
    /// `(deadline, id)` order.
    pub fn for_each_startable(
        &mut self,
        view: &ClusterView,
        mut f: impl FnMut(&PendingJobView, NodeClassId, u32),
    ) {
        let reuse =
            self.run != 0 && view.sync.run_id == self.run && view.sync.log_pos >= self.log_pos;
        // The last scan's keys become the candidates; `startable` collects
        // this scan's (the two buffers trade places every call).
        std::mem::swap(&mut self.startable, &mut self.candidates);
        self.startable.clear();
        self.fits.begin(view.classes.len());
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
                self.memo_rows += self.memo_scan(candidates, view, &mut f);
            } else if self.a_blocked_group_may_fit(view) {
                self.release_walks += 1;
                self.blocked.clear();
                self.release_scan(candidates, view, &mut f);
            } else {
                self.release_skips += 1;
                self.release_rows += self.memo_scan(candidates, view, &mut f);
            }
        } else {
            self.blocked.clear();
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

    /// Evaluate the last scan's startable keys plus the new arrivals, back
    /// in `(deadline, id)` order, and return how many rows it evaluated. A
    /// degraded row's key may appear twice; the lookup visits its row once.
    fn memo_scan(
        &mut self,
        mut candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId, u32),
    ) -> u64 {
        let new = self.new_arrivals(view);
        candidates.extend(new.iter().map(|job| (job.deadline, job.id)));
        candidates.sort_unstable_by(key_order);
        let (mut from, mut rows) = (0, 0);
        for &(deadline, id) in &candidates {
            from = view.deadline_position(from, deadline, id);
            let Some(&slot) = view.pending_by_deadline.get(from) else {
                break;
            };
            let job = &view.pending[slot as usize];
            if job.id == id {
                rows += 1;
                self.evaluate(job, view, f);
                from += 1;
            }
        }
        self.candidates = candidates;
        rows
    }

    /// Whether a release pass must walk the queue: some blocked group fits
    /// a released class at its minimum parallelism, or the groups stopped
    /// being counted.
    fn a_blocked_group_may_fit(&mut self, view: &ClusterView) -> bool {
        if self.blocked.len() > MAX_BLOCKED_GROUPS {
            return true;
        }
        let (fits, released) = (&mut self.fits, &self.released);
        self.blocked.iter().any(|group| {
            released
                .iter()
                .any(|&class| fits.units(view, class, &group.demand, group.min) >= group.min)
        })
    }

    /// Capacity was released on the classes in `self.released`: one pass
    /// over the queue, evaluating the last scan's startable keys
    /// (`candidates`, sorted), the new arrivals and the rows that now fit
    /// a released class.
    fn release_scan(
        &mut self,
        candidates: Vec<(f64, JobId)>,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId, u32),
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
            } else {
                self.block(job);
            }
        }
        self.candidates = candidates;
    }

    fn fits_a_released_class(&mut self, job: &PendingJobView, view: &ClusterView) -> bool {
        let fits = &mut self.fits;
        (self.released.iter()).any(|&class| fits.can_start(view, job, class))
    }

    fn evaluate(
        &mut self,
        job: &PendingJobView,
        view: &ClusterView,
        f: &mut impl FnMut(&PendingJobView, NodeClassId, u32),
    ) {
        let fits = &mut self.fits;
        let Some(class) = view.best_class_where(job, |class| fits.can_start(view, job, class))
        else {
            self.block(job);
            return;
        };
        // The class fits the minimum, so this is at least the minimum.
        let max_feasible = fits.units(view, class, &job.demand_per_unit, job.max_parallelism);
        self.startable.push((job.deadline, job.id));
        f(job, class, max_feasible);
    }

    /// Record a blocked row's group, unless it is known or the groups
    /// stopped being counted.
    fn block(&mut self, job: &PendingJobView) {
        if self.blocked.len() > MAX_BLOCKED_GROUPS || self.blocked.iter().any(|g| g.holds(job)) {
            return;
        }
        // Room for every group plus the one past the limit, allocated once.
        self.blocked
            .reserve_exact(MAX_BLOCKED_GROUPS + 1 - self.blocked.len());
        self.blocked.push(Group {
            demand: job.demand_per_unit,
            min: job.min_parallelism,
        });
    }
}

/// The `(deadline, id)` order of [`ClusterView::pending_by_deadline`].
fn key_order(a: &(f64, JobId), b: &(f64, JobId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// The rows that fit the same classes at their minimum parallelism.
#[derive(Debug, Clone, Copy)]
struct Group {
    demand: ResourceVector,
    min: u32,
}

impl Group {
    fn holds(&self, job: &PendingJobView) -> bool {
        self.min == job.min_parallelism && bits(&self.demand) == bits(&job.demand_per_unit)
    }
}

fn bits(demand: &ResourceVector) -> [u64; NUM_RESOURCES] {
    demand.0.map(f64::to_bits)
}

/// The most demands the fit table stores answers for in one call; the
/// workload templates have four.
const FIT_DEMANDS: usize = 8;

/// The fit answers of one [`StartMemo::for_each_startable`] call.
#[derive(Debug, Clone, Default)]
struct FitTable {
    /// The demands this call stored answers for, in first-asked order.
    demands: Vec<[u64; NUM_RESOURCES]>,
    /// `(cap asked, answer min(g, cap))` of each stored demand on each
    /// class, `classes` entries per demand. `(0, 0)`, nothing asked yet,
    /// answers only cap 0, correctly.
    answers: Vec<(u32, u32)>,
    classes: usize,
    walks: u64,
}

impl FitTable {
    /// Start a call on a view of `classes` classes: forget every stored
    /// answer. Both buffers are allocated on the first call, then kept.
    fn begin(&mut self, classes: usize) {
        self.demands.clear();
        self.demands.reserve_exact(FIT_DEMANDS);
        if self.classes != classes {
            self.classes = classes;
            self.answers.clear();
            self.answers.resize(FIT_DEMANDS * classes, (0, 0));
        }
    }

    /// [`ClusterView::can_start`] at the job's minimum parallelism.
    fn can_start(&mut self, view: &ClusterView, job: &PendingJobView, class: NodeClassId) -> bool {
        let min = job.min_parallelism;
        min <= job.max_parallelism && self.units(view, class, &job.demand_per_unit, min) >= min
    }

    /// `units_available_capped(demand, cap)` on `class`, from the table
    /// when a stored answer decides it. Past [`FIT_DEMANDS`] demands a new
    /// one walks without being stored.
    fn units(
        &mut self,
        view: &ClusterView,
        class: NodeClassId,
        demand: &ResourceVector,
        cap: u32,
    ) -> u32 {
        let demand_bits = bits(demand);
        let row = match self.demands.iter().position(|d| *d == demand_bits) {
            Some(row) => row,
            None if self.demands.len() < FIT_DEMANDS => {
                self.demands.push(demand_bits);
                let row = self.demands.len() - 1;
                self.answers[row * self.classes..][..self.classes].fill((0, 0));
                row
            }
            None => {
                self.walks += 1;
                return view.classes[class.0].units_available_capped(demand, cap);
            }
        };
        let entry = &mut self.answers[row * self.classes + class.0];
        let (asked, units) = *entry;
        if cap <= asked || units < asked {
            return units.min(cap);
        }
        self.walks += 1;
        let units = view.classes[class.0].units_available_capped(demand, cap);
        *entry = (cap, units);
        units
    }
}
