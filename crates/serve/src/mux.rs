//! Concurrent job ingress: many producer threads feed bounded channels, one
//! deterministic multiplexer merges them back into a single arrival stream.
//!
//! Real serving frontends receive work from many connections at once; this
//! module reproduces that shape with `std` threads and bounded
//! `sync_channel`s (backpressure included) while keeping the *merged order*
//! a pure function of the workload: jobs are partitioned across producers by
//! a seeded position hash ([`tcrm_workload::Partition::pinned`]), each
//! producer preserves its subsequence order, and the merge always takes the
//! globally smallest `(arrival, id)` head — blocking on the owning channel
//! when that head has not been sent yet. Thread scheduling therefore affects
//! only timing, never output, which is what makes the virtual-time
//! executor's event log byte-reproducible.

use std::sync::mpsc::{Receiver, SyncSender};

use tcrm_sim::Job;

/// Number of jobs per block on the chunked streaming ingest path. Blocks
/// amortise channel synchronisation: one send/recv rendezvous per
/// `DEFAULT_CHUNK` jobs instead of per job.
pub const DEFAULT_CHUNK: usize = 64;

/// One streaming lane's channel pair as the consumer holds it: the block
/// data receiver plus the recycle sender that hands spent buffers back to
/// the producer.
pub type BlockChannel = (Receiver<Vec<Job>>, SyncSender<Vec<Job>>);

/// The streaming producer half: pull jobs straight from a source iterator
/// (typically a [`tcrm_workload::Partition`]-filtered rebuild of the
/// scenario) into `chunk`-sized blocks on a bounded channel. Spent blocks
/// come back over the `recycle` channel, so after a warm-up of at most
/// `budget` fresh allocations the loop reuses the same buffers for the rest
/// of the run — the steady-state ingest path allocates nothing.
///
/// Runs on a scoped thread; a closed data channel (aborted run) ends the
/// replay, and a closed recycle channel just falls back to fresh buffers so
/// the drain path can never deadlock a producer.
pub fn produce_blocks<S: Iterator<Item = Job>>(
    mut source: S,
    chunk: usize,
    tx: SyncSender<Vec<Job>>,
    recycle: Receiver<Vec<Job>>,
    budget: usize,
) {
    let chunk = chunk.max(1);
    let mut allocated = 0usize;
    loop {
        let mut block = if allocated < budget {
            match recycle.try_recv() {
                Ok(spent) => spent,
                Err(_) => {
                    allocated += 1;
                    Vec::with_capacity(chunk)
                }
            }
        } else {
            // The warm-up budget is spent: block until the consumer hands a
            // buffer back rather than allocating more.
            recycle.recv().unwrap_or_else(|_| Vec::with_capacity(chunk))
        };
        block.clear();
        while block.len() < chunk {
            match source.next() {
                Some(job) => block.push(job),
                None => break,
            }
        }
        if block.is_empty() {
            return;
        }
        let len = block.len();
        if tx.send(block).is_err() {
            return;
        }
        if len < chunk {
            return;
        }
    }
}

/// One producer lane of the chunked merge: the current block with a cursor,
/// plus the data/recycle channel pair shared with [`produce_blocks`].
struct BlockLane {
    rx: Receiver<Vec<Job>>,
    recycle: SyncSender<Vec<Job>>,
    block: Vec<Job>,
    cursor: usize,
    done: bool,
}

impl BlockLane {
    /// Advance to a non-empty block (or mark the lane done), returning the
    /// spent buffer to the producer *before* blocking on the next block so
    /// the producer always has a buffer to fill.
    fn refill(&mut self) {
        while !self.done && self.cursor >= self.block.len() {
            let spent = std::mem::take(&mut self.block);
            self.cursor = 0;
            let _ = self.recycle.try_send(spent);
            match self.rx.recv() {
                Ok(next) => self.block = next,
                Err(_) => self.done = true,
            }
        }
    }

    fn head(&self) -> Option<&Job> {
        self.block.get(self.cursor)
    }
}

/// The consumer half: a K-way merge over block channels that always yields
/// the globally smallest `(arrival, id)` head.
pub struct BlockMux {
    lanes: Vec<BlockLane>,
}

impl BlockMux {
    /// Build the merge state from per-lane `(data, recycle)` channel pairs,
    /// blocking for every producer's first block.
    pub fn new(channels: Vec<BlockChannel>) -> Self {
        let mut lanes: Vec<BlockLane> = channels
            .into_iter()
            .map(|(rx, recycle)| BlockLane {
                rx,
                recycle,
                block: Vec::new(),
                cursor: 0,
                done: false,
            })
            .collect();
        for lane in &mut lanes {
            lane.refill();
        }
        Self { lanes }
    }

    /// Drain every remaining job (an aborted run counts leftovers toward
    /// the total) and return how many there were. Blocks until every
    /// producer has finished; the merge yields nothing afterwards.
    pub fn drain(&mut self) -> usize {
        let mut leftover = 0;
        for lane in &mut self.lanes {
            leftover += lane.block.len().saturating_sub(lane.cursor);
            lane.cursor = lane.block.len();
            for block in lane.rx.iter() {
                leftover += block.len();
                // Keep buffers circulating so a budget-exhausted producer
                // is never left waiting on a recycle that will not come.
                let _ = lane.recycle.try_send(block);
            }
            lane.done = true;
        }
        leftover
    }
}

impl Iterator for BlockMux {
    type Item = (Job, usize);

    /// Pop the next job in global `(arrival, id)` order together with the
    /// index of the producer that carried it. Blocks only when the owning
    /// lane's next block has not been sent yet; `None` once every lane has
    /// drained.
    fn next(&mut self) -> Option<(Job, usize)> {
        let lane_index = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| lane.head().map(|job| (i, job)))
            .min_by(|(_, a), (_, b)| {
                a.arrival
                    .partial_cmp(&b.arrival)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)?;
        let lane = &mut self.lanes[lane_index];
        // Jobs own no heap state, so this clone out of the reusable block
        // buffer allocates nothing.
        let job = lane.block[lane.cursor].clone();
        lane.cursor += 1;
        lane.refill();
        Some((job, lane_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use tcrm_sim::{Job, JobClass, JobId, ResourceVector};
    use tcrm_workload::{Partition, ReplaySource};

    fn job(id: u64, arrival: f64) -> Job {
        Job::builder(JobId(id), JobClass::Batch)
            .arrival(arrival)
            .total_work(1.0)
            .demand_per_unit(ResourceVector::new([1.0, 1.0, 0.0, 0.0]))
            .parallelism_range(1, 2)
            .deadline(arrival + 100.0)
            .build()
    }

    /// Run `check` against a mux over `lanes` producer threads, each
    /// streaming its `Partition::pinned` lane of `jobs` in `chunk`-job
    /// blocks — the serving session's pipeline shape.
    fn with_mux(jobs: &[Job], lanes: usize, seed: u64, chunk: usize, check: impl FnOnce(BlockMux)) {
        let replay = ReplaySource::from_jobs(jobs.to_vec());
        std::thread::scope(|s| {
            let mut channels = Vec::new();
            for slot in 0..lanes {
                let (tx, rx) = sync_channel(2);
                let (recycle_tx, recycle_rx) = sync_channel(8);
                let part = Partition::pinned(replay.clone(), slot, lanes, seed);
                s.spawn(move || produce_blocks(part, chunk, tx, recycle_rx, 4));
                channels.push((rx, recycle_tx));
            }
            check(BlockMux::new(channels));
        });
    }

    #[test]
    fn merge_restores_global_arrival_order_regardless_of_lanes() {
        let jobs: Vec<Job> = (0..300).map(|i| job(i, (i / 4) as f64)).collect();
        for (lanes, seed, chunk) in [(1, 0, 64), (4, 9, 7), (5, 42, 1)] {
            with_mux(&jobs, lanes, seed, chunk, |mut mux| {
                let mut merged = Vec::new();
                for (job, lane) in mux.by_ref() {
                    assert!(lane < lanes);
                    merged.push(job);
                }
                assert_eq!(
                    merged, jobs,
                    "{lanes} lanes: merge must restore (arrival, id) order"
                );
                assert_eq!(mux.drain(), 0);
            });
        }
    }

    #[test]
    fn block_merge_matches_the_per_job_merge() {
        // One job per block is the per-job merge; batching jobs into
        // blocks must not change which job comes out next, nor its lane.
        let jobs: Vec<Job> = (0..300).map(|i| job(i, (i / 4) as f64)).collect();
        let collect = |chunk| {
            let mut out = Vec::new();
            with_mux(&jobs, 4, 9, chunk, |mut mux| {
                out.extend(mux.by_ref());
                assert_eq!(mux.drain(), 0);
            });
            out
        };
        let per_job = collect(1);
        assert_eq!(per_job.len(), 300);
        assert_eq!(
            collect(7),
            per_job,
            "block merge must match the per-job merge"
        );
    }

    #[test]
    fn block_drain_counts_everything_not_yet_consumed() {
        let jobs: Vec<Job> = (0..100).map(|i| job(i, i as f64)).collect();
        with_mux(&jobs, 3, 1, 8, |mut mux| {
            for _ in 0..40 {
                mux.next().unwrap();
            }
            assert_eq!(
                mux.drain(),
                60,
                "cursors + queued blocks + unsent all count"
            );
            assert!(mux.next().is_none(), "a drained mux yields nothing");
        });
    }
}
