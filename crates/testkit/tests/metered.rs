//! `metered` reports the peak of an allocation freed before it returns.
//! It counts process-wide, so a single `#[test]` in its own binary keeps
//! concurrent test threads from polluting the counters.

use std::hint::black_box;
use tcrm_testkit::metered;

#[test]
fn metered_reports_the_peak_of_a_freed_allocation() {
    const BYTES: usize = 1 << 20;
    let (allocations, peak) = metered(|| {
        black_box(Vec::<u8>::with_capacity(BYTES));
    });
    assert!(allocations >= 1);
    assert!(peak >= BYTES, "peak {peak} B below {BYTES} B");
}
