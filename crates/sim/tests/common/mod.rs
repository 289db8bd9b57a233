//! Helpers shared by the paired-simulator differential tests.

use tcrm_sim::prelude::*;

/// Offsets past `view.time` at which the derived row values are compared:
/// rows are time-affine, so two views that agree on their stored state must
/// also agree on every value read at a later `now` (including after a
/// running job would have drained and clamped at zero).
const READ_OFFSETS: [f64; 4] = [0.0, 0.75, 9.5, 5e3];

/// Bit-for-bit equality of everything the two views derive from their rows
/// at `view.time` and at later times: pending `wait`, running
/// `remaining_work` / `scale_ready` / `slack`, and the pending-work total.
pub fn assert_derived_equal(a: &ClusterView, b: &ClusterView) {
    assert_eq!(a.allow_scaling, b.allow_scaling, "scaling rule diverged");
    assert_eq!(
        a.scale_cooldown.to_bits(),
        b.scale_cooldown.to_bits(),
        "scale cooldown diverged"
    );
    assert_eq!(
        a.pending_work_total().to_bits(),
        b.pending_work_total().to_bits(),
        "pending-work total diverged"
    );
    for dt in READ_OFFSETS {
        let now = a.time + dt;
        for (x, y) in a.pending.iter().zip(&b.pending) {
            assert_eq!(
                x.wait(now).to_bits(),
                y.wait(now).to_bits(),
                "wait diverged"
            );
        }
        for (x, y) in a.running.iter().zip(&b.running) {
            assert_eq!(
                x.remaining_work(now).to_bits(),
                y.remaining_work(now).to_bits(),
                "remaining work of {} diverged at +{dt}",
                x.id
            );
            assert_eq!(
                x.scale_ready(now, a.allow_scaling, a.scale_cooldown),
                y.scale_ready(now, b.allow_scaling, b.scale_cooldown),
                "scale readiness of {} diverged at +{dt}",
                x.id
            );
            assert_eq!(
                x.slack(now).to_bits(),
                y.slack(now).to_bits(),
                "slack of {} diverged at +{dt}",
                x.id
            );
        }
    }
}
