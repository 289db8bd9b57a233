//! Integration tests for the extensions beyond the paper's headline
//! comparison set: the EASY-backfill / HEFT / slack-pack heuristics and the
//! energy and fairness accounting.

use tcrm::baselines::{by_name, EXTENDED_BASELINE_NAMES};
use tcrm::sim::{ClusterSpec, SimConfig, SimulationResult, Simulator};
use tcrm::workload::{SyntheticSource, WorkloadSpec};

fn run_baseline(name: &str, load: f64, seed: u64, jobs: usize) -> SimulationResult {
    let cluster = ClusterSpec::icpp_default();
    let workload = WorkloadSpec::icpp_default()
        .with_num_jobs(jobs)
        .with_load(load);
    let job_list = SyntheticSource::new(&workload, &cluster, seed)
        .expect("valid workload spec")
        .collect();
    let mut scheduler = by_name(name, seed).expect("baseline exists");
    Simulator::new(cluster, SimConfig::default()).run(job_list, &mut scheduler)
}

#[test]
fn extended_baselines_account_for_every_job() {
    for name in EXTENDED_BASELINE_NAMES {
        let result = run_baseline(name, 0.8, 1, 120);
        let s = &result.summary;
        assert_eq!(s.total_jobs, 120, "{name}");
        assert_eq!(
            s.completed_jobs + s.unfinished_jobs,
            120,
            "{name} lost jobs"
        );
        assert!(s.miss_rate >= 0.0 && s.miss_rate <= 1.0, "{name}");
        assert!(
            s.mean_utilization >= 0.0 && s.mean_utilization <= 1.0,
            "{name} utilisation out of range"
        );
        assert!(
            s.slowdown_fairness > 0.0 && s.slowdown_fairness <= 1.0 + 1e-9,
            "{name}"
        );
    }
}

#[test]
fn extended_baselines_are_deterministic() {
    for name in EXTENDED_BASELINE_NAMES {
        let a = run_baseline(name, 0.9, 5, 100).summary;
        let b = run_baseline(name, 0.9, 5, 100).summary;
        assert_eq!(a, b, "{name} is not deterministic");
    }
}

#[test]
fn deadline_aware_extensions_do_not_lose_to_fifo_under_pressure() {
    let fifo = run_baseline("fifo", 1.1, 2, 150).summary;
    for name in ["backfill", "heft", "slack-pack"] {
        let s = run_baseline(name, 1.1, 2, 150).summary;
        assert!(
            s.miss_rate <= fifo.miss_rate + 0.02,
            "{name} ({:.3}) should not miss appreciably more than FIFO ({:.3})",
            s.miss_rate,
            fifo.miss_rate
        );
    }
}

#[test]
fn backfill_tracks_edf_closely_on_the_default_workload() {
    // EASY backfilling only adds starts relative to EDF when the head is
    // blocked, so it should never be drastically worse than EDF.
    let edf = run_baseline("edf", 1.0, 9, 150).summary;
    let backfill = run_baseline("backfill", 1.0, 9, 150).summary;
    assert!(
        backfill.miss_rate <= edf.miss_rate + 0.10,
        "backfill ({:.3}) strayed too far from EDF ({:.3})",
        backfill.miss_rate,
        edf.miss_rate
    );
}

#[test]
fn energy_report_is_consistent_with_the_cluster_power_envelope() {
    let cluster = ClusterSpec::icpp_default();
    let result = run_baseline("edf", 0.9, 3, 150);
    let energy = result
        .trace
        .energy_report(&cluster, result.summary.completed_jobs);
    assert!(energy.total_joules > 0.0, "a busy run must consume energy");
    assert!(energy.duration > 0.0);
    assert_eq!(energy.per_class_joules.len(), cluster.num_classes());

    // Bounds: idle-power floor and peak-power ceiling over the traced window.
    let idle_watts: f64 = cluster
        .node_classes
        .iter()
        .map(|c| c.power.idle_watts * c.count as f64)
        .sum();
    let peak_watts: f64 = cluster
        .node_classes
        .iter()
        .map(|c| c.power.peak_watts * c.count as f64)
        .sum();
    let mean_watts = energy.mean_watts();
    assert!(
        mean_watts >= idle_watts - 1e-6,
        "mean power {mean_watts} below the idle floor {idle_watts}"
    );
    assert!(
        mean_watts <= peak_watts + 1e-6,
        "mean power {mean_watts} above the peak ceiling {peak_watts}"
    );
    assert!(energy.joules_per_completed_job > 0.0);
    // kWh and joules agree.
    assert!((energy.total_kwh * 3.6e6 - energy.total_joules).abs() < 1e-3);
}

#[test]
fn busier_cluster_draws_more_power_than_an_idle_one() {
    // The same machines at higher offered load must burn at least as much
    // average power (utilisation-proportional model).
    let cluster = ClusterSpec::icpp_default();
    let low = run_baseline("edf", 0.3, 4, 120);
    let high = run_baseline("edf", 1.2, 4, 120);
    let e_low = low
        .trace
        .energy_report(&cluster, low.summary.completed_jobs);
    let e_high = high
        .trace
        .energy_report(&cluster, high.summary.completed_jobs);
    assert!(
        e_high.mean_watts() >= e_low.mean_watts() - 1e-6,
        "mean power should not drop when the load rises ({} -> {})",
        e_low.mean_watts(),
        e_high.mean_watts()
    );
}

#[test]
fn fairness_lies_in_the_unit_interval_for_every_scheduler() {
    for name in [
        "fifo",
        "edf",
        "greedy-elastic",
        "backfill",
        "heft",
        "slack-pack",
    ] {
        let s = run_baseline(name, 0.9, 6, 120).summary;
        assert!(
            s.slowdown_fairness > 0.0 && s.slowdown_fairness <= 1.0 + 1e-9,
            "{name} fairness {} out of range",
            s.slowdown_fairness
        );
        for class_slowdown in s.per_class_mean_slowdown {
            assert!(class_slowdown >= 0.0 && class_slowdown.is_finite());
        }
    }
}
