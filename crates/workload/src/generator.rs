//! Distributional tests of the synthetic job generator,
//! [`crate::SyntheticSource`]: counts and ids, arrival order, seeding,
//! deadline feasibility, load and burstiness, class mix and elasticity.

use crate::source::SyntheticSource;
use crate::spec::WorkloadSpec;
use tcrm_sim::{ClusterSpec, Job};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArrivalProcess;
    use tcrm_sim::{JobClass, JobId};

    fn cluster() -> ClusterSpec {
        ClusterSpec::icpp_default()
    }

    fn jobs(spec: &WorkloadSpec, cluster: &ClusterSpec, seed: u64) -> Vec<Job> {
        SyntheticSource::new(spec, cluster, seed)
            .expect("valid spec")
            .collect()
    }

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(200);
        let jobs = jobs(&spec, &cluster(), 1);
        assert_eq!(jobs.len(), 200);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
            assert!(j.validate().is_ok());
        }
    }

    #[test]
    fn arrivals_are_sorted_and_non_negative() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(300);
        let jobs = jobs(&spec, &cluster(), 2);
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(jobs.iter().all(|j| j.arrival >= 0.0));
    }

    #[test]
    fn deterministic_for_same_seed_and_different_otherwise() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(50);
        let a = jobs(&spec, &cluster(), 7);
        let b = jobs(&spec, &cluster(), 7);
        let c = jobs(&spec, &cluster(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deadlines_always_allow_a_feasible_best_case() {
        let spec = WorkloadSpec::icpp_default()
            .with_num_jobs(300)
            .with_slack(1.2, 3.0);
        let cl = cluster();
        let jobs = jobs(&spec, &cl, 3);
        for j in &jobs {
            let best_speed = cl.best_speed_factor(j.class);
            let best_case = j.service_time(best_speed, j.max_parallelism);
            assert!(
                j.relative_deadline() >= best_case * 1.19,
                "deadline tighter than slack_min allows"
            );
        }
    }

    #[test]
    fn higher_load_compresses_arrivals() {
        let low = jobs(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(400)
                .with_load(0.4),
            &cluster(),
            5,
        );
        let high = jobs(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(400)
                .with_load(1.2),
            &cluster(),
            5,
        );
        let span_low = low.last().unwrap().arrival;
        let span_high = high.last().unwrap().arrival;
        assert!(
            span_high < span_low,
            "load 1.2 should produce a shorter trace ({span_high} vs {span_low})"
        );
    }

    #[test]
    fn class_mix_roughly_matches_weights() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(4000);
        let jobs = jobs(&spec, &cluster(), 11);
        let batch =
            jobs.iter().filter(|j| j.class == JobClass::Batch).count() as f64 / jobs.len() as f64;
        assert!((batch - 0.4).abs() < 0.05, "batch fraction = {batch}");
    }

    #[test]
    fn rigid_spec_produces_rigid_jobs() {
        let spec = WorkloadSpec::icpp_default().with_num_jobs(100).all_rigid();
        let jobs = jobs(&spec, &cluster(), 13);
        assert!(jobs.iter().all(|j| !j.malleable));
    }

    #[test]
    fn bursty_arrivals_have_higher_variance_of_gaps() {
        let n = 2000;
        let poisson = jobs(
            &WorkloadSpec::icpp_default().with_num_jobs(n),
            &cluster(),
            17,
        );
        let bursty = jobs(
            &WorkloadSpec::icpp_default()
                .with_num_jobs(n)
                .with_arrivals(ArrivalProcess::Bursty {
                    burst_factor: 6.0,
                    burst_period: 50.0,
                }),
            &cluster(),
            17,
        );
        let cv = |jobs: &[Job]| {
            let gaps: Vec<f64> = jobs
                .windows(2)
                .map(|w| w[1].arrival - w[0].arrival)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&bursty) > cv(&poisson));
    }
}
