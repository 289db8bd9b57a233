//! Batched inference must agree with per-row inference: the decision-epoch
//! and value-estimation hot paths score whole batches with one forward pass,
//! and the result has to be indistinguishable (within float tolerance) from
//! scoring every row separately through `forward_vec`.

use proptest::prelude::*;
use tcrm_nn::{Matrix, Workspace};
use tcrm_rl::{CategoricalPolicy, ValueNet};

fn stack(rows: &[Vec<f32>]) -> Matrix {
    let cols = rows[0].len();
    let mut m = Matrix::zeros(rows.len(), cols);
    for (r, row) in rows.iter().enumerate() {
        m.row_mut(r).copy_from_slice(row);
    }
    m
}

fn arb_batch(rows: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-2.0f32..2.0, dim), rows..=rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_policy_logits_match_per_row(
        batch in arb_batch(6, 11),
        seed in 0u64..50,
    ) {
        let policy = CategoricalPolicy::new(11, &[16], 5, seed);
        let stacked = stack(&batch);
        let mut ws = Workspace::new();
        let batched = policy.logits_batch_ws(&stacked, &mut ws);
        for (r, obs) in batch.iter().enumerate() {
            for (x, y) in policy.logits(obs).iter().zip(batched.row(r)) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn batched_values_match_per_row(
        batch in arb_batch(8, 13),
        seed in 0u64..50,
    ) {
        let value = ValueNet::new(13, &[16, 8], seed);
        let stacked = stack(&batch);
        let mut ws = Workspace::new();
        let batched = value.values_batch_ws(&stacked, &mut ws);
        prop_assert_eq!(batched.cols(), 1);
        for (r, obs) in batch.iter().enumerate() {
            let single = value.value(obs);
            prop_assert!((single - batched.get(r, 0)).abs() < 1e-5);
        }
    }
}
