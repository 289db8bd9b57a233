//! The greedy shortcut against its definition: `greedy_from_logits` must
//! pick exactly `argmax(masked_softmax(logits, mask))` on random logits,
//! near-ties a few ulps below the maximum, exact ties, signed zeros,
//! non-finite logits (masked and unmasked) and empty or single-entry masks.
//! Each case also records whether `greedy_shortcut` answered or the softmax
//! fallback ran, so the test shows that both paths are exercised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcrm_nn::masked_softmax;
use tcrm_rl::{argmax, greedy_from_logits, greedy_shortcut};

/// How many cases took each path.
#[derive(Default)]
struct Paths {
    shortcut: usize,
    fallback: usize,
}

impl Paths {
    /// Check one case against the oracle and record its path.
    fn check(&mut self, logits: &[f32], mask: &[bool], what: &str) {
        let oracle = argmax(&masked_softmax(logits, mask));
        let mut probs = Vec::new();
        assert_eq!(
            greedy_from_logits(logits, mask, &mut probs),
            oracle,
            "{what}: logits {logits:?} mask {mask:?}"
        );
        match greedy_shortcut(logits, mask) {
            Some(index) => {
                assert_eq!(index, oracle, "{what}: shortcut disagrees");
                self.shortcut += 1;
            }
            None => self.fallback += 1,
        }
    }
}

/// The float `steps` ulps below `x` (towards -∞), for finite nonzero `x`.
fn ulps_below(x: f32, steps: u32) -> f32 {
    if x > 0.0 {
        f32::from_bits(x.to_bits() - steps)
    } else {
        f32::from_bits(x.to_bits() + steps)
    }
}

fn random_case(rng: &mut StdRng, len: usize, scale: f32) -> (Vec<f32>, Vec<bool>) {
    let logits = (0..len).map(|_| rng.gen_range(-scale..scale)).collect();
    let mask = (0..len).map(|_| rng.gen_range(0..4) > 0).collect();
    (logits, mask)
}

#[test]
fn random_logits_match_the_softmax_argmax() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut paths = Paths::default();
    for case in 0..4_000 {
        let len = 1 + case % 140;
        let scale = [1e-3, 0.1, 1.0, 10.0, 1e4][case % 5];
        let (logits, mask) = random_case(&mut rng, len, scale);
        paths.check(&logits, &mask, "random");
    }
    assert!(
        paths.shortcut > 3_000,
        "shortcut ran {} times",
        paths.shortcut
    );
}

#[test]
fn near_ties_before_the_maximum_match_the_softmax_argmax() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut paths = Paths::default();
    for case in 0..2_000 {
        let len = 2 + case % 131;
        let scale = [1e-3, 0.1, 1.0, 10.0][case % 4];
        let (mut logits, mut mask) = random_case(&mut rng, len, scale);
        // A maximum at `at`, and near-ties before it.
        let at = rng.gen_range(1..len);
        let max = scale * 1.5 * if case % 8 == 0 { -1.0 } else { 1.0 };
        logits[at] = max;
        mask[at] = true;
        for i in 0..at {
            match rng.gen_range(0..4) {
                0 => logits[i] = ulps_below(max, 1 + rng.gen_range(0..4u32)),
                // Around the shortcut's 1e-6 screen.
                1 => logits[i] = max - [2.5e-7, 5e-7, 1e-6, 2e-6, 4e-6][rng.gen_range(0..5usize)],
                _ => {}
            }
            if max < 0.0 {
                // Negative maxima must still beat every other logit.
                logits[i] = logits[i].min(ulps_below(max, 1));
            }
        }
        for l in logits[at + 1..].iter_mut() {
            *l = l.min(max);
        }
        paths.check(&logits, &mask, "near-tie");
    }
    assert!(
        paths.fallback > 500,
        "fallback ran {} times",
        paths.fallback
    );
    assert!(
        paths.shortcut > 100,
        "shortcut ran {} times",
        paths.shortcut
    );
}

#[test]
fn exact_ties_and_signed_zeros_match_the_softmax_argmax() {
    let mut paths = Paths::default();
    let all = [true; 6];
    // Exact ties: the first of the tied maxima wins.
    paths.check(&[0.5, 2.0, 1.0, 2.0, 2.0, -1.0], &all, "tie");
    paths.check(&[2.0, 2.0, 2.0, 2.0, 2.0, 2.0], &all, "all tied");
    paths.check(
        &[0.5, 2.0, 1.0, 2.0, 2.0, -1.0],
        &[true, false, true, true, true, true],
        "tie behind a masked maximum",
    );
    // -0.0 next to +0.0 as the maximum, either way round.
    paths.check(&[-1.0, -0.0, 0.0, -3.0, -0.5, -2.0], &all, "-0 then +0");
    paths.check(&[-1.0, 0.0, -0.0, -3.0, -0.5, -2.0], &all, "+0 then -0");
    paths.check(
        &[-1.0, -0.0, 0.0, -3.0, -0.5, -2.0],
        &[true, false, true, true, true, true],
        "masked -0",
    );
    // Just below a zero maximum.
    paths.check(&[-1e-7, 0.0, -1.0, -2.0, -3.0, -4.0], &all, "subnormal gap");
    paths.check(
        &[-f32::MIN_POSITIVE, 0.0, -1.0, -2.0, -3.0, -4.0],
        &all,
        "tiny gap",
    );
    assert!(paths.shortcut > 0 && paths.fallback > 0);
}

#[test]
fn non_finite_logits_match_the_softmax_argmax() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut paths = Paths::default();
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for case in 0..600 {
        let len = 2 + case % 40;
        let (mut logits, mut mask) = random_case(&mut rng, len, 3.0);
        for _ in 0..1 + case % 3 {
            let i = rng.gen_range(0..len);
            logits[i] = specials[rng.gen_range(0..3usize)];
            // Half the cases hide every special behind the mask.
            if case % 2 == 0 {
                mask[i] = false;
            }
        }
        paths.check(&logits, &mask, "non-finite");
    }
    let all = [true; 4];
    paths.check(&[1.0, f32::NAN, 3.0, 2.0], &all, "unmasked NaN");
    paths.check(&[1.0, f32::INFINITY, 3.0, f32::INFINITY], &all, "+inf");
    paths.check(&[f32::NEG_INFINITY; 4], &all, "all -inf");
    paths.check(
        &[f32::NAN, f32::INFINITY, 3.0, f32::NEG_INFINITY],
        &[false, false, true, false],
        "specials masked",
    );
    assert!(paths.shortcut > 100 && paths.fallback > 100);
}

#[test]
fn empty_and_single_entry_masks_match_the_softmax_argmax() {
    let mut paths = Paths::default();
    let logits = [0.3, -1.0, 2.0, 0.7, f32::NAN];
    paths.check(&logits, &[false; 5], "empty mask");
    paths.check(&[], &[], "no actions");
    for i in 0..4 {
        let mut mask = [false; 5];
        mask[i] = true;
        paths.check(&logits, &mask, "single entry");
    }
    paths.check(&[f32::NAN], &[true], "single NaN");
    paths.check(&[-5.0], &[true], "single finite");
    assert_eq!(paths.fallback, 3);
}
