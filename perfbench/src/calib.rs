//! Machine-speed calibration.
//!
//! On a shared host the speed of a core drifts between plateaus (up to 2×
//! apart, each lasting seconds) as neighbours come and go, so raw wall
//! times of the same work differ more between runs than any useful
//! regression bound. A short fixed kernel — random reads in a table the
//! size of a core's L2, integer hashing, a data-dependent branch and some
//! f64 arithmetic, the mix the workloads run — is timed right after every
//! measured repetition and set-up. Its speed relative to [`NOMINAL`] scales
//! that interval's wall time to what it would have taken at the nominal
//! speed, so the reported times move with the program, not with the host.

use std::hint::black_box;
use std::time::Instant;

/// Table words (256 KiB).
const WORDS: usize = 1 << 15;
/// Table reads per probe.
const READS: usize = 1 << 16;
/// Kernel runs per second at the nominal speed: about the speed
/// of an unloaded core of a 2-core x86-64 VM.
const NOMINAL: f64 = 1000.0;

pub struct Calibrator {
    table: Vec<u64>,
    acc: u64,
    /// Relative speed of the last probe.
    last: f64,
}

impl Calibrator {
    /// Allocate the table and take a first probe.
    pub fn new() -> Self {
        let table = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut calib = Calibrator {
            table,
            acc: 1,
            last: 1.0,
        };
        calib.probe();
        calib
    }

    /// Time the kernel once; returns its speed relative to [`NOMINAL`].
    /// Called right after measured work, it finds its table evicted by that
    /// work and pays cache misses as the work does; repeated, warm probes
    /// tracked the workloads' speed worse.
    pub fn probe(&mut self) -> f64 {
        let started = Instant::now();
        let mut acc = self.acc;
        let mut x = 0.5f64;
        for _ in 0..READS {
            let word = self.table[(acc >> 49) as usize & (WORDS - 1)];
            acc = (acc ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
            if acc & 1 == 0 {
                x = x * 0.999_9 + 1e-3;
            } else {
                x = x.mul_add(1.000_1, -1e-3);
            }
        }
        self.acc = black_box(acc ^ x.to_bits());
        self.last = 1.0 / (started.elapsed().as_secs_f64() * NOMINAL);
        self.last
    }

    /// Probe after an interval that began right after the previous probe,
    /// and return the interval's relative speed: the mean of the probes on
    /// either side of it.
    pub fn after_interval(&mut self) -> f64 {
        let before = self.last;
        (before + self.probe()) / 2.0
    }
}
