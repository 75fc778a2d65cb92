//! A fixed piece of work in the benchmark's own code that tells how fast
//! the machine runs at the moment. The program never executes it, so no
//! change to the program can move it; only the machine can.

use std::collections::BTreeMap;
use std::time::Instant;

/// Passes over the kernel's work in one measurement.
const PASSES: usize = 300;

/// One pass: Gaussian elimination with partial pivoting on a small dense
/// matrix, a sort of floats and an ordered-map build, on inputs from a
/// fixed linear congruential sequence. Returns a value that depends on
/// all of it, so none of it can be optimized away.
fn pass(salt: u64) -> f64 {
    const N: usize = 20;
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut a: Vec<Vec<f64>> = (0..N)
        .map(|_| (0..=N).map(|_| next() - 0.5).collect())
        .collect();
    for col in 0..N {
        let pivot = (col..N)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        let p = a[col][col];
        for row in col + 1..N {
            let f = a[row][col] / p;
            for k in col..=N {
                a[row][k] -= f * a[col][k];
            }
        }
    }
    let mut v: Vec<f64> = (0..512).map(|_| next()).collect();
    v.sort_by(f64::total_cmp);
    let mut map = BTreeMap::new();
    for (i, f) in v.iter().enumerate() {
        map.insert((f * 1e9) as u64 ^ i as u64, i);
    }
    a[N - 1][N] + v[256] + map.len() as f64
}

/// Threads the kernel runs on at once: one per core of the 2-core
/// machine, which `serve` and `net` keep both busy.
const THREADS: usize = 2;

/// Runs the kernel once on each of [`THREADS`] threads at the same time
/// and returns the mean of their wall times, in milliseconds.
fn kernel_ms() -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut acc = 0.0;
                    for p in 0..PASSES {
                        acc += pass((t * PASSES + p) as u64);
                    }
                    std::hint::black_box(acc);
                    start.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// What the kernel takes on a quiet reference machine, in milliseconds.
const REFERENCE_MS: f64 = 20.0;

/// The factor that takes a time measured now to the reference speed:
/// the kernel's reference time over its time now, on both cores at once.
pub fn time_scale() -> f64 {
    REFERENCE_MS / kernel_ms()
}
