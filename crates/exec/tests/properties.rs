//! Properties of the parallel map over seeded random job mixes.
//!
//! Each property runs one case per seed of a fixed list: the case's
//! inputs are drawn from `Rng::seed_from_u64(seed)`, and every assertion
//! names the seed, so a failure reproduces from its message alone.

use gp_exec::{par_map, Threads};
use gp_graph::rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Cases per property; each case sleeps through its jobs.
const CASES: u64 = 24;

/// `len` job durations in microseconds, each below `max_us`.
fn durations(rng: &mut Rng, len: usize, max_us: u64) -> Vec<u64> {
    (0..len).map(|_| rng.below(max_us)).collect()
}

/// Build one job per duration: sleep `d` microseconds, then return a
/// value derived from index and duration (order-sensitive if slots were
/// ever misplaced).
fn run_map(durations: &[u64], threads: Threads) -> Vec<u64> {
    let jobs: Vec<_> = durations
        .iter()
        .copied()
        .enumerate()
        .map(|(i, d)| {
            move || {
                if d > 0 {
                    std::thread::sleep(Duration::from_micros(d));
                }
                (i as u64).wrapping_mul(0x9e37_79b9) ^ d
            }
        })
        .collect();
    par_map(threads, jobs)
}

/// Random job-duration vectors: the parallel result vector equals
/// the serial map (the jobs in index order on one thread) for thread
/// counts 1..=16.
#[test]
fn parallel_equals_serial_for_any_thread_count() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let len = rng.random_range(0..48);
        let durations = durations(&mut rng, len, 400);
        let threads = rng.random_range(1..17);
        let oracle = run_map(&durations, Threads::serial());
        let got = run_map(&durations, Threads::new(threads));
        assert_eq!(got, oracle, "seed {seed}: {threads} threads");
    }
}

/// Repeated runs at the same thread count are identical too.
#[test]
fn repeated_runs_are_stable() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let len = rng.random_range(1..32);
        let durations = durations(&mut rng, len, 200);
        let threads = rng.random_range(2..9);
        let first = run_map(&durations, Threads::new(threads));
        let second = run_map(&durations, Threads::new(threads));
        assert_eq!(first, second, "seed {seed}: {threads} threads");
    }
}

/// A random job mix with a random non-empty set of panicking indices:
/// at every width in 1..=16 the re-raised message names the lowest
/// panicking index, and every healthy job ran exactly once.
#[test]
fn first_panic_in_index_order_wins_at_every_width() {
    for seed in 0..8 {
        let mut rng = Rng::seed_from_u64(seed);
        let len = rng.random_range(1..40);
        let durations = durations(&mut rng, len, 100);
        let mut cursed: Vec<bool> = (0..len).map(|_| rng.below(4) == 0).collect();
        cursed[rng.random_range(0..len)] = true;
        let first = cursed.iter().position(|&c| c).expect("non-empty");
        for width in 1..=16 {
            let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let jobs: Vec<_> = (0..len)
                .map(|i| {
                    let (runs, d, cursed) = (&runs, durations[i], cursed[i]);
                    move || {
                        std::thread::sleep(Duration::from_micros(d));
                        assert!(!cursed, "job {i} is cursed");
                        runs[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| par_map(Threads::new(width), jobs)))
                .expect_err("some job panics");
            let message = err.downcast_ref::<String>().expect("formatted message");
            assert_eq!(
                *message,
                format!("cell {first} panicked: job {first} is cursed"),
                "seed {seed}: width {width}"
            );
            for (i, ran) in runs.iter().enumerate() {
                let expect = usize::from(!cursed[i]);
                assert_eq!(
                    ran.load(Ordering::Relaxed),
                    expect,
                    "seed {seed}: width {width}, job {i}"
                );
            }
        }
    }
}
