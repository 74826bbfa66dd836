//! # gp-exec — deterministic parallel map
//!
//! The experiment grids of this workspace (partitioner × k × model ×
//! fanout, fault sweeps, mitigation sweeps, traced runs) are
//! embarrassingly parallel: every cell is a pure function of its
//! inputs, and every call hands over a job set that is fixed before the
//! first job starts. [`par_map`] runs such a set on scoped `std`
//! threads while keeping the output **bit-identical to the sequential
//! path**, so the simulator's determinism guarantees survive parallel
//! execution:
//!
//! * **Index-addressed slots.** Job `i`'s result lands in slot `i` of
//!   the output vector regardless of which worker ran it or when it
//!   finished. Aggregation downstream therefore always folds in index
//!   order — the same order the serial loop used — and `f64` sums come
//!   out `==`-equal, not merely approximately equal.
//! * **Serial oracle.** With [`Threads::serial`] (one worker) the jobs
//!   run in index order on the calling thread with no pool at all —
//!   the reference the conformance suite compares every width against.
//! * **One shared queue.** Workers take `(index, job)` pairs in index
//!   order from one mutex over the job set. The set never grows, so an
//!   idle worker simply takes the next job; ragged cell costs balance
//!   without per-worker deques.
//! * **Deferred panics.** A panicking job does not stop the others.
//!   When every job has run, the first panic in index order is
//!   re-raised as `cell <i> panicked: <message>`.
//!
//! Host time is not measured here: each job runs under the `exec.cell`
//! scope of `gp-prof`, so `--prof` reports the pool's cells alongside
//! every other stage.
//!
//! ```
//! use gp_exec::{par_map, Threads};
//!
//! let jobs: Vec<_> = (0..32u64).map(|i| move || i * i).collect();
//! let par = par_map(Threads::new(4), jobs);
//! let jobs: Vec<_> = (0..32u64).map(|i| move || i * i).collect();
//! let serial = par_map(Threads::serial(), jobs);
//! assert_eq!(par, serial);
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Worker-count policy for [`par_map`].
///
/// `Threads::auto()` (the `Default`) resolves to the machine's available
/// parallelism at call time; `Threads::serial()` is the sequential
/// reference path; `Threads::new(n)` pins an explicit count. The pool
/// never spawns more workers than there are jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads(usize);

impl Threads {
    /// Use the machine's available parallelism (resolved at call time).
    pub const fn auto() -> Self {
        Threads(0)
    }

    /// One worker: run jobs in index order on the calling thread. This
    /// is the serial path and the conformance oracle.
    pub const fn serial() -> Self {
        Threads(1)
    }

    /// An explicit worker count; `0` means [`Threads::auto`].
    pub const fn new(n: usize) -> Self {
        Threads(n)
    }

    /// Parse a `--threads` value: a positive integer, `0` or `auto` for
    /// [`Threads::auto`].
    pub fn parse(s: &str) -> Option<Self> {
        if s == "auto" {
            return Some(Threads::auto());
        }
        s.parse::<usize>().ok().map(Threads)
    }

    /// The resolved worker count (>= 1).
    pub fn count(self) -> usize {
        if self.0 == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.0
        }
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::auto()
    }
}

impl fmt::Display for Threads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "auto({})", self.count())
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// One job's value, or its stringified panic message (`&str` / `String`
/// payloads verbatim; anything else becomes a placeholder).
type Outcome<T> = Result<T, String>;

/// Run one job under the `exec.cell` scope, catching its panic.
fn run_cell<T, F: FnOnce() -> T>(job: F) -> Outcome<T> {
    let _prof = gp_prof::scope("exec.cell");
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Map `jobs` to their values in index order on `threads` workers.
///
/// Job `i`'s value lands in slot `i` no matter which worker ran it, so
/// for pure jobs the output is **bit-identical for every width** —
/// including `Threads::serial()` (or a single job), which runs the jobs
/// in index order on the calling thread.
///
/// # Panics
///
/// If any job panicked: once every job has run, re-raises the first
/// panic in index order as `cell <i> panicked: <message>`.
pub fn par_map<T, F>(threads: Threads, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    let workers = threads.count().min(n_jobs);
    if workers <= 1 {
        // Fold values as the jobs run, so the engines' many small
        // serial calls allocate only the value vector.
        return in_index_order(jobs.into_iter().map(run_cell), n_jobs);
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let queue = &queue;
    let ran: Vec<Vec<(usize, Outcome<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut ran = Vec::new();
                    loop {
                        // Bind first so the lock is released before the
                        // job runs.
                        let next = queue.lock().expect("queue lock").next();
                        let Some((index, job)) = next else { break };
                        ran.push((index, run_cell(job)));
                    }
                    ran
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker never panics")).collect()
    });
    let mut slots: Vec<Option<Outcome<T>>> = (0..n_jobs).map(|_| None).collect();
    for (index, outcome) in ran.into_iter().flatten() {
        slots[index] = Some(outcome);
    }
    in_index_order(slots.into_iter().map(|s| s.expect("every job ran exactly once")), n_jobs)
}

/// The values of `n` outcomes given in index order, or, if any job
/// panicked, the first panic in index order re-raised.
fn in_index_order<T>(outcomes: impl Iterator<Item = Outcome<T>>, n: usize) -> Vec<T> {
    let mut values = Vec::with_capacity(n);
    let mut first_panic = None;
    for (index, outcome) in outcomes.enumerate() {
        match outcome {
            Ok(value) => values.push(value),
            Err(message) => {
                first_panic.get_or_insert((index, message));
            }
        }
    }
    if let Some((index, message)) = first_panic {
        panic!("cell {index} panicked: {message}");
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::serial().count(), 1);
        assert_eq!(Threads::new(6).count(), 6);
        assert!(Threads::auto().count() >= 1);
        assert_eq!(Threads::new(0), Threads::auto());
        assert_eq!(Threads::default(), Threads::auto());
    }

    #[test]
    fn threads_parse() {
        assert_eq!(Threads::parse("4"), Some(Threads::new(4)));
        assert_eq!(Threads::parse("auto"), Some(Threads::auto()));
        assert_eq!(Threads::parse("0"), Some(Threads::auto()));
        assert_eq!(Threads::parse("-1"), None);
        assert_eq!(Threads::parse("many"), None);
        assert_eq!(Threads::new(8).to_string(), "8");
        assert!(Threads::auto().to_string().starts_with("auto("));
    }

    #[test]
    fn zero_jobs_give_an_empty_vec() {
        assert!(par_map(Threads::new(4), Vec::<fn() -> u32>::new()).is_empty());
    }

    #[test]
    fn single_job_runs_on_caller() {
        let caller = std::thread::current().id();
        let ran_on = par_map(Threads::new(8), vec![|| std::thread::current().id()]);
        assert_eq!(ran_on, vec![caller], "one job never needs a pool");
    }

    #[test]
    fn serial_path_runs_every_job_on_the_caller_in_index_order() {
        let caller = std::thread::current().id();
        let next = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..20)
            .map(|_| {
                let next = &next;
                move || (next.fetch_add(1, Ordering::Relaxed), std::thread::current().id())
            })
            .collect();
        let ran = par_map(Threads::serial(), jobs);
        for (i, (order, thread)) in ran.into_iter().enumerate() {
            assert_eq!(order, i, "job {i} ran out of index order");
            assert_eq!(thread, caller, "job {i} left the calling thread");
        }
    }

    #[test]
    fn workers_run_concurrently_off_the_caller() {
        // Each job waits (with a deadline, so a broken pool fails rather
        // than hangs) until all four have started: only four concurrent
        // workers let every job see the full count.
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let started = &started;
                move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while started.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    (started.load(Ordering::SeqCst), std::thread::current().id())
                }
            })
            .collect();
        for (i, (seen, thread)) in par_map(Threads::new(4), jobs).into_iter().enumerate() {
            assert_eq!(seen, 4, "job {i} never saw its peers start");
            assert_ne!(thread, caller, "job {i} ran on the calling thread");
        }
    }

    #[test]
    fn the_pool_never_spawns_more_workers_than_jobs() {
        let jobs: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
        let mut threads = par_map(Threads::new(16), jobs);
        threads.sort_by_key(|id| format!("{id:?}"));
        threads.dedup();
        assert!(threads.len() <= 3, "{} workers for 3 jobs", threads.len());
    }

    #[test]
    fn panic_payloads_of_every_kind_are_reported() {
        let message = |job: Box<dyn FnOnce() + Send>, threads: Threads| -> String {
            let healthy: Box<dyn FnOnce() + Send> = Box::new(|| ());
            let err = catch_unwind(AssertUnwindSafe(|| par_map(threads, vec![healthy, job])))
                .expect_err("job 1 panics");
            err.downcast_ref::<String>().expect("formatted message").clone()
        };
        for threads in [Threads::serial(), Threads::new(2)] {
            assert_eq!(
                message(Box::new(|| panic!("static text")), threads),
                "cell 1 panicked: static text",
                "&str payload, threads = {threads}"
            );
            let n = 7;
            assert_eq!(
                message(Box::new(move || panic!("formatted {n}")), threads),
                "cell 1 panicked: formatted 7",
                "String payload, threads = {threads}"
            );
            assert_eq!(
                message(Box::new(|| std::panic::panic_any(42u32)), threads),
                "cell 1 panicked: non-string panic payload",
                "other payload, threads = {threads}"
            );
        }
    }

    #[test]
    fn results_are_index_addressed_for_every_thread_count() {
        let expect: Vec<u64> = (0..97).map(|i| i * 31 + 7).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let jobs: Vec<_> = (0..97u64).map(|i| move || i * 31 + 7).collect();
            let got = par_map(Threads::new(threads), jobs);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn stress_many_tiny_jobs() {
        let n = 5_000u64;
        let jobs: Vec<_> = (0..n).map(|i| move || i.wrapping_mul(0x9e3779b9)).collect();
        let values = par_map(Threads::new(8), jobs);
        assert_eq!(values.len(), n as usize);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, (i as u64).wrapping_mul(0x9e3779b9));
        }
    }

    #[test]
    fn ragged_job_sizes_balance() {
        // Job 0 is much heavier than the rest; with 4 workers the light
        // jobs must not wait behind it, and the output order still
        // matches the serial map.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..40usize)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    i * i
                });
                job
            })
            .collect();
        let expect: Vec<usize> = (0..40).map(|i| i * i).collect();
        assert_eq!(par_map(Threads::new(4), jobs), expect);
    }

    #[test]
    fn panic_poisons_only_its_slot() {
        for threads in [1usize, 4] {
            let healthy = AtomicUsize::new(0);
            let jobs: Vec<_> = (0..10u32)
                .map(|i| {
                    let healthy = &healthy;
                    move || {
                        assert!(i != 3, "cell three is cursed");
                        healthy.fetch_add(1, Ordering::Relaxed);
                        i * 10
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| par_map(Threads::new(threads), jobs)))
                .expect_err("cell 3 panics");
            let message = err.downcast_ref::<String>().expect("formatted message");
            assert!(message.starts_with("cell 3 panicked: "), "threads = {threads}: {message}");
            assert!(message.contains("cursed"), "threads = {threads}: {message}");
            assert_eq!(healthy.load(Ordering::Relaxed), 9, "healthy cells complete");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..500)
            .map(|i| {
                let counter = &counter;
                move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let values = par_map(Threads::new(7), jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(values, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn borrowed_inputs_work_across_the_pool() {
        // The jobs borrow non-'static data, as the sweep fronts do with
        // &Graph / &Partition — scoped threads make this sound.
        let data: Vec<u64> = (0..64).collect();
        let jobs: Vec<_> = (0..64usize)
            .map(|i| {
                let data = &data;
                move || data[i] * 2
            })
            .collect();
        let values = par_map(Threads::new(4), jobs);
        assert_eq!(values[10], 20);
        assert_eq!(values.len(), 64);
    }

    #[test]
    fn bit_identical_f64_results_across_thread_counts() {
        // Each cell does an order-sensitive f64 accumulation internally;
        // slots keep cells independent, so any thread count reproduces
        // the serial bits exactly (==, no epsilon).
        let make_jobs = || -> Vec<_> {
            (0..24u32)
                .map(|i| {
                    move || {
                        let mut acc = 0.0f64;
                        for j in 0..1_000 {
                            acc += 1.0 / f64::from(i * 1_000 + j + 1);
                        }
                        acc
                    }
                })
                .collect()
        };
        let oracle = par_map(Threads::serial(), make_jobs());
        for threads in [2, 4, 8, 16] {
            let got = par_map(Threads::new(threads), make_jobs());
            assert_eq!(got.len(), oracle.len());
            for (a, b) in got.iter().zip(oracle.iter()) {
                assert!(a == b, "threads = {threads}: {a} != {b}");
            }
        }
    }

    #[test]
    fn every_cell_runs_under_an_exec_cell_scope() {
        gp_prof::set_enabled(true);
        gp_prof::reset();
        let jobs: Vec<_> = (0..4u64).map(|i| move || i * 3).collect();
        let values = par_map(Threads::serial(), jobs);
        let profile = gp_prof::take_profile();
        gp_prof::set_enabled(false);
        assert_eq!(values, vec![0, 3, 6, 9]);
        // Other tests in this binary may run pool cells concurrently
        // while profiling is enabled, so assert at-least rather than
        // exactly-our-four.
        let root = profile.roots.iter().find(|n| n.name == "exec.cell").expect("cell scope");
        assert!(root.count >= 4, "one scope per pool cell: {}", root.count);
    }
}
