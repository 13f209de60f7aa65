//! Deterministic parallel sweep executor.
//!
//! Every experiment in this harness is a grid of independent cells —
//! one `(protocol, parameter point, seed)` simulation each, a pure
//! function of its inputs. [`Sweep`] fans those cells across a scoped
//! std-thread worker pool and merges the results **in declaration
//! order**, so the output of a sweep is byte-identical no matter how
//! many workers ran it (proven by the `sweep_parallel_determinism`
//! test and the CI `jobs=1` vs `jobs=4` diff gate). Threads are legal
//! here: `bench` carries no `clippy.toml` thread/clock ban, because
//! nothing in this crate is protocol state — determinism is preserved
//! structurally, by keying every cell with a stable id and never
//! letting completion order reach the output.
//!
//! Failure handling is loud: a panicking cell fails the whole sweep,
//! and the [`SweepError`] names each failed cell id and its panic
//! message. Workers stop picking up new cells once a failure is
//! flagged (already-running cells finish).
//!
//! Worker count, in precedence order: a `--jobs N` / `--jobs=N`
//! command-line flag, the `GRIDAGG_JOBS` environment variable, then
//! [`std::thread::available_parallelism`]. See [`jobs`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One failed cell: `(cell id, panic message)`.
pub type CellFailure = (String, String);

/// Error of a sweep in which at least one cell panicked.
///
/// Carries every failure observed before the sweep stopped (workers
/// stop claiming new cells after the first failure, so under parallel
/// execution this is not necessarily *all* cells that would fail).
#[derive(Debug)]
pub struct SweepError {
    /// The failed cells, in declaration order.
    pub failures: Vec<CellFailure>,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} sweep cell(s) failed:", self.failures.len())?;
        for (id, msg) in &self.failures {
            write!(f, "\n  {id}: {msg}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

struct Cell<T> {
    id: String,
    task: Box<dyn FnOnce() -> T + Send>,
}

/// A batch of independent cells, executed by [`Sweep::run`] with
/// results returned in declaration order.
#[derive(Default)]
pub struct Sweep<T> {
    cells: Vec<Cell<T>>,
}

impl<T: Send> Sweep<T> {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { cells: Vec::new() }
    }

    /// Number of queued cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Queue one cell. `id` is the stable identity used in error
    /// reports — make it name the cell's inputs (`"fig07/loss=0.5"`),
    /// not its position.
    pub fn push(&mut self, id: impl Into<String>, task: impl FnOnce() -> T + Send + 'static) {
        self.cells.push(Cell {
            id: id.into(),
            task: Box::new(task),
        });
    }

    /// Queue `runs` cells running `f(seed)` for seeds `base_seed..`,
    /// one cell per seed — the common "several runs per point" shape.
    /// After [`Sweep::run`], `results.chunks(runs)` recovers the
    /// per-point report slices in declaration order.
    pub fn push_seeded<F>(&mut self, label: &str, runs: usize, base_seed: u64, f: F)
    where
        F: Fn(u64) -> T + Send + Clone + 'static,
    {
        for i in 0..runs {
            let seed = base_seed + i as u64;
            let f = f.clone();
            self.push(format!("{label}/seed={seed}"), move || f(seed));
        }
    }

    /// Execute every cell with [`jobs`] workers and return the results
    /// in declaration order.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] naming each panicked cell.
    pub fn run(self) -> Result<Vec<T>, SweepError> {
        let jobs = jobs();
        self.run_with_jobs(jobs)
    }

    /// [`Sweep::run`], but on failure print the error (prefixed with
    /// the binary name) and exit with status 1 — the shared main-path
    /// error handling of the harness binaries.
    pub fn run_or_exit(self, binary: &str) -> Vec<T> {
        self.run().unwrap_or_else(|e| {
            eprintln!("{binary}: {e}");
            std::process::exit(1);
        })
    }

    /// Execute every cell with an explicit worker count (`<= 1` runs
    /// serially on the calling thread). Results are in declaration
    /// order regardless of `jobs` — the cell → result mapping is by
    /// index, never by completion order.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] naming each panicked cell.
    pub fn run_with_jobs(self, jobs: usize) -> Result<Vec<T>, SweepError> {
        let n = self.cells.len();
        if jobs <= 1 || n <= 1 {
            // serial fast path: same catch-unwind semantics, no pool
            let mut results = Vec::with_capacity(n);
            let mut failures = Vec::new();
            for cell in self.cells {
                match catch_unwind(AssertUnwindSafe(cell.task)) {
                    Ok(v) => results.push(v),
                    Err(p) => failures.push((cell.id, panic_message(&*p))),
                }
            }
            return if failures.is_empty() {
                Ok(results)
            } else {
                Err(SweepError { failures })
            };
        }

        // Each slot is claimed by exactly one worker via the shared
        // cursor; the mutexes are uncontended and only exist to hand
        // tasks out and results back across the scope safely.
        let slots: Vec<Mutex<Option<Cell<T>>>> = self
            .cells
            .into_iter()
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let failures: Mutex<Vec<(usize, CellFailure)>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..jobs.min(n) {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = slots[i]
                        .lock()
                        .expect("sweep slot lock")
                        .take()
                        .expect("each slot claimed once");
                    match catch_unwind(AssertUnwindSafe(cell.task)) {
                        Ok(v) => *results[i].lock().expect("sweep result lock") = Some(v),
                        Err(p) => {
                            failures
                                .lock()
                                .expect("sweep failure lock")
                                .push((i, (cell.id, panic_message(&*p))));
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        let mut failures = failures.into_inner().expect("sweep failure lock");
        if failures.is_empty() {
            Ok(results
                .into_iter()
                .map(|r| {
                    r.into_inner()
                        .expect("sweep result lock")
                        .expect("every cell completed")
                })
                .collect())
        } else {
            failures.sort_by_key(|(i, _)| *i);
            Err(SweepError {
                failures: failures.into_iter().map(|(_, f)| f).collect(),
            })
        }
    }
}

/// Extract a readable message from a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `v` as a number, or an error naming the flag or variable `name` it
/// came from: these binaries produce committed numbers, so `--jobs 2x`
/// must not quietly take every core, nor `GRIDAGG_RUNS=4x` quietly run
/// the default 40 seeds.
fn number<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("{name}: expected a count, got {v:?}"))
}

/// The count `flag N` / `flag=N` gives in `args`, else the `env`
/// variable's, with whether the command line gave it; at least 1.
fn flag_or_env(
    args: impl IntoIterator<Item = String>,
    flag: &str,
    env: &str,
) -> Result<Option<(usize, bool)>, String> {
    let count = |name: &str, v: &str| number::<usize>(name, v).map(|n| n.max(1));
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let value = if a == flag {
            Some(args.next().unwrap_or_default())
        } else {
            a.strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
                .map(str::to_string)
        };
        if let Some(v) = value {
            return count(flag, &v).map(|n| Some((n, true)));
        }
    }
    match std::env::var(env) {
        Ok(v) => count(env, &v).map(|n| Some((n, false))),
        Err(_) => Ok(None),
    }
}

/// Print a malformed-value error and exit with status 2.
fn exit_malformed<T>(e: String) -> T {
    eprintln!("{e}");
    std::process::exit(2);
}

/// [`flag_or_env`] over this process's arguments; a malformed count
/// prints the error and exits with status 2.
fn process_count(flag: &str, env: &str) -> Option<(usize, bool)> {
    flag_or_env(std::env::args(), flag, env).unwrap_or_else(exit_malformed)
}

/// The `env` variable as a number, else `default`; a value that does
/// not parse prints an error naming the variable and exits with
/// status 2 (the rule `--jobs` follows).
pub fn env_or<T: std::str::FromStr>(env: &str, default: T) -> T {
    std::env::var(env)
        .map_or(Ok(default), |v| number(env, &v))
        .unwrap_or_else(exit_malformed)
}

/// The sweep worker count: `--jobs N` / `--jobs=N` on the command
/// line, else the `GRIDAGG_JOBS` environment variable, else
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn jobs() -> usize {
    process_count("--jobs", "GRIDAGG_JOBS").map_or_else(crate::host_cores, |(n, _)| n)
}

/// In-run engine thread count: `--engine-jobs N` / `--engine-jobs=N`
/// on the command line, else the `GRIDAGG_ENGINE_JOBS` environment
/// variable, else 1 (serial round loop).
///
/// Composes with the sweep executor so cells × engine threads never
/// oversubscribe: when the sweep itself runs cells concurrently
/// (`sweep_jobs > 1`), an *environment-derived* engine thread count is
/// capped at `cores / sweep_jobs`. An explicit `--engine-jobs` flag is
/// taken at face value: a thread count named on the command line is the
/// one the run uses.
///
/// Results are byte-identical at any value either way.
pub fn engine_jobs(sweep_jobs: usize) -> usize {
    match process_count("--engine-jobs", "GRIDAGG_ENGINE_JOBS") {
        Some((n, from_flag)) if from_flag || sweep_jobs <= 1 => n,
        Some((n, _)) => n.min((crate::host_cores() / sweep_jobs).max(1)),
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sweep_is_ok() {
        let sweep: Sweep<u32> = Sweep::new();
        assert!(sweep.is_empty());
        assert_eq!(sweep.run_with_jobs(4).expect("empty ok"), Vec::<u32>::new());
    }

    #[test]
    fn results_in_declaration_order_any_jobs() {
        for jobs in [1usize, 2, 4, 8] {
            let mut sweep = Sweep::new();
            for i in 0..32u64 {
                // vary per-cell work so completion order scrambles
                sweep.push(format!("cell-{i}"), move || {
                    let spins = (31 - i) * 1000;
                    let mut acc = i;
                    for s in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
                    }
                    std::hint::black_box(acc);
                    i
                });
            }
            let got = sweep.run_with_jobs(jobs).expect("no panics");
            assert_eq!(got, (0..32).collect::<Vec<u64>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn push_seeded_enumerates_seeds() {
        let mut sweep = Sweep::new();
        sweep.push_seeded("point", 5, 100, |seed| seed);
        assert_eq!(sweep.len(), 5);
        assert_eq!(
            sweep.run_with_jobs(2).expect("ok"),
            vec![100, 101, 102, 103, 104]
        );
    }

    #[test]
    fn panicking_cell_fails_sweep_with_id() {
        for jobs in [1usize, 4] {
            let mut sweep = Sweep::new();
            sweep.push("fine/seed=1", || 1u32);
            sweep.push("broken/seed=2", || panic!("boom at seed 2"));
            sweep.push("fine/seed=3", || 3u32);
            let err = sweep.run_with_jobs(jobs).expect_err("must fail");
            assert!(
                err.failures.iter().any(|(id, _)| id == "broken/seed=2"),
                "jobs={jobs}: failure must carry the cell id, got {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("broken/seed=2") && msg.contains("boom at seed 2"));
        }
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn a_count_comes_from_the_flag_then_the_environment_and_must_parse() {
        let args = |line: &str| line.split(' ').map(str::to_string).collect::<Vec<_>>();
        let read = |line: &str| flag_or_env(args(line), "--jobs", "GRIDAGG_NO_SUCH_VAR");
        assert_eq!(read("bin --check x --jobs 3"), Ok(Some((3, true))));
        assert_eq!(read("bin --jobs=0"), Ok(Some((1, true))));
        assert_eq!(read("bin --jobs-extra=4 --engine-jobs 2"), Ok(None));
        for bad in ["bin --jobs 2x", "bin --jobs=", "bin --jobs"] {
            let err = read(bad).unwrap_err();
            assert!(err.starts_with("--jobs: expected a count"), "{bad}: {err}");
        }
        // GRIDAGG_RUNS / GRIDAGG_SEED: same rule
        assert_eq!(number::<u64>("GRIDAGG_SEED", " 2001\n"), Ok(2001));
        for bad in ["4x", "", "-1", "1.5"] {
            let err = number::<usize>("GRIDAGG_RUNS", bad).unwrap_err();
            assert!(err.starts_with("GRIDAGG_RUNS: expected a count"), "{err}");
        }
    }
}
