//! # gridagg-bench
//!
//! The figure/table regeneration harness. The paper's evaluation (§7),
//! the complexity table and the ablations are one spec table and one
//! driver ([`figures`]) behind one `figures` binary; `churn`,
//! `trace_profile`, `run_experiment` and `bench_baseline` are binaries
//! of their own, because CI gates call them by name and they share no
//! shape with that table. Every binary picks its protocols from
//! [`gridagg_core::runner::Protocol`], core's one protocol table.
//! Shared helpers here: run-count control, the sweep executor
//! ([`sweep`]), aligned table printing, and CSV / JSON / SVG output
//! under `results/`. Nothing here times a run: what these binaries
//! write is decided by the seed, and host time belongs to the separate
//! `benchmark/` package.
//!
//! Environment knobs:
//! * `GRIDAGG_RUNS` — runs per sweep point (default 40; figures in the
//!   paper average "several runs").
//! * `GRIDAGG_SEED` — base seed (default 2001).
//! * `GRIDAGG_OUT` — output directory for CSVs (default `results`).
//! * `GRIDAGG_JOBS` — sweep worker threads (default: all cores); the
//!   `--jobs N` flag takes precedence. See [`sweep`].

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod census;
pub mod figures;
pub mod plot;
pub mod sweep;

/// Runs per sweep point (`GRIDAGG_RUNS`, default 40, at least 1). A
/// value that is not a count exits with status 2, like the two
/// variables below: see [`sweep::env_or`].
pub fn runs() -> usize {
    sweep::env_or("GRIDAGG_RUNS", 40usize).max(1)
}

/// Base seed (`GRIDAGG_SEED`, default 2001).
pub fn base_seed() -> u64 {
    sweep::env_or("GRIDAGG_SEED", 2001)
}

/// Output directory (`GRIDAGG_OUT`, default `results`), created on
/// demand.
///
/// # Panics
///
/// Panics if the directory cannot be created: results silently landing
/// nowhere is worse than a loud stop (a bench run whose CSVs vanish
/// looks identical to one that succeeded).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("GRIDAGG_OUT").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&path) {
        panic!(
            "gridagg-bench: cannot create output directory {}: {e}",
            path.display()
        );
    }
    path
}

/// Write a CSV under the output directory.
///
/// # Panics
///
/// Panics if the file cannot be written — bench output is the whole
/// point of a run, so an I/O failure must not be reduced to a log line.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    let path = out_dir().join(name);
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => panic!("gridagg-bench: could not write {}: {e}", path.display()),
    }
}

/// Serialize a value as pretty JSON under the output directory —
/// experiment configs are recorded next to their results so every CSV
/// is reproducible from its own provenance file.
///
/// # Panics
///
/// Panics if the file cannot be written (see [`write_csv`]).
pub fn write_json<T: gridagg_core::json::ToJson>(name: &str, value: &T) {
    let path = out_dir().join(name);
    let body = value.to_json().to_string_pretty();
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => panic!("gridagg-bench: could not write {}: {e}", path.display()),
    }
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The measuring host as `{cores, cpu, os}`, recorded in the bench
/// baseline: allocation counts depend on the toolchain built for it.
pub fn host_json() -> gridagg_core::json::Json {
    use gridagg_core::json::Json;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::Obj(vec![
        ("cores".into(), Json::Num(host_cores() as f64)),
        ("cpu".into(), Json::Str(cpu)),
        (
            "os".into(),
            Json::Str(format!("{} {release}", std::env::consts::OS)),
        ),
    ])
}

/// Format a float in compact scientific-ish notation for tables.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 0.01 && x.abs() < 10_000.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Print an aligned table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    println!("{out}");
}

/// Shape check helper: non-increasing series.
pub fn is_decreasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] <= w[0])
}

/// Shape check helper tolerant of sampling noise: each step may exceed
/// its predecessor by at most 30% + epsilon, and the series must fall
/// clearly end to end.
pub fn is_decreasing_noisy(values: &[f64]) -> bool {
    if values.len() < 2 {
        return true;
    }
    let steps_ok = values.windows(2).all(|w| w[1] <= w[0] * 1.3 + 1e-6);
    let overall = values[values.len() - 1] <= values[0] * 0.5 + 1e-9;
    steps_ok && overall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.1234), "0.1234");
        assert!(sci(1.5e-7).contains('e'));
        assert!(sci(1.0e9).contains('e'));
    }

    #[test]
    fn decreasing_check() {
        assert!(is_decreasing(&[3.0, 2.0, 2.0, 0.0]));
        assert!(!is_decreasing(&[1.0, 2.0]));
        assert!(is_decreasing(&[]));
    }

    #[test]
    fn noisy_decreasing_check() {
        // small upward noise allowed
        assert!(is_decreasing_noisy(&[0.17, 0.066, 0.0054, 0.0057]));
        // clear end-to-end fall required
        assert!(!is_decreasing_noisy(&[0.01, 0.0099]));
        // large upward jump rejected
        assert!(!is_decreasing_noisy(&[0.1, 0.2, 0.001]));
        assert!(is_decreasing_noisy(&[1.0]));
    }

    #[test]
    fn defaults_without_env() {
        assert!(runs() > 0);
        let _ = base_seed();
    }
}
