//! # hos-bench
//!
//! The experiment harness: every table and figure promised by the
//! demo paper's evaluation plan (part 3), regenerable from the command
//! line. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded results.
//!
//! ```sh
//! cargo run -p hos-bench --release --bin harness -- all
//! cargo run -p hos-bench --release --bin harness -- e2 e3
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV to
//! `results/`.

pub mod experiments;
pub mod workloads;

use hos_data::table::Table;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where result CSVs are written (relative to the workspace root).
pub fn results_dir() -> PathBuf {
    // When run via `cargo run -p hos-bench`, cwd is the workspace root.
    PathBuf::from("results")
}

/// Prints a table under a heading and writes its CSV.
pub fn emit(id: &str, title: &str, table: &Table, dir: &Path) {
    println!("\n=== {id}: {title} ===\n");
    println!("{}", table.render());
    let path = dir.join(format!("{id}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Milliseconds with 2 decimals, for table cells.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Timed repetitions of each side of a floor.
const FLOOR_REPS: usize = 7;

/// Times `kernel` and `reference` best-of-7, alternating so a burst of
/// machine noise lands on both, prints the speedup, and panics, naming
/// both timings, if it is below `floor`. The benches' workloads are
/// deterministic, so the minimum is the cleanest estimate of each
/// cost. This gates a fast path against its own reference path on the
/// same machine: one that has fallen back to the reference fails on
/// any hardware.
pub fn assert_floor<A, B>(
    name: &str,
    floor: f64,
    (kernel_name, mut kernel): (&str, impl FnMut() -> A),
    (reference_name, mut reference): (&str, impl FnMut() -> B),
) {
    fn ms<O>(f: &mut impl FnMut() -> O) -> f64 {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_secs_f64() * 1e3
    }
    let (mut kernel_ms, mut reference_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..FLOOR_REPS {
        kernel_ms = kernel_ms.min(ms(&mut kernel));
        reference_ms = reference_ms.min(ms(&mut reference));
    }
    let ratio = reference_ms / kernel_ms;
    println!(
        "floor {name}: {kernel_name} {kernel_ms:.3} ms vs {reference_name} {reference_ms:.3} ms \
         = {ratio:.2}x (floor {floor}x)"
    );
    assert!(
        ratio >= floor,
        "{name}: {kernel_name} took {kernel_ms:.3} ms and {reference_name} {reference_ms:.3} ms, \
         only {ratio:.2}x (floor {floor}x)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures() {
        let (v, s) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert!(s >= 0.009, "measured {s}");
    }

    #[test]
    fn ms_format() {
        assert_eq!(ms(0.001234), "1.23");
    }
}
