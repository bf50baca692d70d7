//! One spare slot per thread for the two big per-search buffers.
//!
//! A search at `n × d` builds one [`crate::context::QueryContext`]
//! (`n · d` column terms) and walks it with one
//! [`crate::walker::PrefixStack`] (up to `d` accumulators of `n`). At
//! 20000 × 12 that is about 1.9 MB each, and freshly allocated buffers
//! of that size are page-faulted in on first write whenever the
//! allocator has handed the previous search's memory back to the
//! kernel. A learning phase or a stream of served queries runs one
//! search after another on the same threads, so each thread keeps the
//! last search's buffers here and the next search on that thread
//! takes them back.
//!
//! The slot holds **capacity only**: the column buffer is parked with
//! length 0, and each parked accumulator is emptied. It never holds a
//! dataset borrow, a context `uid` or a visit count, so nothing one
//! search computed is readable by the next. A returned buffer replaces
//! the parked one only if it is larger, so the slot costs at most one
//! context and one stack per thread that has searched.

use std::cell::Cell;
use std::thread::LocalKey;

thread_local! {
    static COLS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    static LEVELS: Cell<Vec<Vec<f64>>> = const { Cell::new(Vec::new()) };
}

/// Parks `buf` in `slot` unless the slot already holds a larger one.
/// A slot being torn down at thread exit just drops the buffer.
fn park<T: Default>(slot: &'static LocalKey<Cell<T>>, buf: T, size: fn(&T) -> usize) {
    let _ = slot.try_with(|s| {
        let spare = s.take();
        s.set(if size(&spare) >= size(&buf) {
            spare
        } else {
            buf
        });
    });
}

/// This thread's spare context column buffer: empty, possibly with
/// capacity left by an earlier search.
pub(crate) fn take_cols() -> Vec<f64> {
    COLS.try_with(Cell::take).unwrap_or_default()
}

/// Returns a context's column buffer to this thread's slot.
pub(crate) fn give_cols(mut cols: Vec<f64>) {
    cols.clear();
    park(&COLS, cols, Vec::capacity);
}

/// This thread's spare prefix-stack accumulators: every buffer empty,
/// possibly with capacity left by an earlier search.
pub(crate) fn take_levels() -> Vec<Vec<f64>> {
    LEVELS.try_with(Cell::take).unwrap_or_default()
}

/// Returns a prefix stack's accumulators to this thread's slot.
pub(crate) fn give_levels(mut levels: Vec<Vec<f64>>) {
    for level in &mut levels {
        level.clear();
    }
    park(&LEVELS, levels, |l| l.iter().map(Vec::capacity).sum());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use hos_data::{Dataset, Metric, Subspace};

    #[test]
    fn the_slot_keeps_the_larger_buffer_as_capacity_only() {
        std::thread::spawn(|| {
            let big = vec![1.0f64; 64];
            let ptr = big.as_ptr();
            give_cols(big);
            give_cols(vec![2.0; 8]);
            let cols = take_cols();
            assert_eq!((cols.len(), cols.as_ptr()), (0, ptr));
            assert!(cols.capacity() >= 64);
            assert_eq!(take_cols().capacity(), 0, "taking empties the slot");

            give_levels(vec![vec![3.0; 16]; 3]);
            let levels = take_levels();
            assert_eq!(levels.len(), 3);
            assert!(levels.iter().all(|l| l.is_empty() && l.capacity() >= 16));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn contexts_and_stacks_park_their_buffers_on_drop() {
        std::thread::spawn(|| {
            let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 1.0, 0.5]).collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            let ctx = QueryContext::build(&ds, Metric::L2, &[0.0, 0.0, 0.0]);
            {
                let mut w = ctx.walker();
                w.seek(Subspace::full(3));
                w.od(3, None);
            }
            let levels = take_levels();
            assert_eq!(levels.len(), 3);
            assert!(levels.iter().all(|l| l.is_empty() && l.capacity() >= 50));
            drop(ctx);
            assert!(take_cols().capacity() >= 150);
        })
        .join()
        .unwrap();
    }
}
