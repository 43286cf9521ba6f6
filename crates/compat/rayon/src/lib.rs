//! Offline, API-compatible subset of the `rayon` crate.
//!
//! The workspace uses rayon for one pattern — `vec.into_par_iter().map(f)
//! .collect()` on the batched kernel hot paths — so that is what this crate
//! provides. Work is split into one chunk per worker thread: the calling
//! thread runs the first chunk itself, as upstream rayon's caller works,
//! and every other chunk runs on a scoped `std::thread`. Results are joined
//! in chunk order, so order is preserved. Unlike upstream rayon the
//! `map` adapter is **eager** (it runs when called, not at `collect`), which
//! is observationally identical for the map-then-collect pattern.
//!
//! # Thread-count control
//!
//! The worker count is resolved per parallel call, in precedence order:
//!
//! 1. a process-wide programmatic override ([`set_num_threads`], used by
//!    benchmarks sweeping a scaling curve within one process);
//! 2. the `HDC_NUM_THREADS` environment variable (a positive integer;
//!    anything else is ignored with a warning printed once);
//! 3. [`std::thread::available_parallelism`].
//!
//! [`current_num_threads`] reports the resolved count, mirroring upstream
//! rayon's function of the same name. `set_num_threads` is an extension
//! upstream rayon expresses through `ThreadPoolBuilder`; this crate has no
//! persistent pool, so a plain setter is the equivalent knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Glob-import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// `0` = no override; otherwise the forced worker count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Warn about a malformed `HDC_NUM_THREADS` value only once per process.
static ENV_WARNING: Once = Once::new();

/// The number of worker threads parallel calls currently split into:
/// the [`set_num_threads`] override if set, else a positive-integer
/// `HDC_NUM_THREADS`, else [`std::thread::available_parallelism`].
///
/// The environment variable is re-read on every call (selection is not
/// cached), so a child process spawned with a different `HDC_NUM_THREADS`
/// sees its own value without any re-initialization hook.
pub fn current_num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("HDC_NUM_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => ENV_WARNING.call_once(|| {
                eprintln!("rayon-compat: ignoring invalid HDC_NUM_THREADS `{raw}`");
            }),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Force the worker count for every later parallel call in this process,
/// overriding both `HDC_NUM_THREADS` and hardware detection. Pass `0` to
/// clear the override. Intended for benchmarks that measure a thread
/// scaling curve (1/2/4/8 workers) within one process.
pub fn set_num_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;

    /// Convert `self` into a parallel iterator over its elements.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over an owned sequence of items.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Apply `f` to every element in parallel, preserving order.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter {
            items: parallel_map(self.items, &f),
        }
    }

    /// Collect the elements, mirroring `ParallelIterator::collect`.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

fn parallel_map<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut rest = items;
    while rest.len() > chunk_len {
        let tail = rest.split_off(chunk_len);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    chunks.push(rest);
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("two or more items make a chunk");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out: Vec<U> = first.into_iter().map(f).collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Mutex;

    /// Held by every test that sets the process-wide thread override.
    static KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<i64> = (0..10_000).collect();
        let doubled: Vec<i64> = xs.clone().into_par_iter().map(|x| x * 2).collect();
        let expected: Vec<i64> = xs.iter().map(|x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn borrows_in_closures_work() {
        let offset = 7i64;
        let xs: Vec<i64> = (0..100).collect();
        let shifted: Vec<i64> = xs.into_par_iter().map(|x| x + offset).collect();
        assert_eq!(shifted[0], 7);
        assert_eq!(shifted[99], 106);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = Vec::new();
        let out: Vec<i32> = empty.into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<i32> = vec![41].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn caller_runs_the_first_chunk_and_order_holds() {
        let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        let caller = std::thread::current().id();
        let xs: Vec<usize> = (0..10).collect();
        for threads in [1, 2, 3] {
            super::set_num_threads(threads);
            let ran: Vec<(usize, std::thread::ThreadId)> = xs
                .clone()
                .into_par_iter()
                .map(|x| (x, std::thread::current().id()))
                .collect();
            let order: Vec<usize> = ran.iter().map(|&(x, _)| x).collect();
            assert_eq!(order, xs, "threads {threads}");
            let chunk = xs.len().div_ceil(threads);
            for (i, &(_, id)) in ran.iter().enumerate() {
                assert_eq!(id == caller, i < chunk, "threads {threads}, item {i}");
            }
        }
        super::set_num_threads(0);
    }

    #[test]
    fn thread_override_is_respected_and_clearable() {
        // Serialize against any other test touching the process-wide knob.
        let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(3);
        assert_eq!(super::current_num_threads(), 3);
        // Parallel results are identical regardless of the worker count.
        let xs: Vec<i64> = (0..1000).collect();
        let out: Vec<i64> = xs.clone().into_par_iter().map(|x| x * 3).collect();
        assert_eq!(out, xs.iter().map(|x| x * 3).collect::<Vec<_>>());
        super::set_num_threads(1);
        assert_eq!(super::current_num_threads(), 1);
        let seq: Vec<i64> = xs.clone().into_par_iter().map(|x| x * 3).collect();
        assert_eq!(seq, out);
        super::set_num_threads(0);
        assert!(super::current_num_threads() >= 1);
    }
}
