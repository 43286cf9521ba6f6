//! The micro-batching coalescer: a pure time/size-windowed queue.
//!
//! Requests accumulate in an open *window*. The window flushes — returns
//! its requests as one batch, in FIFO submission order — when either
//! trigger fires:
//!
//! * **size-full**: the window reaches [`WindowConfig::max_batch`] items
//!   (flushed immediately by the `push` that filled it);
//! * **deadline-expiry**: [`WindowConfig::max_delay`] has passed since the
//!   window's *first* item arrived (flushed by the next `poll`). The
//!   deadline is anchored to the first item, so a lone straggler waits at
//!   most `max_delay` — the worst-case latency a request pays for the
//!   chance to be batched.
//!
//! The coalescer holds no thread, lock, or timer of its own — it is a
//! plain state machine over instants supplied by the caller, which is what
//! makes its flush semantics unit-testable with a
//! [`MockClock`](crate::clock::MockClock). The [`Service`](crate::Service)
//! wraps it in a mutex and supplies real time.
//!
//! Determinism contract (pinned by the unit tests): a flush contains
//! exactly the pending items in submission order, `poll` at a simultaneous
//! size-full + deadline trigger yields one batch (size-full wins — the
//! batch is full, the deadline is moot), and an empty window never
//! flushes.

use std::time::{Duration, Instant};

/// Flush configuration for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Maximum items per window; a `push` that reaches this count flushes
    /// immediately. Must be ≥ 1. `1` disables coalescing (every push
    /// flushes — the batch-size-1 dispatch baseline `load_gen
    /// --window-batch 1` measures).
    pub max_batch: usize,
    /// Maximum time a window may stay open once it holds an item.
    /// `Duration::ZERO` means a window never waits: the first `poll` (or
    /// size-full `push`) flushes it.
    pub max_delay: Duration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// The pure micro-batching state machine. `T` is the per-request payload
/// (the service uses pending-request handles; tests use integers).
#[derive(Debug)]
pub struct Coalescer<T> {
    config: WindowConfig,
    pending: Vec<T>,
    /// Arrival instant of the first item in the open window.
    opened_at: Option<Instant>,
}

impl<T> Coalescer<T> {
    /// An empty coalescer.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch == 0` — a window that can hold nothing
    /// could never flush.
    pub fn new(config: WindowConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be >= 1");
        Coalescer {
            config,
            pending: Vec::new(),
            opened_at: None,
        }
    }

    /// The flush configuration.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Number of items in the open window.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Add an item to the window at instant `now`. Returns the flushed
    /// batch if this push filled the window (size-full trigger), `None`
    /// otherwise.
    pub fn push(&mut self, item: T, now: Instant) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            self.opened_at = Some(now);
        }
        self.pending.push(item);
        if self.pending.len() >= self.config.max_batch {
            return Some(self.take());
        }
        None
    }

    /// Check the deadline at instant `now`. Returns the flushed batch if
    /// the open window's deadline has expired (deadline trigger), `None`
    /// if the window is empty or still within its delay budget.
    pub fn poll(&mut self, now: Instant) -> Option<Vec<T>> {
        let opened_at = self.opened_at?;
        debug_assert!(!self.pending.is_empty(), "opened_at implies items");
        if now >= opened_at + self.config.max_delay {
            return Some(self.take());
        }
        None
    }

    /// The instant the open window's deadline expires, if one is open.
    /// The service's dispatcher sleeps until this instant (or the next
    /// push, whichever comes first).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.opened_at.map(|t| t + self.config.max_delay)
    }

    /// Force-flush whatever is pending (used at shutdown so no request is
    /// stranded). Returns `None` when empty.
    pub fn drain(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        Some(self.take())
    }

    fn take(&mut self) -> Vec<T> {
        self.opened_at = None;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, MockClock};

    fn config(max_batch: usize, max_delay_ms: u64) -> WindowConfig {
        WindowConfig {
            max_batch,
            max_delay: Duration::from_millis(max_delay_ms),
        }
    }

    #[test]
    fn size_full_flushes_on_the_filling_push() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(3, 1_000));
        assert_eq!(c.push(1, clock.now()), None);
        assert_eq!(c.push(2, clock.now()), None);
        // Third push fills the window: flushed immediately, FIFO order,
        // no waiting for the (far) deadline.
        assert_eq!(c.push(3, clock.now()), Some(vec![1, 2, 3]));
        assert!(c.is_empty());
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn deadline_expiry_flushes_on_poll() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(100, 5));
        assert_eq!(c.push(7, clock.now()), None);
        // Within the delay budget: nothing to flush.
        clock.advance(Duration::from_millis(4));
        assert_eq!(c.poll(clock.now()), None);
        // Deadline reached: the partial window flushes.
        clock.advance(Duration::from_millis(1));
        assert_eq!(c.poll(clock.now()), Some(vec![7]));
        assert!(c.is_empty());
    }

    #[test]
    fn poll_exactly_on_the_deadline_instant_flushes() {
        // The deadline comparison must be inclusive: a poll landing on
        // exactly `opened_at + max_delay` flushes. A dispatcher that
        // sleeps until the deadline and polls on wake would otherwise
        // miss by one tick and wait a whole extra poll interval.
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(100, 5));
        assert_eq!(c.push(42, clock.now()), None);
        // One nanosecond short of the deadline: still within budget.
        clock.advance(Duration::from_millis(5) - Duration::from_nanos(1));
        assert_eq!(c.poll(clock.now()), None);
        // Land on the exact instant — not a tick past it.
        clock.advance(Duration::from_nanos(1));
        assert_eq!(c.poll(clock.now()), Some(vec![42]));
        assert!(c.is_empty());
    }

    #[test]
    fn straggler_waits_at_most_max_delay_from_first_item() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(100, 10));
        let t0 = clock.now();
        c.push(1, clock.now());
        // A second item arriving late does NOT push the deadline out: the
        // window is anchored to its first item, bounding the straggler's
        // coalescing latency.
        clock.advance(Duration::from_millis(9));
        c.push(2, clock.now());
        assert_eq!(c.next_deadline(), Some(t0 + Duration::from_millis(10)));
        clock.advance(Duration::from_millis(1));
        assert_eq!(c.poll(clock.now()), Some(vec![1, 2]));
    }

    #[test]
    fn empty_window_never_flushes() {
        let clock = MockClock::new();
        let mut c = Coalescer::<u32>::new(config(4, 0));
        // Even with a zero delay, polling an empty coalescer yields
        // nothing — the service never dispatches an empty matrix.
        assert_eq!(c.poll(clock.now()), None);
        clock.advance(Duration::from_secs(3600));
        assert_eq!(c.poll(clock.now()), None);
        assert_eq!(c.drain(), None);
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn simultaneous_triggers_flush_once_deterministically() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(2, 5));
        assert_eq!(c.push(1, clock.now()), None);
        clock.advance(Duration::from_millis(5));
        // This push lands exactly at the deadline AND fills the window.
        // Size-full wins: the push itself returns the batch, in FIFO
        // order, and the subsequent poll must NOT produce a second flush.
        assert_eq!(c.push(2, clock.now()), Some(vec![1, 2]));
        assert_eq!(c.poll(clock.now()), None);
        assert!(c.is_empty());
    }

    #[test]
    fn flush_order_is_submission_order_across_windows() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(2, 1_000));
        let first = c.push(10, clock.now()).or_else(|| c.push(11, clock.now()));
        assert_eq!(first, Some(vec![10, 11]));
        let second = c.push(12, clock.now()).or_else(|| c.push(13, clock.now()));
        assert_eq!(second, Some(vec![12, 13]));
    }

    #[test]
    fn batch_size_one_disables_coalescing() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(1, 1_000));
        assert_eq!(c.push(5, clock.now()), Some(vec![5]));
        assert!(c.is_empty());
    }

    #[test]
    fn zero_delay_flushes_on_first_poll() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(8, 0));
        assert_eq!(c.push(1, clock.now()), None);
        assert_eq!(c.poll(clock.now()), Some(vec![1]));
    }

    #[test]
    fn drain_flushes_partial_window_at_shutdown() {
        let clock = MockClock::new();
        let mut c = Coalescer::new(config(8, 1_000));
        c.push(1, clock.now());
        c.push(2, clock.now());
        assert_eq!(c.drain(), Some(vec![1, 2]));
        assert_eq!(c.drain(), None);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_rejected() {
        let _ = Coalescer::<u32>::new(config(0, 1));
    }
}
