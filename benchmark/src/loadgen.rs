//! The benchmark's own load generator: one submitter thread (the caller)
//! and one collector thread that waits on the tickets in submission order.
//!
//! Open loop: request `i` is due at `start + i / rate`, latency is timed
//! from that due instant, and the submitter never waits for a reply — a
//! stall delays the submissions behind it and shows up as their latency.
//! Closed loop: a fixed number of requests is kept in flight; the submitter
//! sends the next one when the collector reports a completion.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the generator drives. `request` numbers the submissions of one load
/// from 0; the target maps it to a payload.
pub trait Target: Sync {
    type Ticket: Send;
    fn submit(&self, request: usize) -> Self::Ticket;
    /// Block until the reply is there; `None` for an error reply.
    fn wait(&self, ticket: Self::Ticket) -> Option<usize>;
}

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Independent users: a fixed arrival schedule.
    Open { rate_per_s: f64 },
    /// Callers that each wait for their reply.
    Closed { in_flight: usize },
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    pub request: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub done: Instant,
    pub reply: Option<usize>,
}

impl Completed {
    pub fn latency_s(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64()
    }

    pub fn late_s(&self) -> f64 {
        self.submit_start
            .saturating_duration_since(self.due)
            .as_secs_f64()
    }

    pub fn submit_s(&self) -> f64 {
        self.submit_end
            .saturating_duration_since(self.submit_start)
            .as_secs_f64()
    }
}

pub struct Finished {
    /// In submission order, which is completion order too: the collector
    /// waits on the tickets in that order.
    pub completed: Vec<Completed>,
    /// The first due instant.
    pub start: Instant,
    /// First due instant to last completion.
    pub wall_s: f64,
}

/// Due instant of request `i` of an open-loop schedule.
pub fn due_at(start: Instant, i: usize, rate_per_s: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// Sleep until shortly before `due`, then spin: a sleep alone overshoots by
/// the timer slack, a spin alone takes a core from the service.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Sent<T> {
    request: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: T,
}

/// Drive `target` with `load` for `duration`; returns when every submitted
/// request has been answered.
pub fn run_load<T: Target>(target: &T, load: Load, duration: Duration) -> Finished {
    let (sent_tx, sent_rx) = mpsc::channel::<Sent<T::Ticket>>();
    let (freed_tx, freed_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let completed = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut completed = Vec::new();
            for sent in sent_rx {
                let reply = target.wait(sent.ticket);
                completed.push(Completed {
                    request: sent.request,
                    due: sent.due,
                    submit_start: sent.submit_start,
                    submit_end: sent.submit_end,
                    done: Instant::now(),
                    reply,
                });
                // The submitter of an open loop never listens.
                let _ = freed_tx.send(());
            }
            completed
        });
        let submit = |i: usize, due: Option<Instant>| {
            let submit_start = Instant::now();
            let ticket = target.submit(i);
            let submit_end = Instant::now();
            let sent = Sent {
                request: i,
                due: due.unwrap_or(submit_start),
                submit_start,
                submit_end,
                ticket,
            };
            sent_tx
                .send(sent)
                .expect("the collector outlives the submitter");
        };
        match load {
            Load::Open { rate_per_s } => {
                let requests = (duration.as_secs_f64() * rate_per_s) as usize;
                for i in 0..requests {
                    let due = due_at(start, i, rate_per_s);
                    wait_until(due);
                    submit(i, Some(due));
                }
            }
            Load::Closed { in_flight } => {
                let deadline = start + duration;
                for i in 0.. {
                    if i >= in_flight {
                        freed_rx.recv().expect("a request in flight completes");
                    }
                    if Instant::now() >= deadline {
                        break;
                    }
                    submit(i, None);
                }
            }
        }
        drop(sent_tx);
        collector.join().expect("the collector does not panic")
    });
    let end = completed.last().map_or(start, |c| c.done);
    Finished {
        completed,
        start,
        wall_s: end.saturating_duration_since(start).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn open_loop_schedule_is_start_plus_i_over_rate() {
        let start = Instant::now();
        assert_eq!(due_at(start, 0, 1000.0), start);
        assert_eq!(due_at(start, 1, 1000.0), start + Duration::from_millis(1));
        assert_eq!(
            due_at(start, 2500, 1000.0),
            start + Duration::from_millis(2500)
        );
        assert_eq!(due_at(start, 3, 4.0), start + Duration::from_millis(750));
    }

    /// Replies with the request number; tracks how many are in flight.
    struct Echo {
        in_flight: AtomicUsize,
        most: AtomicUsize,
        service_time: Duration,
    }

    impl Echo {
        fn new(service_time: Duration) -> Self {
            Echo {
                in_flight: AtomicUsize::new(0),
                most: AtomicUsize::new(0),
                service_time,
            }
        }
    }

    impl Target for Echo {
        type Ticket = usize;

        fn submit(&self, request: usize) -> usize {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.most.fetch_max(now, Ordering::SeqCst);
            request
        }

        fn wait(&self, ticket: usize) -> Option<usize> {
            std::thread::sleep(self.service_time);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            Some(ticket)
        }
    }

    #[test]
    fn open_loop_submits_on_schedule_and_times_from_the_due_instant() {
        let echo = Echo::new(Duration::ZERO);
        let load = Load::Open { rate_per_s: 2000.0 };
        let finished = run_load(&echo, load, Duration::from_millis(100));
        assert_eq!(finished.completed.len(), 200);
        let first_due = finished.start;
        for (i, c) in finished.completed.iter().enumerate() {
            assert_eq!(c.request, i);
            assert_eq!(c.reply, Some(i));
            assert_eq!(c.due, due_at(first_due, i, 2000.0));
            assert!(c.submit_start >= c.due, "never early");
            assert!(c.latency_s() >= c.late_s() + c.submit_s());
        }
        assert!(finished.wall_s >= 0.0995);
    }

    #[test]
    fn open_loop_does_not_wait_for_replies() {
        // Each reply takes 2 ms and arrivals come every 0.5 ms: a submitter
        // that waited would finish far behind schedule.
        let echo = Echo::new(Duration::from_millis(2));
        let load = Load::Open { rate_per_s: 2000.0 };
        let finished = run_load(&echo, load, Duration::from_millis(50));
        let last = finished.completed.last().unwrap();
        assert!(
            last.late_s() < 0.01,
            "submitter ran {} s late",
            last.late_s()
        );
        assert!(echo.most.load(Ordering::SeqCst) > 10, "a backlog built up");
        assert!(
            last.latency_s() > 0.1,
            "and the last request waited behind it"
        );
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_never_exceeds_it() {
        let echo = Echo::new(Duration::from_micros(200));
        let load = Load::Closed { in_flight: 16 };
        let finished = run_load(&echo, load, Duration::from_millis(60));
        assert_eq!(echo.most.load(Ordering::SeqCst), 16);
        assert_eq!(echo.in_flight.load(Ordering::SeqCst), 0, "all answered");
        assert!(finished.completed.len() > 16);
        assert!(finished.completed.iter().all(|c| c.due == c.submit_start));
    }
}
