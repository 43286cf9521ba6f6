//! The serving front end: request gathering, window dispatch, result
//! scatter, and observability.
//!
//! # Request lifecycle
//!
//! [`Service::submit`] resolves the model from the registry, validates the
//! payload (typed [`ServeError`]s for wrong-dimension / empty / non-finite
//! queries — a bad request is rejected *before* it can join a window, so
//! it can never poison co-batched traffic), and pushes the request into
//! the model's [`Coalescer`]. The returned [`ResponseFuture`] is a blocking
//! ticket: [`ResponseFuture::wait`] returns once the dispatcher thread has
//! executed the window the request landed in.
//!
//! The dispatcher gathers flushed windows (size-full flushes happen on
//! the submitting thread; deadline flushes on the dispatcher's timer),
//! stacks each window's rows into one query matrix, runs it through the
//! batched executor via [`ServableModel::infer_window`], and scatters the
//! per-row predictions back through one-shot [`std::sync::mpsc`] channels,
//! one per request.
//!
//! # Model swaps mid-flight
//!
//! A request holds the `Arc` of the model it resolved at submission. If
//! the registry swaps the name before the window executes, the window is
//! partitioned by model identity and each sub-batch runs against the
//! model its requests actually resolved — a swap never changes the answer
//! of an already-accepted request, and the COW store keeps the old
//! artifacts alive until the last in-flight window drops them.
//!
//! # Feedback
//!
//! With an [`OnlineTrainer`] attached ([`Service::attach_trainer`]),
//! [`Service::feedback`] feeds labeled samples into its shadow class
//! memory on the *calling* thread — feedback races query windows by
//! design, and a policy-triggered publish swaps the registry entry while
//! traffic is in flight (the `online_chaos` suite storms exactly this).

use crate::clock::{Clock, SystemClock};
use crate::coalescer::{Coalescer, WindowConfig};
use crate::model::{Prediction, ServableModel};
use crate::online::{FeedOutcome, OnlineTrainer};
use crate::registry::ModelRegistry;
use crate::{Result, ServeError};
use hdc_ir::printer::json_str;
use hdc_runtime::StageTraceEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Coalescing window per model (size and delay triggers).
    pub window: WindowConfig,
    /// Class-memory shard override applied to every window executor
    /// (`None` = the executor's automatic thread-count heuristic).
    pub class_shards: Option<usize>,
    /// Whether windows run the batched executor schedule. `false` drops to
    /// the per-sample sequential oracle — only useful to the equivalence
    /// suite.
    pub batched: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            window: WindowConfig::default(),
            class_shards: None,
            batched: true,
        }
    }
}

/// One accepted request waiting in a window.
struct PendingRequest {
    model: Arc<ServableModel>,
    row: Vec<f64>,
    /// Sent to exactly once. If the dispatcher ever drops a request
    /// unanswered (only possible on teardown), the hang-up itself resolves
    /// the waiter — see [`ResponseFuture::wait`].
    reply: mpsc::Sender<Result<Prediction>>,
}

/// Counter set behind the stats endpoint. All counters are cumulative
/// since service start; a consistent snapshot is taken under one lock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests accepted into a window.
    pub submitted: u64,
    /// Requests rejected at submission (unknown model, validation).
    pub rejected: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with an execution error.
    pub failed: u64,
    /// Windows dispatched.
    pub windows: u64,
    /// Windows flushed by the size-full trigger.
    pub size_full_windows: u64,
    /// Windows flushed by deadline expiry.
    pub deadline_windows: u64,
    /// Windows flushed by shutdown drain.
    pub drained_windows: u64,
    /// Rows across all dispatched windows.
    pub rows_dispatched: u64,
    /// Largest window dispatched so far.
    pub max_window_rows: u64,
    /// Sum of executor instruction counts across windows.
    pub instructions_executed: u64,
    /// Sum of batched matrix-kernel calls across windows.
    pub batched_kernel_ops: u64,
    /// Sum of bit-kernel (XOR/popcount) reductions across windows.
    pub bit_kernel_ops: u64,
    /// Sum of tensor bytes copied across windows (binding is refcounted,
    /// so this stays proportional to representation conversions only).
    pub tensor_bytes_copied: u64,
    /// Sum of shard merge operations across windows.
    pub shard_merge_ops: u64,
    /// Flushed batches that contained more than one model generation (a
    /// mid-flight swap landed inside the window) and were therefore split
    /// into single-generation sub-windows before execution.
    pub partitioned_windows: u64,
    /// Feedback samples accepted into an online trainer's shadow.
    pub feedback_accepted: u64,
    /// Feedback samples rejected (no trainer, validation, bad label).
    pub feedback_rejected: u64,
    /// Perceptron updates feedback applied across trainers.
    pub online_updates: u64,
    /// Model generations published by feedback-triggered swaps.
    pub swaps_published: u64,
    /// Kernel backend the last window dispatched to.
    pub kernel_backend: &'static str,
}

/// Health snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// `"ok"` while accepting, `"stopping"` after shutdown began.
    pub status: &'static str,
    /// Registered model names (sorted).
    pub models: Vec<String>,
    /// Requests currently waiting in open windows.
    pub queue_depth: usize,
    /// Time since the service started.
    pub uptime: Duration,
}

/// Shared state between submitters and the dispatcher.
struct Inner {
    registry: Arc<ModelRegistry>,
    config: ServiceConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    /// Online trainers by registry key. A separate lock from `state`:
    /// feedback replay runs kernels and must not stall query submission
    /// or the dispatcher's stats updates.
    trainers: Mutex<HashMap<String, OnlineTrainer>>,
    wake: Condvar,
    stopping: AtomicBool,
    started: Instant,
}

struct State {
    /// Open window per model name.
    coalescers: HashMap<String, Coalescer<PendingRequest>>,
    /// Flushed windows awaiting dispatch, in flush order.
    ready: Vec<Vec<PendingRequest>>,
    stats: ServiceStats,
    /// Stage trace of the most recent window (stats endpoint payload).
    last_stage_trace: Vec<StageTraceEntry>,
}

/// The micro-batching inference service. Submissions are accepted from any
/// thread; one dispatcher thread executes windows. Dropping the service
/// shuts it down gracefully (pending windows are drained and answered).
pub struct Service {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.inner.config)
            .field("models", &self.inner.registry.names())
            .finish()
    }
}

/// A blocking ticket for one request's prediction (or typed error). The
/// name is historical: nothing polls or awaits it; redeem it with
/// [`ResponseFuture::wait`] from any thread.
pub struct ResponseFuture {
    answer: mpsc::Receiver<Result<Prediction>>,
}

impl ResponseFuture {
    /// Block the calling thread until the response arrives. A request
    /// rejected at submission carries its error already; one the dispatcher
    /// drops unanswered (teardown) resolves to [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Prediction> {
        self.answer.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

impl Service {
    /// Start a service over `registry` with `config`, spawning the
    /// dispatcher thread.
    pub fn start(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Arc<Service> {
        Service::start_with_clock(registry, config, Arc::new(SystemClock))
    }

    /// [`Service::start`] with an explicit clock (tests inject a
    /// [`MockClock`](crate::MockClock); note deadline *sleeps* still use
    /// real time — the injected clock only decides trigger comparisons).
    pub fn start_with_clock(
        registry: Arc<ModelRegistry>,
        config: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Service> {
        let inner = Arc::new(Inner {
            registry,
            config,
            clock,
            state: Mutex::new(State {
                coalescers: HashMap::new(),
                ready: Vec::new(),
                stats: ServiceStats::default(),
                last_stage_trace: Vec::new(),
            }),
            trainers: Mutex::new(HashMap::new()),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
            started: Instant::now(),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("hdc-serve-dispatch".to_string())
            .spawn(move || dispatch_loop(&worker))
            .expect("spawning the dispatcher thread");
        Arc::new(Service {
            inner,
            dispatcher: Some(dispatcher),
        })
    }

    /// The registry this service serves from (for mid-flight swaps).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Submit one query against the named model. Resolution and validation
    /// happen synchronously; the returned ticket's `wait()` returns when the
    /// window containing the request has executed.
    pub fn submit(&self, model_name: &str, row: Vec<f64>) -> ResponseFuture {
        self.try_enqueue(model_name, row).unwrap_or_else(|err| {
            // Rejected before entering a window: the ticket is born answered.
            let (reply, answer) = mpsc::channel();
            let _ = reply.send(Err(err));
            ResponseFuture { answer }
        })
    }

    fn try_enqueue(&self, model_name: &str, row: Vec<f64>) -> Result<ResponseFuture> {
        let inner = &self.inner;
        if inner.stopping.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // Resolve and validate outside the queue lock; count rejections.
        let resolved = inner
            .registry
            .get(model_name)
            .and_then(|model| model.validate_query(&row).map(|()| model));
        let model = match resolved {
            Ok(model) => model,
            Err(err) => {
                inner.state.lock().unwrap().stats.rejected += 1;
                return Err(err);
            }
        };
        let (reply, answer) = mpsc::channel();
        let request = PendingRequest { model, row, reply };
        let now = inner.clock.now();
        let mut state = inner.state.lock().unwrap();
        if inner.stopping.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        state.stats.submitted += 1;
        let window = inner.config.window;
        let coalescer = state
            .coalescers
            .entry(model_name.to_string())
            .or_insert_with(|| Coalescer::new(window));
        if let Some(batch) = coalescer.push(request, now) {
            state.stats.size_full_windows += 1;
            state.ready.push(batch);
        }
        // Wake the dispatcher: either a window is ready or a new deadline
        // needs arming.
        inner.wake.notify_all();
        Ok(ResponseFuture { answer })
    }

    /// Attach an online trainer for its registry key. Replaces any trainer
    /// already attached under the same key (returning it); subsequent
    /// [`Service::feedback`] calls for that model feed this trainer.
    pub fn attach_trainer(&self, trainer: OnlineTrainer) -> Option<OnlineTrainer> {
        self.inner
            .trainers
            .lock()
            .unwrap()
            .insert(trainer.key().to_string(), trainer)
    }

    /// Submit one labeled feedback sample for the named model's attached
    /// trainer. Runs synchronously on the calling thread: the sample is
    /// encoded, replayed against the trainer's shadow class memory, and —
    /// if the swap policy fires — a new model generation is published
    /// into the registry before this call returns. In-flight query
    /// windows keep the generation they resolved.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after shutdown began,
    /// [`ServeError::NoTrainer`] if no trainer is attached for
    /// `model_name`, or any validation/execution error from
    /// [`OnlineTrainer::feed`]. Rejected samples never touch the shadow.
    pub fn feedback(&self, model_name: &str, row: &[f64], label: usize) -> Result<FeedOutcome> {
        let inner = &self.inner;
        if inner.stopping.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let mut trainers = inner.trainers.lock().unwrap();
        let outcome = match trainers.get_mut(model_name) {
            Some(trainer) => trainer.feed_one(row, label),
            None => Err(ServeError::NoTrainer(model_name.to_string())),
        };
        drop(trainers);
        let mut state = inner.state.lock().unwrap();
        match &outcome {
            Ok(out) => {
                state.stats.feedback_accepted += 1;
                state.stats.online_updates += out.updates;
                if out.published.is_some() {
                    state.stats.swaps_published += 1;
                }
            }
            Err(_) => state.stats.feedback_rejected += 1,
        }
        outcome
    }

    /// A consistent stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.state.lock().unwrap().stats.clone()
    }

    /// The stage trace of the most recently executed window.
    pub fn last_stage_trace(&self) -> Vec<StageTraceEntry> {
        self.inner.state.lock().unwrap().last_stage_trace.clone()
    }

    /// Health snapshot.
    pub fn health(&self) -> Health {
        let state = self.inner.state.lock().unwrap();
        let queue_depth = state.coalescers.values().map(Coalescer::len).sum::<usize>()
            + state.ready.iter().map(Vec::len).sum::<usize>();
        Health {
            status: if self.inner.stopping.load(Ordering::SeqCst) {
                "stopping"
            } else {
                "ok"
            },
            models: self.inner.registry.names(),
            queue_depth,
            uptime: self.inner.started.elapsed(),
        }
    }

    /// Health snapshot rendered as JSON (the `/health` endpoint body).
    pub fn health_json(&self) -> String {
        let h = self.health();
        let models = h
            .models
            .iter()
            .map(|m| json_str(m))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"status\": \"{}\",\n  \"models\": [{}],\n  \"queue_depth\": {},\n  \"uptime_ms\": {}\n}}",
            h.status,
            models,
            h.queue_depth,
            h.uptime.as_millis()
        )
    }

    /// Stats snapshot rendered as JSON (the `/stats` endpoint body),
    /// including the last window's stage trace.
    pub fn stats_json(&self) -> String {
        let (stats, trace) = {
            let state = self.inner.state.lock().unwrap();
            (state.stats.clone(), state.last_stage_trace.clone())
        };
        let trace_json = trace
            .iter()
            .map(|t| {
                format!(
                    "{{\"node\": {}, \"kind\": {}, \"samples\": {}, \"batched\": {}}}",
                    json_str(&t.node),
                    json_str(t.kind),
                    t.samples,
                    t.batched
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\n",
                "  \"submitted\": {},\n  \"rejected\": {},\n  \"completed\": {},\n  \"failed\": {},\n",
                "  \"windows\": {},\n  \"size_full_windows\": {},\n  \"deadline_windows\": {},\n",
                "  \"drained_windows\": {},\n  \"rows_dispatched\": {},\n  \"max_window_rows\": {},\n",
                "  \"instructions_executed\": {},\n  \"batched_kernel_ops\": {},\n",
                "  \"bit_kernel_ops\": {},\n  \"tensor_bytes_copied\": {},\n  \"shard_merge_ops\": {},\n",
                "  \"partitioned_windows\": {},\n  \"feedback_accepted\": {},\n",
                "  \"feedback_rejected\": {},\n  \"online_updates\": {},\n  \"swaps_published\": {},\n",
                "  \"kernel_backend\": \"{}\",\n  \"last_stage_trace\": [{}]\n}}"
            ),
            stats.submitted,
            stats.rejected,
            stats.completed,
            stats.failed,
            stats.windows,
            stats.size_full_windows,
            stats.deadline_windows,
            stats.drained_windows,
            stats.rows_dispatched,
            stats.max_window_rows,
            stats.instructions_executed,
            stats.batched_kernel_ops,
            stats.bit_kernel_ops,
            stats.tensor_bytes_copied,
            stats.shard_merge_ops,
            stats.partitioned_windows,
            stats.feedback_accepted,
            stats.feedback_rejected,
            stats.online_updates,
            stats.swaps_published,
            stats.kernel_backend,
            trace_json
        )
    }

    /// Begin shutdown: stop accepting submissions and wake the dispatcher,
    /// which drains pending windows (every accepted request is still
    /// answered) and exits. Idempotent; called by `Drop`.
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// The dispatcher loop: wait for ready windows (or deadlines), execute
/// them, scatter results.
fn dispatch_loop(inner: &Arc<Inner>) {
    loop {
        let batches = {
            let mut state = inner.state.lock().unwrap();
            loop {
                // Deadline check against the (injectable) clock.
                let now = inner.clock.now();
                let mut expired = Vec::new();
                for coalescer in state.coalescers.values_mut() {
                    if let Some(batch) = coalescer.poll(now) {
                        expired.push(batch);
                    }
                }
                state.stats.deadline_windows += expired.len() as u64;
                state.ready.append(&mut expired);

                if !state.ready.is_empty() {
                    break std::mem::take(&mut state.ready);
                }
                if inner.stopping.load(Ordering::SeqCst) {
                    // Drain partial windows so no accepted request is
                    // stranded, then exit.
                    let mut drained = Vec::new();
                    for coalescer in state.coalescers.values_mut() {
                        if let Some(batch) = coalescer.drain() {
                            drained.push(batch);
                        }
                    }
                    if drained.is_empty() {
                        return;
                    }
                    state.stats.drained_windows += drained.len() as u64;
                    break drained;
                }
                // Sleep until the earliest open-window deadline (or a
                // submission wakes us).
                let next = state
                    .coalescers
                    .values()
                    .filter_map(Coalescer::next_deadline)
                    .min();
                match next {
                    Some(deadline) => {
                        let wait = deadline.saturating_duration_since(inner.clock.now());
                        if wait.is_zero() {
                            continue;
                        }
                        let (guard, _) = inner.wake.wait_timeout(state, wait).unwrap();
                        state = guard;
                    }
                    None => {
                        state = inner.wake.wait(state).unwrap();
                    }
                }
            }
        };
        for batch in batches {
            execute_window(inner, batch);
        }
    }
}

/// Execute one flushed window: partition by resolved model (a mid-flight
/// swap may leave two model generations in one window), run each
/// sub-batch, scatter per-row results.
fn execute_window(inner: &Arc<Inner>, batch: Vec<PendingRequest>) {
    // Partition preserving submission order within each group.
    let mut groups: Vec<(Arc<ServableModel>, Vec<PendingRequest>)> = Vec::new();
    for request in batch {
        match groups
            .iter_mut()
            .find(|(model, _)| Arc::ptr_eq(model, &request.model))
        {
            Some((_, members)) => members.push(request),
            None => groups.push((Arc::clone(&request.model), vec![request])),
        }
    }
    if groups.len() > 1 {
        inner.state.lock().unwrap().stats.partitioned_windows += 1;
    }
    for (model, mut members) in groups {
        let rows: Vec<Vec<f64>> = members
            .iter_mut()
            .map(|r| std::mem::take(&mut r.row))
            .collect();
        let outcome = model.infer_window(&rows, inner.config.batched, inner.config.class_shards);
        let mut state = inner.state.lock().unwrap();
        state.stats.windows += 1;
        state.stats.rows_dispatched += members.len() as u64;
        state.stats.max_window_rows = state.stats.max_window_rows.max(members.len() as u64);
        match outcome {
            Ok(window) => {
                state.stats.completed += members.len() as u64;
                state.stats.instructions_executed += window.stats.instructions_executed as u64;
                state.stats.batched_kernel_ops += window.stats.batched_kernel_ops as u64;
                state.stats.bit_kernel_ops += window.stats.bit_kernel_ops as u64;
                state.stats.tensor_bytes_copied += window.stats.tensor_bytes_copied as u64;
                state.stats.shard_merge_ops += window.stats.shard_merge_ops as u64;
                state.stats.kernel_backend = window.stats.kernel_backend;
                state.last_stage_trace = window.stage_trace;
                drop(state);
                for (request, prediction) in members.into_iter().zip(window.predictions) {
                    let _ = request.reply.send(Ok(prediction));
                }
            }
            Err(err) => {
                state.stats.failed += members.len() as u64;
                drop(state);
                for request in members {
                    let _ = request.reply.send(Err(err.clone()));
                }
            }
        }
    }
}

/// Handle to a running HTTP façade; dropping it stops the listener.
#[derive(Debug)]
pub struct HttpHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// Serve `GET /health` and `GET /stats` over HTTP on `addr` (e.g.
/// `"127.0.0.1:0"` for an ephemeral port). Returns the bound address and a
/// handle that stops the listener when dropped.
///
/// This is the observability façade only — inference submission stays
/// in-process ([`Service::submit`]); a wire protocol for queries is out of
/// scope for this crate.
///
/// # Errors
///
/// Propagates the listener bind failure.
pub fn serve_http(
    service: Arc<Service>,
    addr: &str,
) -> std::io::Result<(std::net::SocketAddr, HttpHandle)> {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("hdc-serve-http".to_string())
        .spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut conn, _)) => {
                        let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
                        let mut buf = [0_u8; 1024];
                        let n = conn.read(&mut buf).unwrap_or(0);
                        let request = String::from_utf8_lossy(&buf[..n]);
                        let path = request.split_whitespace().nth(1).unwrap_or("/");
                        let (status, body) = match path {
                            "/health" => ("200 OK", service.health_json()),
                            "/stats" => ("200 OK", service.stats_json()),
                            _ => ("404 Not Found", "{\"error\": \"not found\"}".to_string()),
                        };
                        let response = format!(
                            "HTTP/1.0 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        );
                        let _ = conn.write_all(response.as_bytes());
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok((
        local,
        HttpHandle {
            stop,
            thread: Some(thread),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_apps::ClassificationApp;
    use hdc_datasets::synthetic::{isolet_like, IsoletParams};

    fn small_service(window: WindowConfig) -> (Arc<Service>, Vec<Vec<f64>>) {
        let dataset = isolet_like(&IsoletParams {
            classes: 3,
            features: 16,
            train_per_class: 4,
            test_per_class: 2,
            noise: 1.0,
            seed: 5,
        });
        let rows: Vec<Vec<f64>> = (0..dataset.test.len())
            .map(|i| dataset.test.features.row(i).unwrap().to_vec())
            .collect();
        let app = ClassificationApp::new(dataset, 128, 1).unwrap();
        let model = Arc::new(ServableModel::classifier("cls", &app).unwrap());
        let registry = Arc::new(ModelRegistry::new());
        registry.register("cls", model);
        let service = Service::start(
            registry,
            ServiceConfig {
                window,
                ..ServiceConfig::default()
            },
        );
        (service, rows)
    }

    #[test]
    fn reply_sent_before_wait_is_delivered() {
        let (reply, answer) = mpsc::channel();
        reply.send(Ok(Prediction::Label(3))).unwrap();
        drop(reply);
        assert_eq!(ResponseFuture { answer }.wait(), Ok(Prediction::Label(3)));
    }

    #[test]
    fn reply_crosses_threads() {
        let (reply, answer) = mpsc::channel();
        let (about_to_wait, waiting) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            about_to_wait.send(()).unwrap();
            ResponseFuture { answer }.wait()
        });
        waiting.recv().unwrap();
        reply.send(Err(ServeError::EmptyQuery)).unwrap();
        assert_eq!(waiter.join().unwrap(), Err(ServeError::EmptyQuery));
    }

    #[test]
    fn dropped_sender_resolves_the_waiter_with_shutting_down() {
        let (reply, answer) = mpsc::channel::<Result<Prediction>>();
        let waiter = std::thread::spawn(move || ResponseFuture { answer }.wait());
        drop(reply);
        assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn submit_and_complete_roundtrip() {
        let (service, rows) = small_service(WindowConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
        });
        let futures: Vec<_> = rows
            .iter()
            .map(|r| service.submit("cls", r.clone()))
            .collect();
        for f in futures {
            assert!(matches!(f.wait(), Ok(Prediction::Label(_))));
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, rows.len() as u64);
        assert_eq!(stats.completed, rows.len() as u64);
        assert_eq!(stats.failed, 0);
        assert!(stats.windows >= 1);
        assert!(!service.last_stage_trace().is_empty());
    }

    #[test]
    fn unknown_model_is_typed_error() {
        let (service, rows) = small_service(WindowConfig::default());
        let err = service.submit("nope", rows[0].clone()).wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownModel("nope".to_string()));
        // Answered at submission: it never entered a window.
        let stats = service.stats();
        assert_eq!((stats.rejected, stats.submitted, stats.windows), (1, 0, 0));
    }

    #[test]
    fn http_endpoints_answer() {
        use std::io::{Read, Write};
        let (service, rows) = small_service(WindowConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(1),
        });
        service.submit("cls", rows[0].clone()).wait().unwrap();
        let (addr, _handle) = serve_http(Arc::clone(&service), "127.0.0.1:0").unwrap();
        for (path, needle) in [
            ("/health", "\"status\": \"ok\""),
            ("/stats", "\"submitted\": 1"),
        ] {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.0 200"), "{response}");
            assert!(response.contains(needle), "{path}: {response}");
        }
    }

    #[test]
    fn shutdown_drains_partial_windows() {
        let (service, rows) = small_service(WindowConfig {
            max_batch: 64,
            max_delay: Duration::from_secs(3600),
        });
        // These can only complete if shutdown drains the open window.
        let futures: Vec<_> = rows
            .iter()
            .take(3)
            .map(|r| service.submit("cls", r.clone()))
            .collect();
        service.shutdown();
        for f in futures {
            assert!(f.wait().is_ok());
        }
        assert!(service.stats().drained_windows >= 1);
        assert_eq!(service.health().status, "stopping");
    }
}
