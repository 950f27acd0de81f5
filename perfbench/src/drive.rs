//! The benchmark's drivers: an open-loop generator that submits Poisson
//! arrivals through the reliability plane, and a closed-loop one that
//! calls `Cluster::invoke_batch` back to back. Both record the same
//! per-pass tallies; a traced pass also records a `faas.cluster` span per call,
//! the allocations inside the calls, and the calls themselves for the
//! replays.

use crate::report::{ratio, robust_mean, Span, SpanLog, Windows, ROOT};
use crate::workload::{Arrival, Arrivals, CallStream, Fleet, Rng, DEADLINE_NS, MAX_INFLIGHT};
use horse_faas::{Cluster, Disposition, FunctionId, Request, StartStrategy};
use horse_reliability::RequestClass;
use horse_telemetry::alloc;
use std::collections::VecDeque;
use std::time::Instant;

/// Requests whose modeled `init_ns` the `virt_*` metrics cover: the
/// first this many after warm-up, so two passes of one seed compare the
/// same requests however long each ran.
pub const VIRT_PREFIX: usize = 20_000;
/// Untimed requests served before a pass measures anything (hedge
/// profiles arm, caches fill).
pub const WARMUP_REQUESTS: usize = 3_000;
/// Equal windows a pass's latency quantiles (and, closed loop, its
/// throughput) are taken over; the goodput ladder's rungs use fewer.
pub const WINDOWS: usize = 20;

/// The driver's own count of what became of its requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_missed: u64,
    pub failed: u64,
    pub hedged: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.shed += o.shed;
        self.deadline_missed += o.deadline_missed;
        self.failed += o.failed;
        self.hedged += o.hedged;
    }

    /// Requests that did not complete (they count as missing any
    /// latency limit).
    pub fn not_completed(&self) -> u64 {
        self.submitted - self.completed
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Tally of the measured window (warm-up excluded).
    pub tally: Tally,
    /// Tally of the warm-up.
    pub warmup: Tally,
    /// Per-request latency, ns: due → completion (open loop) or the
    /// wall time of the call that served it (closed loop).
    pub lat: Windows,
    /// Per-request lag of the submission behind its due time (open loop).
    pub lag: Windows,
    /// Most requests ever due but not yet submitted (open loop).
    pub backlog_max: usize,
    /// Lag of the schedule's last request (open loop).
    pub final_lag_ns: u64,
    /// Modeled `init_ns` of the first [`VIRT_PREFIX`] completions.
    pub virt_init: Vec<u64>,
    /// Wall ns spent inside cluster calls.
    pub busy_ns: u64,
    /// Wall ns of the measured window.
    pub wall_ns: u64,
    /// Allocations inside cluster calls (traced passes only).
    pub allocs: u64,
    /// Calls that returned an error or a record count other than the
    /// number of requests they carried.
    pub bad_calls: u64,
    /// The function index of every request of every call, in call order
    /// (traced passes only): what the replays re-serve.
    pub calls: Vec<Vec<usize>>,
    /// One `faas.cluster` span per call (traced passes only).
    pub spans: SpanLog,
    /// Completions per consecutive window of `window_ns`, by the start
    /// time of their call (closed loop).
    pub window_completions: Vec<u64>,
    pub window_ns: u64,
}

impl Pass {
    /// Completions per wall second: the robust mean over the windows
    /// when the pass kept them (see `report::Windows`).
    pub fn completions_per_s(&self) -> f64 {
        if self.window_completions.is_empty() {
            return ratio(self.tally.completed as f64 * 1e9, self.wall_ns as f64);
        }
        let rates: Vec<f64> = self
            .window_completions
            .iter()
            .map(|&n| n as f64 * 1e9 / self.window_ns as f64)
            .collect();
        robust_mean(&rates)
    }
}

/// Shared context of one pass.
pub struct Target<'a> {
    pub cluster: &'a Cluster,
    pub ids: &'a [FunctionId],
    pub fleet: &'a Fleet,
    /// Time origin of every span in the run.
    pub epoch: Instant,
    pub traced: bool,
}

impl Target<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn request(&self, function: usize) -> Request {
        ull_request(self.ids[function], self.fleet.functions[function].strategy)
    }

    /// One cluster call, timed; returns its wall ns. Traced, it also
    /// counts the calling thread's allocations inside the call and records
    /// its span.
    fn timed<R>(&self, pass: &mut Pass, first_request: u64, call: impl FnOnce() -> R) -> (R, u64) {
        let a0 = if self.traced {
            alloc::thread_totals().0
        } else {
            0
        };
        let t0 = self.now_ns();
        let r = call();
        let t1 = self.now_ns();
        if self.traced {
            pass.allocs += alloc::thread_totals().0 - a0;
            pass.spans.push(Span {
                name: "faas.cluster",
                start_ns: t0,
                end_ns: t1,
                parent: ROOT,
                request: first_request,
            });
        }
        pass.busy_ns += t1 - t0;
        (r, t1 - t0)
    }
}

/// A uLL-class request with the open-loop deadline budget.
pub fn ull_request(function: FunctionId, strategy: StartStrategy) -> Request {
    Request {
        function,
        strategy,
        class: RequestClass::Ull,
        deadline_ns: Some(DEADLINE_NS),
    }
}

/// Tallies one disposition; returns the completed record's init_ns.
fn tally(t: &mut Tally, d: &Disposition) -> Option<u64> {
    t.submitted += 1;
    match d {
        Disposition::Completed { record, hedged, .. } => {
            t.completed += 1;
            t.hedged += u64::from(*hedged);
            Some(record.init_ns)
        }
        Disposition::Shed { .. } => {
            t.shed += 1;
            None
        }
        Disposition::DeadlineExceeded { .. } => {
            t.deadline_missed += 1;
            None
        }
        Disposition::Failed { .. } => {
            t.failed += 1;
            None
        }
    }
}

/// Serves `warmup` function indices through `submit_batch` in batches of
/// [`MAX_INFLIGHT`], then the arrivals open-loop: at each poll everything
/// due (up to [`MAX_INFLIGHT`]) is submitted as one batch. Only the
/// requests due but not yet submitted are held. Latency runs from each
/// request's due time to the return of the batch that served it, and is
/// reduced over `windows` windows of `duration_ns`.
fn open_loop(
    target: &Target,
    warmup: &[usize],
    arrivals: Arrivals,
    duration_ns: u64,
    windows: usize,
) -> Pass {
    let mut pass = Pass::default();
    let mut batch: Vec<Request> = Vec::with_capacity(MAX_INFLIGHT);
    for chunk in warmup.chunks(MAX_INFLIGHT) {
        batch.clear();
        batch.extend(chunk.iter().map(|&f| target.request(f)));
        for d in target.cluster.submit_batch(&batch) {
            tally(&mut pass.warmup, &d);
        }
    }

    pass.lat = Windows::new(duration_ns, windows);
    pass.lag = Windows::new(duration_ns, windows);
    pass.virt_init.reserve(VIRT_PREFIX);
    let mut arrivals = arrivals.peekable();
    let mut due: VecDeque<Arrival> = VecDeque::with_capacity(MAX_INFLIGHT);
    let mut first_request = 0u64;
    let start = target.now_ns();
    loop {
        let now = target.now_ns() - start;
        while let Some(a) = arrivals.next_if(|a| a.due_ns <= now) {
            due.push_back(a);
        }
        if due.is_empty() {
            if arrivals.peek().is_none() {
                break;
            }
            std::hint::spin_loop();
            continue;
        }
        pass.backlog_max = pass.backlog_max.max(due.len());
        let n = due.len().min(MAX_INFLIGHT);
        batch.clear();
        batch.extend(due.iter().take(n).map(|a| target.request(a.function)));
        if target.traced {
            pass.calls
                .push(due.iter().take(n).map(|a| a.function).collect());
        }
        let submit = target.now_ns() - start;
        let (dispositions, _) = target.timed(&mut pass, first_request, || {
            target.cluster.submit_batch(&batch)
        });
        let done = target.now_ns() - start;
        for (a, d) in due.drain(..n).zip(&dispositions) {
            pass.lat.push(a.due_ns, done - a.due_ns);
            pass.lag.push(a.due_ns, submit.saturating_sub(a.due_ns));
            pass.final_lag_ns = submit.saturating_sub(a.due_ns);
            if let Some(init_ns) = tally(&mut pass.tally, d) {
                if pass.virt_init.len() < VIRT_PREFIX {
                    pass.virt_init.push(init_ns);
                }
            }
        }
        first_request += n as u64;
    }
    pass.wall_ns = target.now_ns() - start;
    pass.lat.flush();
    pass.lag.flush();
    pass
}

/// Serves the call stream back to back through `Cluster::invoke_batch`:
/// [`WARMUP_REQUESTS`] untimed, then for `duration_ns`. Every request of
/// a call gets the call's wall time as its latency.
pub fn closed_loop(target: &Target, calls: &mut CallStream, duration_ns: u64) -> Pass {
    let mut pass = Pass::default();
    let mut out = Vec::with_capacity(64);
    let mut serve =
        |pass: &mut Pass, measured: bool, next_request: u64, at_ns: u64| -> (usize, u64) {
            let call = calls.next().expect("call streams are endless");
            let spec = &target.fleet.functions[call.function];
            let id = target.ids[call.function];
            out.clear();
            let (result, ns) = if measured {
                target.timed(pass, next_request, || {
                    target
                        .cluster
                        .invoke_batch(id, spec.strategy, call.count, &mut out)
                })
            } else {
                let r = target
                    .cluster
                    .invoke_batch(id, spec.strategy, call.count, &mut out);
                (r, 0)
            };
            let t = if measured {
                &mut pass.tally
            } else {
                &mut pass.warmup
            };
            t.submitted += call.count as u64;
            // A record for another function or strategy is a wrong output:
            // it does not count as completed.
            let served = out
                .iter()
                .filter(|(_, r)| r.function == id && r.strategy == spec.strategy)
                .count();
            t.completed += served as u64;
            t.failed += call.count.saturating_sub(served) as u64;
            if result.is_err() || out.len() != call.count {
                pass.bad_calls += 1;
            }
            if measured {
                for (_, r) in &out {
                    pass.lat.push(at_ns, ns);
                    if pass.virt_init.len() < VIRT_PREFIX {
                        pass.virt_init.push(r.init_ns);
                    }
                }
                if target.traced {
                    pass.calls.push(vec![call.function; call.count]);
                }
            }
            (call.count, served as u64)
        };
    let mut warmed = 0;
    while warmed < WARMUP_REQUESTS {
        warmed += serve(&mut pass, false, 0, 0).0;
    }
    let window_ns = (duration_ns / WINDOWS as u64).max(1);
    pass.window_completions = vec![0; WINDOWS];
    pass.window_ns = window_ns;
    pass.lat = Windows::new(duration_ns, WINDOWS);
    let start = target.now_ns();
    let mut requests = 0u64;
    loop {
        let elapsed = target.now_ns() - start;
        if elapsed >= duration_ns {
            break;
        }
        let (count, served) = serve(&mut pass, true, requests, elapsed);
        requests += count as u64;
        let window = ((elapsed / window_ns) as usize).min(WINDOWS - 1);
        pass.window_completions[window] += served;
    }
    pass.wall_ns = target.now_ns() - start;
    pass.lat.flush();
    pass
}

/// One open-loop phase: Poisson arrivals at `rate` for `duration_ns`
/// (`label` names the phase's seed stream), after [`WARMUP_REQUESTS`]
/// warm-up requests when `warm`, the latency reduced over `windows`
/// windows.
pub fn open_phase(
    target: &Target,
    seed: u64,
    label: &str,
    rate: f64,
    duration_ns: u64,
    warm: bool,
    windows: usize,
) -> Pass {
    let n = target.fleet.functions.len();
    let arrivals = Arrivals::new(Rng::new(seed, label), rate, duration_ns, n);
    let warmup: Vec<usize> = if warm {
        let mut rng = Rng::new(seed, "warmup");
        (0..WARMUP_REQUESTS).map(|_| rng.below(n)).collect()
    } else {
        Vec::new()
    };
    open_loop(target, &warmup, arrivals, duration_ns, windows)
}
