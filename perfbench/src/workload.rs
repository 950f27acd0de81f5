//! The benchmark's workloads: which fleet each one builds, and the
//! seeded inputs (arrival schedules, closed-loop call sequences) that
//! drive it. `--seed` is the only source of randomness here; the
//! program under test receives nothing but the generated requests.

use horse_faas::{Cluster, DispatchPolicy, FaasError, FunctionId, StartStrategy};
use horse_reliability::ReliabilityConfig;
use horse_sim::rng::{splitmix64, SeedFactory};
use horse_traces::SynthConfig;
use horse_vmm::SandboxConfig;
use horse_workloads::Category;

/// The workloads `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson arrivals through `Cluster::submit_batch` with the
    /// reliability plane on.
    UllOpen,
    /// Closed loop over 64 HORSE functions × 4 paused per host.
    DenseFleet,
    /// Closed loop over 36-vCPU sandboxes, 8 HORSE per Warm invoke.
    WideMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::UllOpen, Workload::DenseFleet, Workload::WideMixed];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UllOpen => "ull_open",
            Workload::DenseFleet => "dense_fleet",
            Workload::WideMixed => "wide_mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop workloads submit on a schedule through the reliability
    /// plane; closed-loop ones call `invoke_batch` back to back.
    pub fn is_open(self) -> bool {
        self == Workload::UllOpen
    }

    /// The fleet this workload runs on.
    pub fn fleet(self) -> Fleet {
        let f = |name: String, category, vcpus, strategy, per_host| FnSpec {
            name,
            category,
            vcpus,
            strategy,
            per_host,
        };
        let cat = |i: usize| {
            if i.is_multiple_of(2) {
                Category::Cat2
            } else {
                Category::Cat3
            }
        };
        let functions = match self {
            Workload::UllOpen => (0..4)
                .map(|i| f(format!("ull{i}"), cat(i), 2, StartStrategy::Horse, 2))
                .collect(),
            Workload::DenseFleet => (0..64)
                .map(|i| f(format!("dense{i}"), cat(i), 2, StartStrategy::Horse, 4))
                .collect(),
            Workload::WideMixed => (0..4)
                .map(|i| {
                    let strategy = if i < 2 {
                        StartStrategy::Horse
                    } else {
                        StartStrategy::Warm
                    };
                    f(format!("wide{i}"), cat(i), 36, strategy, 2)
                })
                .collect(),
        };
        Fleet {
            hosts: HOSTS,
            functions,
            reliability: self.is_open(),
        }
    }
}

/// Hosts in every fleet.
pub const HOSTS: usize = 3;
/// Nominal offered rate of the open-loop workload, 1/s.
pub const NOMINAL_RATE: f64 = 100_000.0;
/// The goodput ladder's fixed offered rates, 1/s.
pub const LADDER: [f64; 6] = [
    100_000.0, 150_000.0, 200_000.0, 250_000.0, 300_000.0, 350_000.0,
];
/// The latency limit goodput is judged against: 2.5× the paper's Cat1
/// execution ceiling of 20 µs.
pub const LAT_LIMIT_NS: u64 = 50_000;
/// Admission slots of the reliability plane (its default).
pub const MAX_INFLIGHT: usize = 32;
/// Deadline budget of every open-loop request (virtual ns): the paper's
/// Cat1 ceiling, far above any Cat2/Cat3 service time.
pub const DEADLINE_NS: u64 = 20_000;
/// HORSE invokes per Warm invoke on `wide_mixed`.
pub const WIDE_HORSE_PER_WARM: usize = 8;

/// One registered function.
#[derive(Debug, Clone)]
pub struct FnSpec {
    pub name: String,
    pub category: Category,
    pub vcpus: u32,
    pub strategy: StartStrategy,
    /// Paused sandboxes provisioned per host.
    pub per_host: usize,
}

impl FnSpec {
    pub fn sandbox(&self) -> SandboxConfig {
        SandboxConfig::builder()
            .vcpus(self.vcpus)
            .ull(true)
            .build()
            .expect("benchmark sandbox configs are valid")
    }
}

/// A workload's fleet: hosts, functions and whether the reliability
/// plane is installed.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub hosts: usize,
    pub functions: Vec<FnSpec>,
    pub reliability: bool,
}

impl Fleet {
    /// Builds the cluster, registers every function and provisions every
    /// pool — the work `setup_s` times.
    pub fn build(&self, seed: u64) -> Result<(Cluster, Vec<FunctionId>), FaasError> {
        let mut cluster = Cluster::new(self.hosts, DispatchPolicy::RoundRobin, seed);
        if self.reliability {
            cluster.set_reliability(ReliabilityConfig::with_seed(seed));
        }
        let ids: Vec<FunctionId> = self
            .functions
            .iter()
            .map(|f| cluster.register(&f.name, f.category, f.sandbox()))
            .collect();
        for (spec, &id) in self.functions.iter().zip(&ids) {
            cluster.provision_all(id, spec.per_host, spec.strategy)?;
        }
        Ok((cluster, ids))
    }

    /// Sandboxes provisioned per host, summed over functions.
    pub fn provisioned_per_host(&self) -> usize {
        self.functions.iter().map(|f| f.per_host).sum()
    }
}

/// A counter-based splitmix64 stream: draw `i` is a pure function of
/// `(seed, i)`.
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    index: u64,
}

impl Rng {
    /// The stream for `label` under the benchmark seed.
    pub fn new(seed: u64, label: &str) -> Self {
        Self {
            seed: SeedFactory::new(seed).stream_seed(label),
            index: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.index += 1;
        splitmix64(self.seed ^ splitmix64(self.index))
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// One scheduled open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, ns after the phase starts.
    pub due_ns: u64,
    /// Index into the fleet's functions.
    pub function: usize,
}

/// Poisson arrivals at `rate` per second over `duration_ns`, each for a
/// uniformly drawn function, generated as they are pulled so a schedule
/// takes no memory. A schedule's prefix depends only on the stream, so two
/// phases drawn from the same stream agree on every request both contain.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    duration_ns: u64,
    functions: usize,
    t: f64,
}

impl Arrivals {
    pub fn new(rng: Rng, rate: f64, duration_ns: u64, functions: usize) -> Self {
        assert!(rate > 0.0 && functions > 0);
        Self {
            rng,
            mean_gap_ns: 1e9 / rate,
            duration_ns,
            functions,
            t: 0.0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.t >= self.duration_ns as f64 {
            return None;
        }
        self.t += -self.rng.unit().ln() * self.mean_gap_ns;
        if self.t >= self.duration_ns as f64 {
            return None;
        }
        Some(Arrival {
            due_ns: self.t as u64,
            function: self.rng.below(self.functions),
        })
    }
}

/// One closed-loop call: `count` invokes of one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub function: usize,
    pub count: usize,
}

/// The endless seeded call sequence of a closed-loop workload.
#[derive(Debug, Clone)]
pub struct CallStream {
    rng: Rng,
    kind: CallKind,
    step: u64,
}

#[derive(Debug, Clone)]
enum CallKind {
    /// Function drawn from cumulative popularity weights; one request
    /// per host per call.
    Popular(Vec<f64>),
    /// A HORSE call of `WIDE_HORSE_PER_WARM` then a Warm call of one.
    Mixed { horse: Vec<usize>, warm: Vec<usize> },
}

impl CallStream {
    pub fn new(workload: Workload, fleet: &Fleet, seed: u64) -> Self {
        let kind = match workload {
            Workload::WideMixed => {
                let by = |s| {
                    (0..fleet.functions.len())
                        .filter(|&i| fleet.functions[i].strategy == s)
                        .collect()
                };
                CallKind::Mixed {
                    horse: by(StartStrategy::Horse),
                    warm: by(StartStrategy::Warm),
                }
            }
            _ => CallKind::Popular(cumulative(&popularity(seed, fleet.functions.len()))),
        };
        Self {
            rng: Rng::new(seed, "closed-loop-calls"),
            kind,
            step: 0,
        }
    }
}

impl Iterator for CallStream {
    type Item = Call;

    fn next(&mut self) -> Option<Call> {
        self.step += 1;
        Some(match &self.kind {
            CallKind::Popular(cdf) => {
                let u = self.rng.unit() * cdf[cdf.len() - 1];
                let function = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                Call {
                    function,
                    count: HOSTS,
                }
            }
            CallKind::Mixed { horse, warm } => {
                if self.step % 2 == 1 {
                    Call {
                        function: horse[self.rng.below(horse.len())],
                        count: WIDE_HORSE_PER_WARM,
                    }
                } else {
                    Call {
                        function: warm[self.rng.below(warm.len())],
                        count: 1,
                    }
                }
            }
        })
    }
}

/// Heavy-tailed per-function weights: the total invocations of the
/// first `n` functions of a seeded Azure-shaped synthetic trace (plus
/// one, so no function is never called).
pub fn popularity(seed: u64, n: usize) -> Vec<f64> {
    let cfg = SynthConfig {
        minutes: 60,
        ..SynthConfig::default()
    };
    let trace = cfg.generate(&SeedFactory::new(seed));
    assert!(trace.functions().len() >= n, "synthetic trace too small");
    trace.functions()[..n]
        .iter()
        .map(|f| f.total_invocations() as f64 + 1.0)
        .collect()
}

fn cumulative(weights: &[f64]) -> Vec<f64> {
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn schedule(seed: u64, duration_ns: u64) -> Vec<Arrival> {
        Arrivals::new(Rng::new(seed, "s"), NOMINAL_RATE, duration_ns, 4).collect()
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = schedule(7, SEC / 10);
        let b = schedule(7, SEC / 10);
        assert_eq!(a, b);
        let calls = |seed| {
            let w = Workload::DenseFleet;
            CallStream::new(w, &w.fleet(), seed)
                .take(1000)
                .collect::<Vec<_>>()
        };
        assert_eq!(calls(7), calls(7));
    }

    #[test]
    fn different_seeds_differ() {
        let a = schedule(7, SEC / 10);
        let b = schedule(8, SEC / 10);
        assert_ne!(a, b);
        let w = Workload::DenseFleet;
        let a: Vec<_> = CallStream::new(w, &w.fleet(), 7).take(1000).collect();
        let b: Vec<_> = CallStream::new(w, &w.fleet(), 8).take(1000).collect();
        assert_ne!(a, b);
        assert_ne!(popularity(7, 64), popularity(8, 64));
    }

    #[test]
    fn a_longer_schedule_extends_a_shorter_one() {
        let short = schedule(3, SEC / 20);
        let long = schedule(3, SEC / 10);
        assert_eq!(short[..], long[..short.len()]);
    }

    /// Over one second at 100k/s the count is Poisson(100 000), whose
    /// standard deviation is 316: a 1 % tolerance is about 3 σ.
    #[test]
    fn poisson_mean_rate_is_within_one_percent() {
        for seed in 0..5 {
            let s = schedule(seed, SEC);
            let rate = s.len() as f64;
            assert!(
                (rate / NOMINAL_RATE - 1.0).abs() < 0.01,
                "seed {seed}: {rate}/s"
            );
            assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(s.iter().all(|a| a.function < 4));
        }
    }

    #[test]
    fn wide_mixed_calls_keep_the_horse_to_warm_ratio() {
        let w = Workload::WideMixed;
        let fleet = w.fleet();
        let (mut horse, mut warm) = (0, 0);
        for call in CallStream::new(w, &fleet, 1).take(1000) {
            match fleet.functions[call.function].strategy {
                StartStrategy::Horse => horse += call.count,
                _ => warm += call.count,
            }
        }
        assert_eq!(horse, WIDE_HORSE_PER_WARM * warm);
    }
}
