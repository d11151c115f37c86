//! End-to-end benchmark of the NETEMBED service.
//!
//! Seeded request streams go through the public service API
//! (`NetEmbedService::submit`, the `Planner`, `PreparedQuery` and the
//! `RegistryFeed`), every run checks its answers against an oracle off
//! the clock, and a `--trace 1` run replays each request's layers
//! through their public functions to give per-layer numbers. The
//! workloads, metric names, units, bounds and the layer table are
//! documented in `e2ebench/README.md`; the bounds themselves live in the
//! repository's `BENCHMARK.json`.

pub mod compare;
pub mod fattree;
pub mod json;
pub mod measure;
pub mod planetlab;
pub mod powerlaw;
pub mod trace;

use measure::{Hist, Metric, Tail};
use netembed::Outcome;
use std::path::PathBuf;
use std::time::Duration;

/// Planner shards are pinned here, never read from the environment.
/// With one shard, every workload does its service work on one thread,
/// the one that asks (or, in the open loop, waits): on two shared vCPUs
/// a hand-off to a second thread put the host's wake-up delays into the
/// latencies, which for minutes at a time doubled `planetlab-enum`'s p90
/// under `ParallelEcf { threads: 2 }`.
pub const PLANNER_SHARDS: usize = 1;

/// Each run sets the service up this many times and reports the median
/// as `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanetlabOpen,
    PlanetlabEnum,
    FattreeChurn,
    PowerlawHier,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlanetlabOpen,
        Workload::PlanetlabEnum,
        Workload::FattreeChurn,
        Workload::PowerlawHier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanetlabOpen => "planetlab-open",
            Workload::PlanetlabEnum => "planetlab-enum",
            Workload::FattreeChurn => "fattree-churn",
            Workload::PowerlawHier => "powerlaw-hier",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Seeds every request stream; the hosts are fixed (they stand in
    /// for a measured trace and a given datacenter).
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scaled-down hosts for the smoke test; same code path.
    pub quick: bool,
    /// Where to write the result file and the spans, if anywhere.
    pub out: Option<PathBuf>,
}

impl Config {
    /// Set-ups per run: the traced run needs only one.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// The window that reports end-to-end numbers; a traced run spends
    /// half its window here (for the counters and the overhead baseline)
    /// and half replaying layers.
    pub fn untraced_window(&self) -> Duration {
        if self.trace {
            self.window / 2
        } else {
            self.window
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    /// Requests that ended in an error other than an admission shed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Tail percentiles with their sample counts, for the result file.
    pub tails: Vec<(String, Tail)>,
    /// Human-readable lines for stderr and the result file.
    pub notes: Vec<String>,
    pub spans: Option<measure::SpanRecorder>,
}

/// How a response counts. "Answered" is at least one verified mapping,
/// or `Complete` with none (proven infeasible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Found,
    Infeasible,
    /// Timed out with nothing found.
    Unanswered,
}

impl Class {
    pub fn of(outcome: &Outcome) -> Class {
        match outcome {
            Outcome::Complete(m) if m.is_empty() => Class::Infeasible,
            Outcome::Inconclusive => Class::Unanswered,
            _ => Class::Found,
        }
    }

    pub fn answered(self) -> bool {
        self != Class::Unanswered
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end numbers every workload reports. Window times are
/// scaled to the reference speed (see [`measure::Calibrator`]), each
/// beside its measured value for the notes; set-up times are reported as
/// measured, because they run before the window and its samples.
pub struct EndToEnd {
    /// Set-up times; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// The window's latencies, as measured and scaled; `p50_ms` and
    /// `p90_ms` are percentiles of the scaled ones over the whole window.
    pub latency: Hist,
    pub scaled: Hist,
    /// Answered requests, and the same answers each weighted by the
    /// slowdown when it was given.
    pub answered: u64,
    pub scaled_answered: f64,
    /// Seconds the answers took; `throughput_rps` is `scaled_answered`
    /// per second.
    pub seconds: f64,
}

impl EndToEnd {
    /// Push the end-to-end metrics. Outside `quick` runs, a window too
    /// small for p90 (fewer than ten samples beyond it) is an error rather
    /// than a number.
    pub fn metrics(
        self,
        quick: bool,
        cal: &measure::Calibrator,
        out: &mut RunResult,
    ) -> Result<(), String> {
        let n = self.scaled.count();
        if n == 0 || (!quick && n < (0.9 * n as f64).ceil() as u64 + 10) {
            return Err(format!("a window of {n} samples does not support p90"));
        }
        let rss = measure::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let values = [
            measure::median(&self.setup_s),
            self.scaled.percentile(0.5),
            self.scaled.percentile(0.9),
            self.scaled_answered / self.seconds,
            rss,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            out.metrics.push(Metric::new(name, value, unit));
        }
        if let Some(t) = self.scaled.tail() {
            out.tails.push(("latency_ms".to_string(), t));
        }
        out.notes.push(format!(
            "as measured: setup runs {:?} s, p50 {:.4} ms, p90 {:.4} ms, {:.2} answered/s over {n} samples",
            self.setup_s,
            self.latency.percentile(0.5),
            self.latency.percentile(0.9),
            self.answered as f64 / self.seconds,
        ));
        out.notes.push(cal.spread());
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.4}", self.scaled.percentile(f64::from(d) / 10.0)))
            .collect();
        out.notes.push(format!(
            "scaled latency deciles (ms): {}",
            deciles.join(" ")
        ));
        Ok(())
    }

    /// The end-to-end numbers of a closed loop's slices.
    pub fn closed(setup_s: Vec<f64>, slices: &[measure::Slice]) -> Self {
        let mut e = EndToEnd {
            setup_s,
            latency: Hist::default(),
            scaled: Hist::default(),
            answered: 0,
            scaled_answered: 0.0,
            seconds: 0.0,
        };
        for s in slices {
            e.latency.merge(&s.latency);
            e.scaled.merge(&s.scaled);
            e.answered += s.answered;
            e.scaled_answered += s.answered as f64 * s.slowdown;
            e.seconds += s.seconds;
        }
        e
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    match cfg.workload {
        Workload::PlanetlabOpen => planetlab::run_open(cfg),
        Workload::PlanetlabEnum => planetlab::run_enum(cfg),
        Workload::FattreeChurn => fattree::run(cfg),
        Workload::PowerlawHier => powerlaw::run(cfg),
    }
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Set the service up `repeats` times on fresh state, keeping the last
/// result and every duration. `input` makes each setup's inputs (a
/// copy of the host, say) off the clock; only `setup` is timed.
pub fn repeated_setup<I, S>(
    repeats: usize,
    mut input: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> S,
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let i = input();
        let (s, t) = timed(|| setup(i));
        times.push(t);
        last = Some(s);
    }
    (last.expect("at least one setup"), times)
}
