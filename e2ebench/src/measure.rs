//! Shared measurement helpers: a constant-memory latency histogram whose
//! percentiles say how many samples support them, the calibrator that
//! scales times to a reference machine speed, closed and open loops that
//! cut the window into slices, the span recorder, the peak-RSS reader and
//! the result-line writer.

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Smallest latency the histogram resolves, in ms (10 ns).
const HIST_MIN_MS: f64 = 1e-5;
/// Each bucket is this much wider than the one below it: 0.5% relative
/// resolution, refined further by interpolating within the bucket.
const HIST_GROWTH: f64 = 1.005;
/// Enough buckets to reach past 10⁶ ms.
const HIST_BUCKETS: usize = 5120;

/// A latency histogram with logarithmic buckets. Memory stays constant
/// however many samples a run records, so `peak_rss_mb` does not grow
/// with the request rate.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    min: f64,
    max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }
}

impl Hist {
    fn bucket(ms: f64) -> usize {
        let b = ((ms / HIST_MIN_MS).ln() / HIST_GROWTH.ln()).floor();
        (b.max(0.0) as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one latency in ms.
    pub fn add(&mut self, ms: f64) {
        self.counts[Self::bucket(ms)] += 1;
        self.n += 1;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile (`0 < p ≤ 1`), interpolated inside its
    /// bucket and clamped to the observed range.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "percentile of an empty histogram");
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let frac = ((rank - below) as f64 - 0.5) / c as f64;
                let v = HIST_MIN_MS * HIST_GROWTH.powf(b as f64 + frac);
                return v.clamp(self.min, self.max);
            }
            below += c;
        }
        self.max
    }

    /// The highest of p99.9, p99, p90 and p50 that has at least ten
    /// samples beyond it; `None` below twenty samples.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.n;
        [0.999, 0.99, 0.9, 0.5].into_iter().find_map(|p| {
            let rank = (p * n as f64).ceil() as u64;
            (rank > 0 && n >= rank + 10).then(|| Tail {
                percentile: p,
                value: self.percentile(p),
                samples: n,
            })
        })
    }
}

/// The highest percentile a sample supports, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// As a fraction, e.g. `0.99`.
    pub percentile: f64,
    pub value: f64,
    pub samples: u64,
}

/// Median of a non-empty list (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Timed windows are cut into slices about this long, and each slice is
/// scaled by the machine's speed measured within it.
pub const SLICE: Duration = Duration::from_secs(1);
/// Time of one [`reference_kernel`] run on the reference box (two vCPUs
/// of a shared Xeon host), in µs: about its median over the runs that
/// set `baseline.json`. It fixes the scale of every scaled time.
pub const REFERENCE_KERNEL_US: f64 = 36.0;
/// Elements the reference kernel sorts.
const KERNEL_LEN: usize = 2000;
/// The calibrator samples at most this often, about 1.5% of the time.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(5);

/// A fixed piece of work that shares no code with the program: fill a
/// fresh buffer from a xorshift generator and sort it. Allocation,
/// branchy comparisons and L1-resident data are what the service's own
/// work is made of, so the kernel slows down and speeds up with it when
/// the shared host's load moves.
fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut v: Vec<u64> = (0..KERNEL_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    v[KERNEL_LEN / 2]
}

/// Measures how fast the machine runs, by timing [`reference_kernel`]
/// on the thread that does the service's work, between its requests.
///
/// The box the benchmark runs on is a few vCPUs of a shared host, whose
/// speed moves by tens of percent, in steps hundreds of milliseconds
/// apart and in drifts that last minutes, as its neighbours' load comes
/// and goes. Every end-to-end time is divided by the *slowdown* measured
/// alongside it (the kernel's median time over [`REFERENCE_KERNEL_US`]),
/// which reports it at the reference speed and keeps that drift out of
/// the comparison between two commits. Samples are spread through the
/// window, [`CALIBRATE_EVERY`] apart, because a short burst catches only
/// the speed of its own moment. The raw numbers go to standard error and
/// the result file.
#[derive(Debug)]
pub struct Calibrator {
    samples: Vec<Sample>,
    last: Instant,
}

/// One calibration sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When its untimed warm-up run started, and when its timed run ended.
    start: Instant,
    end: Instant,
    /// The timed run, in µs.
    us: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            samples: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Calibrator {
    /// Run the kernel once untimed, to warm the caches the request before
    /// it left cold, then once timed: the timed run then does not depend on
    /// how much memory the service's requests touch.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(reference_kernel(std::hint::black_box(0x5EED)));
        let timed = Instant::now();
        std::hint::black_box(reference_kernel(std::hint::black_box(0x5EED)));
        let end = Instant::now();
        self.last = end;
        self.samples.push(Sample {
            start,
            end,
            us: us(end - timed),
        });
    }

    /// Sample if [`CALIBRATE_EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIBRATE_EVERY {
            self.sample();
        }
    }

    fn between(&self, from: Instant, to: Instant) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| (from..=to).contains(&s.end))
    }

    /// The slowdown against the reference speed over the samples that
    /// ended between `from` and `to`, or over every sample when none did
    /// (one taken now if there are none at all).
    pub fn slowdown(&mut self, from: Instant, to: Instant) -> f64 {
        let mut runs: Vec<f64> = self.between(from, to).map(|s| s.us).collect();
        if runs.is_empty() {
            if self.samples.is_empty() {
                self.sample();
            }
            runs = self.samples.iter().map(|s| s.us).collect();
        }
        median(&runs) / REFERENCE_KERNEL_US
    }

    /// Time the calibrator took between `from` and `to`.
    pub fn spent(&self, from: Instant, to: Instant) -> Duration {
        self.between(from, to).map(|s| s.end - s.start).sum()
    }

    /// The quartiles of every slowdown measured so far, for the notes.
    pub fn spread(&self) -> String {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.us / REFERENCE_KERNEL_US)
            .collect();
        if v.is_empty() {
            return "no calibration samples".into();
        }
        v.sort_by(f64::total_cmp);
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        format!(
            "slowdown q1 {:.3} median {:.3} q3 {:.3} over {} samples",
            q(0.25),
            q(0.5),
            q(0.75),
            v.len()
        )
    }
}

/// What one slice of a timed window saw.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Latencies as measured.
    pub latency: Hist,
    /// The same latencies at the reference speed: divided by `slowdown`.
    pub scaled: Hist,
    pub attempted: u64,
    pub answered: u64,
    /// Seconds the slice took, less the calibrator's runs.
    pub seconds: f64,
    /// The machine's slowdown during the slice.
    pub slowdown: f64,
}

impl Slice {
    /// A slice of `(latency ms, answered)` records.
    pub fn new(records: &[(f64, bool)], seconds: f64, slowdown: f64) -> Self {
        let mut s = Slice {
            latency: Hist::default(),
            scaled: Hist::default(),
            attempted: records.len() as u64,
            answered: 0,
            seconds,
            slowdown,
        };
        for &(latency, answered) in records {
            s.latency.add(latency);
            s.scaled.add(latency / slowdown);
            s.answered += u64::from(answered);
        }
        s
    }

    /// Every slice's latencies, as measured, in one histogram.
    pub fn merged(slices: &[Slice]) -> Hist {
        slices.iter().fold(Hist::default(), |mut h, s| {
            h.merge(&s.latency);
            h
        })
    }
}

/// `from..to` cut into equal slices of about [`SLICE`].
pub fn slices(from: Instant, to: Instant) -> Vec<(Instant, Instant)> {
    let n = ((to - from).as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let at = |k: u32| from + (to - from) * k / n;
    (0..n).map(|k| (at(k), at(k + 1))).collect()
}

/// Closed loop: cut `window` into slices of about [`SLICE`] and run `op`
/// back to back through each, recording what `op` returns: the request's
/// latency in ms and whether it was answered. `op` gets a running
/// request index. The calibrator runs between requests.
pub fn closed_loop(
    window: Duration,
    cal: &mut Calibrator,
    mut op: impl FnMut(u64) -> (f64, bool),
) -> Vec<Slice> {
    let n = ((window.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(1);
    let mut i = 0;
    let mut records = Vec::new();
    (0..n)
        .map(|_| {
            records.clear();
            let start = Instant::now();
            while start.elapsed() < window / n {
                records.push(op(i));
                i += 1;
                cal.tick();
            }
            let end = Instant::now();
            let seconds = (end - start).saturating_sub(cal.spent(start, end));
            Slice::new(&records, seconds.as_secs_f64(), cal.slowdown(start, end))
        })
        .collect()
}

/// Sleep until `t`: coarse sleep, then a short spin for the last stretch
/// so send times do not inherit the scheduler's wake-up granularity.
fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop on one thread: `send(i, due)` runs on a fixed schedule at
/// `rate_hz` for `window` and returns the requests it made, which queue
/// here; between sends `serve` takes them one at a time, oldest first.
/// A send that falls due while `serve` runs goes out as soon as it
/// returns: callers time their requests from `due`, so that wait counts
/// as queueing, as it would had another thread sent on time. With
/// nothing to serve the loop sleeps until the next send, sampling the
/// calibrator every [`CALIBRATE_EVERY`]; it also samples after each
/// request served. After the window it serves what is left. Returns how
/// late each send went out.
///
/// One thread keeps hand-offs between threads off the measured path: on
/// a box of two shared vCPUs, waking a second thread added up to several
/// milliseconds to a request whenever the host was busy.
pub fn open_loop<T, R: IntoIterator<Item = T>>(
    rate_hz: f64,
    window: Duration,
    cal: &mut Calibrator,
    mut send: impl FnMut(u64, Instant) -> R,
    mut serve: impl FnMut(T),
) -> Vec<Duration> {
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let count = (window.as_secs_f64() * rate_hz).floor() as u64;
    let start = Instant::now();
    let mut lateness = Vec::with_capacity(count as usize);
    let mut queue = std::collections::VecDeque::new();
    for i in 0..count {
        let due = start + period.mul_f64(i as f64);
        while Instant::now() < due {
            match queue.pop_front() {
                Some(request) => serve(request),
                None => sleep_until(due.min(Instant::now() + CALIBRATE_EVERY)),
            }
            cal.tick();
        }
        lateness.push(due.elapsed());
        queue.extend(send(i, due));
    }
    for request in queue {
        serve(request);
        cal.tick();
    }
    lateness
}

/// A seeded deck over `0..n`: every index once per pass, each pass in a
/// fresh shuffled order. Serving keys from a deck keeps a run's mix of
/// keys exact, so run-to-run differences come from the keys and the
/// system, not from sampling.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
    rng: rand::rngs::StdRng,
}

impl Deck {
    pub fn new(n: usize, rng: rand::rngs::StdRng) -> Self {
        assert!(n > 0, "a deck needs cards");
        Deck {
            order: (0..n).collect(),
            next: n,
            rng,
        }
    }

    pub fn draw(&mut self) -> usize {
        use rand::seq::SliceRandom;
        if self.next == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// One recorded span. Spans of one request share `request`; `parent`
/// indexes the span that caused this one. `on_path` marks a replayed
/// layer that the real call also executed, so the parent's self time
/// deducts it.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub on_path: bool,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanRecorder {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        on_path: bool,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            on_path,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent`.
    pub fn time<R>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: usize,
        on_path: bool,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(request, name, Some(parent), on_path, start, Instant::now());
        (out, id)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The span's duration minus the on-path children's durations: the
    /// time the real call spent in its own code rather than in a layer
    /// the trace replays.
    pub fn self_us(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.on_path)
            .map(Span::us)
            .sum();
        self.spans[id].us() - children
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}",
                json::object([
                    ("request", s.request.to_string()),
                    ("name", json::string(s.name)),
                    ("parent", parent),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("on_path", s.on_path.to_string()),
                ])
            )?;
        }
        out.flush()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    json::object(metrics.iter().map(|m| {
        (
            m.name.as_str(),
            json::object([
                ("value", json::number(m.value)),
                ("unit", json::string(m.unit)),
            ]),
        )
    }))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    json::object([
        ("correct", "true".to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_json(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = f64>) -> Hist {
        let mut h = Hist::default();
        values.into_iter().for_each(|v| h.add(v));
        h
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let h = hist((1..=1000).map(f64::from));
        let t = h.tail().unwrap();
        assert_eq!((t.percentile, t.samples), (0.99, 1000));
        assert!((t.value - 990.0).abs() < 990.0 * 0.005);
        assert_eq!(
            hist((1..=100).map(f64::from)).tail().unwrap().percentile,
            0.9
        );
        assert!(hist((1..=19).map(f64::from)).tail().is_none());
    }

    #[test]
    fn percentiles_are_within_half_a_percent() {
        let h = hist((1..=10_000).map(|i| f64::from(i) * 1e-3));
        for p in [0.01, 0.5, 0.9, 0.99] {
            let want = p * 10.0;
            let got = h.percentile(p);
            assert!((got - want).abs() <= want * 0.005, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.percentile(1.0), 10.0);
        assert_eq!(hist([3.0]).percentile(0.5), 3.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = hist([1.0, 2.0]);
        a.merge(&hist([3.0, 4.0]));
        assert_eq!(a.count(), 4);
        assert_eq!(a.percentile(1.0), 4.0);
        assert!((a.percentile(0.01) - 1.0).abs() <= 0.005);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slices_cover_the_span_in_about_a_second_each() {
        let t0 = Instant::now();
        let s = slices(t0, t0 + Duration::from_millis(3400));
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].0, s[2].1), (t0, t0 + Duration::from_millis(3400)));
        assert!(s.windows(2).all(|w| w[0].1 == w[1].0));
        assert_eq!(slices(t0, t0 + Duration::from_millis(10)).len(), 1);
    }

    #[test]
    fn slowdown_uses_the_window_or_falls_back_to_every_sample() {
        let mut cal = Calibrator::default();
        let before = Instant::now();
        cal.sample();
        let mid = Instant::now();
        cal.sample();
        cal.sample();
        let after = Instant::now();
        let us: Vec<f64> = cal.samples.iter().map(|s| s.us).collect();
        assert_eq!(cal.slowdown(before, mid), us[0] / REFERENCE_KERNEL_US);
        assert_eq!(
            cal.slowdown(mid, after),
            median(&us[1..]) / REFERENCE_KERNEL_US
        );
        assert_eq!(
            cal.slowdown(after, after),
            median(&us) / REFERENCE_KERNEL_US
        );
        assert!(cal.spent(before, after) >= Duration::from_secs_f64(us.iter().sum::<f64>() / 1e6));
    }

    #[test]
    fn deck_deals_every_card_once_per_pass() {
        let mut d = Deck::new(5, topogen::rng(1));
        for _ in 0..3 {
            let mut pass: Vec<usize> = (0..5).map(|_| d.draw()).collect();
            pass.sort_unstable();
            assert_eq!(pass, [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn self_time_deducts_only_on_path_children() {
        let mut rec = SpanRecorder::default();
        let t0 = Instant::now();
        let p = rec.record(
            1,
            "request",
            None,
            true,
            t0,
            t0 + Duration::from_micros(100),
        );
        rec.record(1, "a", Some(p), true, t0, t0 + Duration::from_micros(30));
        rec.record(1, "b", Some(p), false, t0, t0 + Duration::from_micros(50));
        assert!((rec.self_us(p) - 70.0).abs() < 1e-6);
    }
}
