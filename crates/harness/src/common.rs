//! Shared experiment machinery: scaled workload construction, timing
//! aggregation, and row output.
//!
//! Every experiment emits CSV rows on stdout:
//!
//! ```text
//! # <free-text header>
//! experiment,series,x,mean_ms,ci95_ms,n
//! fig8a,ECF-all,20,132.4,11.2,5
//! ```
//!
//! `--scale` shrinks the hosting networks and sweep ranges proportionally
//! so the full suite runs in minutes on a laptop; the shapes (who wins,
//! linearity, crossovers) are scale-invariant, which is what the paper's
//! qualitative claims rest on.

use netembed::lns::{self, LnsConfig};
use netembed::sink::CountOnly;
use netembed::{ecf, parallel, rwb};
use netembed::{
    Algorithm, Deadline, EmbedResult, EmbedScratch, Engine, FilterMatrix, NodeOrder, Options,
    Problem, ProblemError, SearchMode, SearchStats, StealPolicy,
};
use netgraph::Network;
use std::io::{ErrorKind, Write};
use std::time::{Duration, Instant};
use topogen::{BriteParams, PlanetlabParams};

/// `println!` for the harness's CSV output, written through
/// [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::common::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
pub(crate) use outln;

/// Write to stdout. When the reader has gone away (`harness all | head`)
/// the rest of the output is unwanted, so the harness exits 0 quietly;
/// any other write error exits 2.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("cannot write output: {e}");
            std::process::exit(2);
        }
    }
}

/// Global experiment configuration from the CLI.
#[derive(Debug, Clone)]
pub struct Config {
    /// Size multiplier for hosts and sweeps (1.0 = paper scale).
    pub scale: f64,
    /// Per-query timeout.
    pub timeout: Duration,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions per data point (paper: 5 queries per (N,E)).
    pub reps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 0.5,
            timeout: Duration::from_secs(10),
            seed: 42,
            reps: 5,
        }
    }
}

impl Config {
    /// Scale an integer dimension, with a floor.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(floor)
    }

    /// The PlanetLab-like host at this scale.
    pub fn planetlab(&self) -> Network {
        let sites = self.scaled(296, 24);
        topogen::planetlab_like(
            &PlanetlabParams {
                sites,
                ..PlanetlabParams::default()
            },
            &mut topogen::rng(self.seed),
        )
    }

    /// A BRITE-like host of (scaled) `full_n` nodes.
    pub fn brite(&self, full_n: usize) -> Network {
        let n = self.scaled(full_n, 50);
        topogen::brite_like(
            &BriteParams::paper_default(n),
            &mut topogen::rng(self.seed ^ 0xB17E),
        )
    }
}

/// One measured sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Elapsed time in milliseconds.
    pub ms: f64,
    /// Whether the run timed out.
    pub timed_out: bool,
    /// Solutions found.
    pub solutions: u64,
}

/// Mean and 95% confidence half-interval of the samples' times.
pub fn mean_ci(samples: &[Sample]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.ms).sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s.ms - mean).powi(2)).sum::<f64>() / (n - 1.0);
    // Normal approximation; fine for reporting shape.
    let ci = 1.96 * (var / n).sqrt();
    (mean, ci)
}

/// Print the standard CSV header.
pub fn print_header(title: &str) {
    outln!("# {title}");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,timeouts,solutions_mean");
}

/// Emit one aggregated row.
pub fn emit(exp: &str, series: &str, x: impl std::fmt::Display, samples: &[Sample]) {
    let (mean, ci) = mean_ci(samples);
    let timeouts = samples.iter().filter(|s| s.timed_out).count();
    let sols = if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|s| s.solutions as f64).sum::<f64>() / samples.len() as f64
    };
    outln!(
        "{exp},{series},{x},{mean:.2},{ci:.2},{n},{timeouts},{sols:.1}",
        n = samples.len()
    );
}

/// Run one (algorithm, mode) combination and sample it.
///
/// All-matches runs go through a counting sink so enumerating millions of
/// embeddings (under-constrained queries, §VII-D) measures search time
/// without materializing the solution set.
pub fn run_once(
    host: &Network,
    query: &Network,
    constraint: &str,
    algorithm: Algorithm,
    mode: SearchMode,
    timeout: Duration,
    seed: u64,
) -> Sample {
    if mode == SearchMode::All {
        let scratch = &mut EmbedScratch::new();
        return run_counting(host, query, constraint, algorithm, timeout, seed, scratch);
    }
    let engine = Engine::new(host);
    let options = Options {
        algorithm,
        mode,
        timeout: Some(timeout),
        seed,
        ..Options::default()
    };
    match engine.embed(query, constraint, &options) {
        Ok(EmbedResult { stats, .. }) => Sample {
            ms: stats.elapsed.as_secs_f64() * 1e3,
            timed_out: stats.timed_out,
            solutions: stats.solutions,
        },
        Err(e) => {
            eprintln!("# error: {e}");
            Sample {
                ms: f64::NAN,
                timed_out: false,
                solutions: 0,
            }
        }
    }
}

/// All-matches run that streams solutions through a counting sink
/// (parallel ECF collects its solutions and counts them). `Sample.ms`
/// covers the filter build plus the search; parallel ECF runs on
/// `scratch.parallel`'s worker pool.
pub fn run_counting(
    host: &Network,
    query: &Network,
    constraint: &str,
    algorithm: Algorithm,
    timeout: Duration,
    seed: u64,
    scratch: &mut EmbedScratch,
) -> Sample {
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let mut deadline = Deadline::new(Some(timeout));
    let counted = Problem::new(query, host, constraint)
        .and_then(|p| count(&p, algorithm, seed, &mut deadline, &mut stats, scratch));
    match counted {
        Ok(solutions) => Sample {
            ms: start.elapsed().as_secs_f64() * 1e3,
            timed_out: stats.timed_out,
            solutions,
        },
        Err(e) => {
            eprintln!("# error: {e}");
            Sample {
                ms: f64::NAN,
                timed_out: false,
                solutions: 0,
            }
        }
    }
}

/// Count the embeddings of one all-matches run, building the filter
/// first for the filter-based algorithms.
fn count(
    problem: &Problem<'_>,
    algorithm: Algorithm,
    seed: u64,
    deadline: &mut Deadline,
    stats: &mut SearchStats,
    scratch: &mut EmbedScratch,
) -> Result<u64, ProblemError> {
    let order = NodeOrder::default();
    let mut sink = CountOnly::default();
    let search = &mut scratch.search;
    match algorithm {
        Algorithm::Ecf => {
            let filter = FilterMatrix::build(problem, deadline, stats)?;
            ecf::search(problem, &filter, order, deadline, &mut sink, stats, search);
        }
        Algorithm::Rwb => {
            let filter = FilterMatrix::build(problem, deadline, stats)?;
            rwb::search(
                problem, &filter, seed, order, deadline, &mut sink, stats, search,
            );
        }
        Algorithm::Lns => {
            let config = LnsConfig::default();
            lns::search(problem, &config, deadline, &mut sink, stats, search)?;
        }
        Algorithm::ParallelEcf { threads } => {
            let par = &mut scratch.parallel;
            let filter = FilterMatrix::build_par_pooled(
                problem,
                None,
                threads,
                deadline,
                stats,
                par.pool_mut(),
            )?;
            let policy = StealPolicy::default();
            let (solutions, _) = parallel::search(
                problem, &filter, threads, None, order, deadline, stats, par, policy,
            );
            return Ok(solutions.len() as u64);
        }
    }
    Ok(sink.count)
}

/// The (algorithm, label) series used by the comparison figures.
pub fn algo_series() -> Vec<(Algorithm, &'static str)> {
    vec![
        (Algorithm::Ecf, "ECF"),
        (Algorithm::Rwb, "RWB"),
        (Algorithm::Lns, "LNS"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_counting_runs_on_the_worker_pool() {
        // K6 hosts 6·5·4 = 120 oriented triangles.
        let host = topogen::regular::clique(6);
        let query = topogen::regular::ring(3);
        let timeout = Duration::from_secs(30);
        let count = |algorithm, scratch: &mut EmbedScratch| {
            run_counting(&host, &query, "true", algorithm, timeout, 0, scratch)
        };
        let ecf = count(Algorithm::Ecf, &mut EmbedScratch::new());
        let mut scratch = EmbedScratch::new();
        let par = count(Algorithm::ParallelEcf { threads: 2 }, &mut scratch);
        assert_eq!(ecf.solutions, 120);
        assert_eq!(par.solutions, ecf.solutions);
        assert!(!par.timed_out);
        assert!(
            scratch.parallel.pool().spawned_total() > 0,
            "parallel ECF never reached the worker pool"
        );
    }
}
