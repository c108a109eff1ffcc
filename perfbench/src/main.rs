//! `perfbench` — the repository benchmark.
//!
//! One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from `--seed`, sets up several
//! times (the median is `setup_s`), then repeats its timed pass until
//! `--seconds` have elapsed, checking every output against an oracle
//! outside the timed part. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` one more pass runs with
//! frame-boundary tracing and the last line carries the per-layer
//! metrics instead. A header record (nproc, profile, kernel version,
//! commit, seed, workload) precedes it on stdout, and the traced run's
//! spans are written to `perfbench/traces/`.

mod align;
mod allvsall;
mod query;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated in windows of at least `SETUP_MIN_REPS` repetitions
/// and a given length, at most `SETUP_MAX_REPS`: one window of
/// `SETUP_FIRST_S` before the passes and, where a workload can repeat its
/// set-up between passes, one of `SETUP_BETWEEN_S` every `SETUP_EVERY_S`
/// of the run. `setup_s` is the median of every repetition. The windows
/// are spread over the run because the host's speed drifts over seconds:
/// the RS119 generation read 16–26 ms in successive 1 s windows.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1001;
pub const SETUP_FIRST_S: f64 = 2.0;
pub const SETUP_BETWEEN_S: f64 = 0.5;
const SETUP_EVERY_S: f64 = 3.0;

/// Compute lanes the benchmark drives: the size of the target box.
pub const LANES: usize = 2;

/// Per-layer metrics (name, unit), in the order `BENCHMARK.json` lists
/// them. A workload that does not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matrix_inproc_s", "s"),
    ("matrix_serve_s", "s"),
    ("matrix_shard_s", "s"),
    ("align_pairs_per_s", "1/s"),
    ("sweep_s", "s"),
    ("sim_error_pct", "%"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("query_samples", "count"),
    ("fail_frac", "ratio"),
    ("tmalign.pair_ms.p50", "ms"),
    ("tmalign.pair_ms.tail", "ms"),
    ("tmalign.pairs", "count"),
    ("tmalign.ns_per_cell", "ns"),
    ("tmalign.ops_per_pair", "count"),
    ("tmalign.ns_per_op", "ns"),
    ("tmalign.fast.widenings_per_round", "ratio"),
    ("tmalign.fast.fallbacks_per_round", "ratio"),
    ("tmalign.fast.pruned_frac", "ratio"),
    ("tmalign.fast.demoted_frac", "ratio"),
    ("tmalign.fast.loose_tier_pairs", "count"),
    ("core.prefill_efficiency", "ratio"),
    ("core.cache_hits", "count"),
    ("noc.host_s.point1", "s"),
    ("noc.host_s.point47", "s"),
    ("noc.sim_msgs", "count"),
    ("noc.sim_bytes", "B"),
    ("noc.sim_probes", "count"),
    ("noc.host_us_per_msg", "us"),
    ("noc.sys_cpu_frac", "ratio"),
    ("rckskel.slave_util_47", "ratio"),
    ("serve.batch_rtt_ms.p50", "ms"),
    ("serve.batch_rtt_ms.tail", "ms"),
    ("serve.batches", "count"),
    ("serve.worker_busy_ms.p50", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("serve.dispatch_gap_ms.p50", "ms"),
    ("serve.tail_idle_ms", "ms"),
    ("serve.teardown_ms", "ms"),
    ("serve.bytes_per_pair", "B"),
    ("serve.codec.encode_us_per_kib", "us"),
    ("serve.codec.decode_us_per_kib", "us"),
    ("serve.residual_frac", "ratio"),
    ("serve.overhead_frac", "ratio"),
    ("shard.tile_rtt_ms.p50", "ms"),
    ("shard.tiles_stolen", "count"),
    ("shard.tail_idle_ms", "ms"),
    ("shard.teardown_ms", "ms"),
    ("shard.overhead_frac", "ratio"),
    ("gate.submit_to_dispatch_ms.p50", "ms"),
    ("gate.worker_busy_ms.p50", "ms"),
    ("gate.result_to_done_ms.p50", "ms"),
    ("gate.batches_per_query", "ratio"),
    ("gate.bytes_per_query", "B"),
    ("gate.worker_busy_frac", "ratio"),
    ("bench.generator_late_ms.p50", "ms"),
    ("bench.generator_late_ms.tail", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.peak_rss_mb", "MB"),
];

/// The run's parameters, straight from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What the timed passes of one workload produced.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds of each untraced pass.
    pub walls: Vec<f64>,
    /// Process CPU seconds (user + system) of each untraced pass.
    pub cpus: Vec<f64>,
    /// Outputs checked and outputs found wrong, missing or refused.
    pub attempted: u64,
    pub failed: u64,
}

impl Passes {
    /// Record one checked pass.
    pub fn push(&mut self, wall: f64, cpu: f64, attempted: u64, failed: u64) {
        self.walls.push(wall);
        self.cpus.push(cpu);
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed over attempted outputs.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-layer values a traced run derived, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The result of one workload run.
pub struct Outcome {
    pub setup_s: f64,
    pub passes: Passes,
    /// Only filled on a traced run.
    pub layers: Layers,
}

/// Wall and process CPU seconds of one call.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_times();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, wall, sys::cpu_times().total() - cpu0.total())
}

/// Run `pass` repeatedly until `seconds` of wall have been spent in it
/// (at least once). Between two passes, once every `SETUP_EVERY_S`, call
/// `between`; its time does not count.
pub fn timed_passes(
    seconds: f64,
    mut pass: impl FnMut(&mut Passes),
    mut between: impl FnMut(),
) -> Passes {
    let mut passes = Passes::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut since_between = Duration::ZERO;
    while passes.walls.is_empty() || spent < budget {
        let start = Instant::now();
        pass(&mut passes);
        spent += start.elapsed();
        since_between += start.elapsed();
        if spent < budget && since_between.as_secs_f64() >= SETUP_EVERY_S {
            between();
            since_between = Duration::ZERO;
        }
    }
    eprintln!("perfbench: pass walls {:?}", passes.walls);
    passes
}

/// The set-up repetitions of one run.
#[derive(Debug, Default)]
pub struct Setup {
    walls: Vec<f64>,
}

impl Setup {
    /// Repeat `setup` for a window of at least `secs` and return the
    /// last result.
    pub fn window<T>(&mut self, secs: f64, mut setup: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut reps = 0;
        let mut last = None;
        while reps < SETUP_MIN_REPS
            || (reps < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < secs)
        {
            drop(last.take());
            let rep = Instant::now();
            last = Some(setup());
            self.walls.push(rep.elapsed().as_secs_f64());
            reps += 1;
        }
        last.expect("at least one set-up repetition")
    }

    /// `setup_s`: the median wall of every repetition.
    pub fn median(&self) -> f64 {
        stats::median(&self.walls)
    }
}

/// Write a traced run's spans and frame events next to the benchmark.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let file = format!("{}-seed{}.jsonl", args.workload, args.seed);
    match tracer.write(TRACE_DIR, &file, &sys::header(args)) {
        Ok(path) => eprintln!("perfbench: trace written to {path}"),
        Err(e) => eprintln!("perfbench: could not write trace: {e}"),
    }
}

/// Where traced runs leave their spans, relative to the checkout root.
const TRACE_DIR: &str = "perfbench/traces";

const USAGE: &str = "usage: perfbench --workload <allvsall-ck34|align-fast-rs119|query-short> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds: get("seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && s.is_finite())
            .ok_or("bad --seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
    };
    if flags.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let header = sys::header(&args);
    println!("{header}");
    let outcome = match args.workload.as_str() {
        "allvsall-ck34" => allvsall::run(&args),
        "align-fast-rs119" => align::run(&args),
        "query-short" => query::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = &outcome.passes;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "bench.peak_rss_mb" => sys::peak_rss_mb(),
                _ => outcome.layers.get(name).copied().unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
    } else {
        metrics.push(("setup_s", outcome.setup_s, "s"));
        metrics.push(("wall_s", stats::median(&p.walls), "s"));
        metrics.push(("cpu_s", stats::median(&p.cpus), "s"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                stats::json_num(*value)
            )
        })
        .collect();
    let correct = p.failed == 0 && p.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        p.attempted.max(1),
        p.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
