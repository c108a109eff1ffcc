//! The simulated-SCC phase of `allvsall-ck34`, the paper's experiment:
//! `run_all_vs_all` over the 24 `PAPER_SLAVE_COUNTS` on the cache the
//! in-process phase has just filled. It is host time in `noc`, `rcce`
//! and `rckskel` with no kernel work. Every point must return all 561
//! outcomes equal to the in-process ones, and simulated makespan, message,
//! byte and probe counts equal to those the run's first sweep recorded.

use crate::sys::CpuTimes;
use crate::trace::Tracer;
use crate::Layers;
use rckalign::experiments::PAPER_SLAVE_COUNTS;
use rckalign::{run_all_vs_all, PairCache, PairOutcome, RckAlignOptions};
use std::time::Instant;

/// Checked outputs of one sweep over `n_pairs` pairs: every point's
/// outcomes, plus one drift check per point.
pub fn checks_per_sweep(n_pairs: u64) -> u64 {
    PAPER_SLAVE_COUNTS.len() as u64 * (n_pairs + 1)
}

/// What one simulated point reports.
#[derive(Debug, Clone)]
pub struct Point {
    slaves: usize,
    makespan_bits: u64,
    msgs: u64,
    bytes: u64,
    probes: u64,
    slave_util: f64,
    host_s: f64,
    pub outcomes: Vec<PairOutcome>,
}

/// One sweep over `cache`; with a tracer, one span per point under
/// `parent`. Outputs are checked by the caller, outside the timed part.
pub fn sweep(cache: &PairCache, tracer: Option<(&Tracer, u64)>) -> Vec<Point> {
    let mut points = Vec::with_capacity(PAPER_SLAVE_COUNTS.len());
    for &n in &PAPER_SLAVE_COUNTS {
        let start = Instant::now();
        let run = run_all_vs_all(cache, &RckAlignOptions::paper(n));
        let host_s = start.elapsed().as_secs_f64();
        if let Some((t, parent)) = tracer {
            let end = t.now();
            t.span(parent, "sweep.point", n as u64, end - host_s, end);
        }
        let report = &run.report;
        points.push(Point {
            slaves: n,
            makespan_bits: run.makespan_secs.to_bits(),
            msgs: report.total_messages(),
            bytes: report.total_bytes(),
            probes: report.per_core.iter().map(|c| c.probes).sum(),
            slave_util: report.mean_utilization(1..=n),
            host_s,
            outcomes: run.outcomes,
        });
    }
    points
}

/// Outcomes of every point that differ from `oracle`, plus points whose
/// simulated figures differ from the recorded ones.
pub fn failures(oracle: &[PairOutcome], recorded: &[Point], got: &[Point]) -> u64 {
    let sim = |p: &Point| (p.slaves, p.makespan_bits, p.msgs, p.bytes, p.probes);
    let wrong: u64 = got
        .iter()
        .map(|p| crate::allvsall::mismatches(oracle, &p.outcomes))
        .sum();
    let drifted = recorded
        .iter()
        .zip(got)
        .filter(|(a, b)| sim(a) != sim(b))
        .count() as u64;
    wrong + drifted + recorded.len().abs_diff(got.len()) as u64
}

/// The simulator's per-layer figures: `recorded` is the run's first
/// sweep, `traced` the traced pass's, which spent `cpu` of process CPU.
pub fn report(recorded: &[Point], traced: &[Point], cpu: CpuTimes, layers: &mut Layers) {
    let table = rckalign_bench::paper::TABLE2_RCKALIGN;
    let error: f64 = recorded
        .iter()
        .zip(table)
        .map(|(p, published)| (f64::from_bits(p.makespan_bits) - published).abs() / published)
        .sum::<f64>()
        / table.len() as f64;
    layers.insert("sim_error_pct", error * 100.0);
    let msgs: u64 = traced.iter().map(|p| p.msgs).sum();
    let last = &traced[traced.len() - 1];
    layers.insert("noc.host_s.point1", traced[0].host_s);
    layers.insert("noc.host_s.point47", last.host_s);
    layers.insert("noc.sim_msgs", msgs as f64);
    layers.insert("noc.sim_bytes", traced.iter().map(|p| p.bytes as f64).sum());
    layers.insert(
        "noc.sim_probes",
        traced.iter().map(|p| p.probes as f64).sum(),
    );
    let host: f64 = traced.iter().map(|p| p.host_s).sum();
    layers.insert("noc.host_us_per_msg", host * 1e6 / msgs as f64);
    layers.insert(
        "noc.sys_cpu_frac",
        cpu.sys / cpu.total().max(f64::MIN_POSITIVE),
    );
    layers.insert("rckskel.slave_util_47", last.slave_util);
}
