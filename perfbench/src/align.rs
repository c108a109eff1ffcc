//! `align-fast-rs119`: a seeded sample of RS119 pairs, stratified by
//! family relation and length, through `tm_align_with(TmAlignParams::fast())`
//! — the banded f32 DP and the pruning prefilters — on [`LANES`] threads.
//! Every pass is checked against the scalar f64 oracle on the same sample,
//! computed once outside set-up and outside the timed passes, by what the
//! program promises for this configuration (DESIGN §13.4–13.5, the golden
//! harness's pruned gate): hit/no-hit at TM 0.5 as the oracle has it, and
//! related folds (oracle TM ≥ 0.45) within 0.02. Every score must also be
//! the TM-score its own alignment and superposition achieve. Unrelated
//! folds whose score leaves the 0.12 loose tier are reported, not failed:
//! there both engines settle on arbitrary refinement fixpoints, in either
//! direction, and the golden harness holds only the unpruned kernel to it.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{measure, timed_passes, Args, Layers, Outcome, Setup, LANES};
use crate::{SETUP_BETWEEN_S, SETUP_FIRST_S};
use rck_pdb::datasets;
use rck_pdb::model::CaChain;
use rck_tmalign::stages::stage_counters;
use rck_tmalign::tmscore::d0;
use rck_tmalign::{tm_align_with, TmAlignParams, TmAlignResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pairs per pass: one drawn by the workload seed from each of this many
/// equal-size strata of the RS119 pairs ordered by (same family, `La·Lb`)
/// — the two properties the kernel's cost follows — so that every seed
/// aligns the same mix.
const SAMPLE: usize = 1000;
/// An oracle score at or above this is a hit that must not be lost.
const HIT: f64 = 0.5;
/// DESIGN §13.4: strict tier for related folds, loose tier below.
const RELATED: f64 = 0.45;
const EPS_RELATED: f64 = 0.02;
const EPS_UNRELATED: f64 = 0.12;
/// A reported score and the rescored alignment may differ by f64
/// rounding only.
const RESCORE_EPS: f64 = 1e-9;

struct Input {
    chains: Vec<CaChain>,
    pairs: Vec<(usize, usize)>,
}

fn input(seed: u64) -> Input {
    let chains = datasets::rs119_profile().generate(rckalign_bench::DATASET_SEED);
    let family = |k: usize| chains[k].name.split('_').next().unwrap_or_default();
    let mut all: Vec<(usize, usize)> = Vec::new();
    for i in 0..chains.len() {
        for j in (i + 1)..chains.len() {
            all.push((i, j));
        }
    }
    all.sort_by_key(|&(i, j)| {
        (
            family(i) == family(j),
            chains[i].len() * chains[j].len(),
            i,
            j,
        )
    });
    let mut rng = Rng::new(seed);
    let pairs = (0..SAMPLE)
        .map(|k| {
            let lo = k * all.len() / SAMPLE;
            let hi = (k + 1) * all.len() / SAMPLE;
            all[lo + rng.below(hi - lo)]
        })
        .collect();
    Input { chains, pairs }
}

/// One aligned pair: its result and kernel wall.
struct Row {
    res: TmAlignResult,
    secs: f64,
}

impl Row {
    fn tm(&self) -> f64 {
        self.res.tm_max_norm()
    }
}

/// Every sampled pair under `params`, computed over
/// [`LANES`] threads; with a tracer, one span per pair under `parent`.
fn align_all(input: &Input, params: &TmAlignParams, tracer: Option<(&Tracer, u64)>) -> Vec<Row> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Row>>> = Mutex::new((0..input.pairs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..LANES {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(i, j)) = input.pairs.get(k) else {
                    break;
                };
                let start = Instant::now();
                let r = tm_align_with(&input.chains[i], &input.chains[j], params);
                let secs = start.elapsed().as_secs_f64();
                if let Some((t, parent)) = tracer {
                    let end = t.now();
                    t.span(parent, "pair", k as u64, end - secs, end);
                }
                out.lock().expect("results poisoned")[k] = Some(Row { res: r, secs });
            });
        }
    });
    out.into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every pair aligned"))
        .collect()
}

/// Whether `r` reports the TM-score its own alignment and superposition
/// achieve: a monotone alignment inside both chains, and a shorter-chain
/// score equal to the one recomputed in f64 from the transform.
fn self_consistent(a: &CaChain, b: &CaChain, r: &TmAlignResult) -> bool {
    let al = &r.alignment;
    let monotone = al.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1)
        && al.iter().all(|&(i, j)| i < a.len() && j < b.len());
    let short = a.len().min(b.len());
    let d0sq = d0(short).powi(2);
    let rescored = if al.len() < 3 {
        0.0
    } else {
        let score = |&(i, j): &(usize, usize)| {
            1.0 / (1.0 + r.transform.apply(a.coords[i]).dist_sq(b.coords[j]) / d0sq)
        };
        al.iter().map(score).sum::<f64>() / short as f64
    };
    monotone && r.aligned_len == al.len() && (rescored - r.tm_max_norm()).abs() <= RESCORE_EPS
}

/// Sample positions whose fast result breaks the configuration's
/// promise, each with the reason.
fn violations(input: &Input, oracle: &[Row], fast: &[Row]) -> Vec<(usize, &'static str)> {
    (0..oracle.len())
        .filter_map(|k| {
            let (o, f) = (oracle[k].tm(), fast[k].tm());
            let (i, j) = input.pairs[k];
            let why = if !self_consistent(&input.chains[i], &input.chains[j], &fast[k].res) {
                "score is not what its alignment achieves"
            } else if (o >= HIT) != (f >= HIT) {
                "hit/no-hit differs from the oracle"
            } else if o >= RELATED && (o - f).abs() >= EPS_RELATED {
                "related fold outside the 0.02 tier"
            } else {
                return None;
            };
            Some((k, why))
        })
        .collect()
}

/// Sample positions of unrelated folds whose fast score leaves the 0.12
/// loose tier: reported, not failed.
fn loose_divergences(oracle: &[Row], fast: &[Row]) -> Vec<usize> {
    (0..oracle.len())
        .filter(|&k| {
            let (o, f) = (oracle[k].tm(), fast[k].tm());
            o < RELATED && (o - f).abs() >= EPS_UNRELATED
        })
        .collect()
}

/// Fast-path stage counters: (fast DP rounds, widenings, fallbacks,
/// alignments, pruned pairs, demotions).
fn counters() -> [u64; 6] {
    let s = stage_counters();
    [
        s.fastpath_dp_rounds.get(),
        s.fastpath_band_widenings.get(),
        s.fastpath_fallbacks.get(),
        s.alignments.get(),
        s.pruned_pairs.get(),
        s.pruned_demotions.get(),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut setup = Setup::default();
    let input = setup.window(SETUP_FIRST_S, || input(args.seed));
    let oracle = align_all(&input, &TmAlignParams::default(), None);
    let fast = TmAlignParams::fast();
    let n = input.pairs.len() as u64;
    let mut passes = timed_passes(
        args.seconds,
        |p| {
            let (got, wall, cpu) = measure(|| align_all(&input, &fast, None));
            let bad = violations(&input, &oracle, &got);
            let name = |k: usize| {
                let (i, j) = input.pairs[k];
                format!(
                    "{} vs {}: oracle TM {:.4}, fast TM {:.4}",
                    input.chains[i].name,
                    input.chains[j].name,
                    oracle[k].tm(),
                    got[k].tm()
                )
            };
            if p.walls.is_empty() {
                for &(k, why) in &bad {
                    eprintln!("perfbench: {}: {why}", name(k));
                }
                for k in loose_divergences(&oracle, &got) {
                    eprintln!(
                        "perfbench: {}: beyond the 0.12 loose tier (reported, not failed)",
                        name(k)
                    );
                }
            }
            p.push(wall, cpu, n, bad.len() as u64);
        },
        || {
            setup.window(SETUP_BETWEEN_S, || self::input(args.seed));
        },
    );
    let mut layers = Layers::new();
    if args.trace {
        let wall = stats::median(&passes.walls);
        layers.insert("align_pairs_per_s", n as f64 / wall);
        let tracer = Tracer::new();
        let before = counters();
        let start = Instant::now();
        let got = tracer.time(0, "pass", 0, |id| {
            align_all(&input, &fast, Some((&tracer, id)))
        });
        let traced_wall = start.elapsed().as_secs_f64();
        passes.attempted += n;
        passes.failed += violations(&input, &oracle, &got).len() as u64;
        layers.insert("fail_frac", passes.fail_frac());
        let d: Vec<f64> = counters()
            .iter()
            .zip(before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        layers.insert("bench.trace_overhead_frac", traced_wall / wall - 1.0);
        layers.insert("tmalign.fast.widenings_per_round", d[1] / d[0].max(1.0));
        layers.insert("tmalign.fast.fallbacks_per_round", d[2] / d[0].max(1.0));
        layers.insert("tmalign.fast.pruned_frac", d[4] / d[3].max(1.0));
        layers.insert("tmalign.fast.demoted_frac", d[5] / d[3].max(1.0));
        layers.insert(
            "tmalign.fast.loose_tier_pairs",
            loose_divergences(&oracle, &got).len() as f64,
        );
        let pair_ms: Vec<f64> = got.iter().map(|r| r.secs * 1e3).collect();
        let total_s: f64 = got.iter().map(|r| r.secs).sum();
        let ops: f64 = got.iter().map(|r| r.res.ops as f64).sum();
        let cells: f64 = input
            .pairs
            .iter()
            .map(|&(i, j)| (input.chains[i].len() * input.chains[j].len()) as f64)
            .sum();
        layers.insert("tmalign.pair_ms.p50", stats::median(&pair_ms));
        layers.insert("tmalign.pair_ms.tail", stats::tail(&pair_ms).unwrap_or(0.0));
        layers.insert("tmalign.pairs", pair_ms.len() as f64);
        layers.insert("tmalign.ns_per_cell", total_s * 1e9 / cells);
        layers.insert("tmalign.ops_per_pair", ops / n as f64);
        layers.insert("tmalign.ns_per_op", total_s * 1e9 / ops);
        crate::write_trace(args, &tracer);
    }
    Outcome {
        setup_s: setup.median(),
        passes,
        layers,
    }
}
