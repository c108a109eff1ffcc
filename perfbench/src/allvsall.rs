//! `allvsall-ck34`: the full CK34 matrix (561 pairs, scalar kernel)
//! computed three times on the same cores — in process
//! (`PairCache::prefill`, one thread per lane), through a serve `Master`
//! with one single-lane worker per lane, and through a `ShardFrontend`
//! with one shard master of one worker per lane — all over `MemNet`
//! with shipped default configurations. Between the first and the second,
//! the simulated SCC replays the filled cache at every paper slave count
//! ([`crate::sweep`]). Serve and shard outcomes must be bit-identical to
//! the in-process outcomes.
//!
//! The sweep shares a pass with the three matrices, not a workload of
//! its own: its 48 simulated cores hand a token between host threads, so
//! when the host steals a core its wall time grows 1.5–2× while the
//! other phases move by under a tenth, and a pass of the sweep alone
//! spread past the 0.25 bound over ten runs.

use crate::stats::{self, Rng};
use crate::sweep::{self, Point};
use crate::sys::{cpu_times, CpuTimes};
use crate::trace::{self, batch_timings, kind, on, End, FrameEvent, Span, Tap, Tracer};
use crate::{measure, timed_passes, Args, Layers, Outcome, Setup, LANES};
use crate::{SETUP_BETWEEN_S, SETUP_FIRST_S};
use rck_pdb::datasets;
use rck_pdb::model::CaChain;
use rck_serve::{run_worker_conn, Master, MasterConfig, MemNet, WorkerConfig};
use rck_shard::{run_shard_master, ShardConfig, ShardFrontend, ShardMasterConfig};
use rck_tmalign::MethodKind;
use rckalign::{all_vs_all, PairCache, PairOutcome};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace networks: the serve master's, the shard frontend's, and one per
/// shard master's worker pool (`SHARD_POOL_NET + m`).
const SERVE_NET: u32 = 1;
const FRONTEND_NET: u32 = 2;
const SHARD_POOL_NET: u32 = 3;

/// CK34 as the paper reproduction generates it, with the chain order
/// shuffled by the workload seed.
pub fn ck34(seed: u64) -> Vec<CaChain> {
    let mut chains = datasets::ck34_profile().generate(rckalign_bench::DATASET_SEED);
    Rng::new(seed).shuffle(&mut chains);
    chains
}

/// A worker config with shipped defaults (one lane, 100 ms heartbeats).
pub fn worker_config(name: String) -> WorkerConfig {
    let mut cfg = WorkerConfig::connect_to(SocketAddr::from(([127, 0, 0, 1], 0)));
    cfg.name = name;
    cfg
}

/// One phase of a pass: wall until the program handed back the matrix,
/// and the matrix. The threads it started are joined after that.
struct Phase {
    wall: f64,
    outcomes: Vec<PairOutcome>,
    /// Trace-clock start and return (0 on untraced passes).
    start_at: f64,
    returned_at: f64,
}

/// The in-process phase, and the cache it filled.
fn inproc(chains: &[CaChain], tap: &Tap) -> (Phase, PairCache) {
    let chains = chains.to_vec();
    let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
    let start_at = tap.now();
    let start = Instant::now();
    let cache = PairCache::new(chains);
    cache.prefill(&jobs, LANES);
    let outcomes: Vec<PairOutcome> = jobs.iter().map(|j| cache.get_or_compute(j)).collect();
    let phase = Phase {
        wall: start.elapsed().as_secs_f64(),
        outcomes,
        returned_at: tap.now(),
        start_at,
    };
    (phase, cache)
}

/// The simulated-SCC phase of a pass.
struct Scc {
    wall: f64,
    points: Vec<Point>,
    /// Process CPU over the phase.
    cpu: CpuTimes,
    /// Pairs the cache had to compute during the sweep.
    recomputed: u64,
    start_at: f64,
    returned_at: f64,
}

fn scc(cache: &PairCache, tap: &Tap, parent: u64) -> Scc {
    let computed = cache.computed();
    let cpu0 = cpu_times();
    let start_at = tap.now();
    let start = Instant::now();
    let points = sweep::sweep(cache, tap.0.as_deref().map(|t| (t, parent)));
    let wall = start.elapsed().as_secs_f64();
    let returned_at = tap.now();
    let cpu1 = cpu_times();
    Scc {
        wall,
        points,
        cpu: CpuTimes {
            user: cpu1.user - cpu0.user,
            sys: cpu1.sys - cpu0.sys,
        },
        recomputed: (cache.computed() - computed) as u64,
        start_at,
        returned_at,
    }
}

fn serve(chains: &[CaChain], tap: &Tap) -> Phase {
    let chains = chains.to_vec();
    let net = MemNet::new();
    let start_at = tap.now();
    let start = Instant::now();
    let master = Master::bind_on(
        tap.listener(net.listener(), SERVE_NET),
        chains,
        MasterConfig::default(),
    );
    let master = std::thread::spawn(move || master.run());
    let workers: Vec<_> = (0..LANES)
        .map(|k| {
            let conn = tap.client(net.connect().expect("master listening"), SERVE_NET);
            std::thread::spawn(move || run_worker_conn(conn, &worker_config(format!("w{k}"))))
        })
        .collect();
    let run = master
        .join()
        .expect("master thread")
        .expect("serve run completes");
    let wall = start.elapsed().as_secs_f64();
    let returned_at = tap.now();
    for w in workers {
        w.join()
            .expect("worker thread")
            .expect("worker session ends cleanly");
    }
    Phase {
        wall,
        outcomes: run.outcomes,
        returned_at,
        start_at,
    }
}

fn shard(chains: &[CaChain], tap: &Tap, stolen: &mut u64) -> Phase {
    let chains = chains.to_vec();
    let net = MemNet::new();
    let start_at = tap.now();
    let start = Instant::now();
    let frontend = ShardFrontend::bind_on(
        tap.listener(net.listener(), FRONTEND_NET),
        chains,
        ShardConfig::default(),
    );
    let shard_stats = frontend.stats();
    let frontend = std::thread::spawn(move || frontend.run());
    let mut threads = Vec::new();
    for m in 0..LANES {
        let pool = MemNet::new();
        let pool_net = SHARD_POOL_NET + m as u32;
        let worker_conn = tap.client(pool.connect().expect("pool listening"), pool_net);
        threads.push(std::thread::spawn(move || {
            run_worker_conn(worker_conn, &worker_config(format!("m{m}w0"))).map(|_| ())
        }));
        let conn = tap.client(net.connect().expect("frontend listening"), FRONTEND_NET);
        let pool_listener = tap.listener(pool.listener(), pool_net);
        let cfg = ShardMasterConfig {
            name: format!("m{m}"),
            ..ShardMasterConfig::default()
        };
        threads.push(std::thread::spawn(move || {
            run_shard_master(conn, pool_listener, &cfg).map(|_| ())
        }));
    }
    let run = frontend
        .join()
        .expect("frontend thread")
        .expect("sharded run completes");
    let wall = start.elapsed().as_secs_f64();
    let returned_at = tap.now();
    for t in threads {
        t.join()
            .expect("farm thread")
            .expect("farm session ends cleanly");
    }
    *stolen = shard_stats.tiles_stolen();
    Phase {
        wall,
        outcomes: run.outcomes,
        returned_at,
        start_at,
    }
}

/// Pairs of `got` that are missing from, or not bit-identical to, `want`.
pub fn mismatches(want: &[PairOutcome], got: &[PairOutcome]) -> u64 {
    let key = |o: &PairOutcome| {
        (
            o.i,
            o.j,
            o.method.code(),
            o.similarity.to_bits(),
            o.rmsd.to_bits(),
            o.aligned_len,
            o.ops,
        )
    };
    let mut w: Vec<_> = want.iter().map(key).collect();
    let mut g: Vec<_> = got.iter().map(key).collect();
    w.sort_unstable();
    g.sort_unstable();
    let mut gi = g.iter().peekable();
    let mut matched = 0u64;
    for k in &w {
        while gi.peek().is_some_and(|x| *x < k) {
            gi.next();
        }
        if gi.peek() == Some(&k) {
            matched += 1;
            gi.next();
        }
    }
    // A wrong, missing, extra or duplicate outcome each count once.
    w.len().max(g.len()) as u64 - matched
}

struct PassOut {
    inproc: Phase,
    scc: Scc,
    serve: Phase,
    shard: Phase,
    stolen: u64,
}

/// One pass; a traced pass hangs its sweep points under `parent`.
fn pass(chains: &[CaChain], tap: &Tap, parent: u64) -> PassOut {
    let (inproc, cache) = inproc(chains, tap);
    let scc = scc(&cache, tap, parent);
    drop(cache);
    let serve = serve(chains, tap);
    let mut stolen = 0;
    let shard = shard(chains, tap, &mut stolen);
    PassOut {
        inproc,
        scc,
        serve,
        shard,
        stolen,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setup = Setup::default();
    let chains = setup.window(SETUP_FIRST_S, || ck34(args.seed));
    let n_pairs = rckalign::pair_count(chains.len()) as u64;
    let mut reference: Option<Vec<PairOutcome>> = None;
    let mut recorded: Option<Vec<Point>> = None;
    let mut walls = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let untraced = Tap(None);
    let per_pass = 3 * n_pairs + sweep::checks_per_sweep(n_pairs);
    let mut passes = timed_passes(
        args.seconds,
        |p| {
            let (out, wall, cpu) = measure(|| pass(&chains, &untraced, 0));
            let oracle = reference.get_or_insert_with(|| out.inproc.outcomes.clone());
            let first_sweep = recorded.get_or_insert_with(|| out.scc.points.clone());
            let failed = mismatches(oracle, &out.inproc.outcomes)
                + sweep::failures(oracle, first_sweep, &out.scc.points)
                + mismatches(oracle, &out.serve.outcomes)
                + mismatches(oracle, &out.shard.outcomes);
            for (k, phase_wall) in [
                out.inproc.wall,
                out.serve.wall,
                out.shard.wall,
                out.scc.wall,
            ]
            .into_iter()
            .enumerate()
            {
                walls[k].push(phase_wall);
            }
            p.push(wall, cpu, per_pass, failed);
        },
        || {
            setup.window(SETUP_BETWEEN_S, || ck34(args.seed));
        },
    );
    let mut layers = Layers::new();
    let inproc_s = stats::median(&walls[0]);
    let serve_s = stats::median(&walls[1]);
    let shard_s = stats::median(&walls[2]);
    if args.trace {
        layers.insert("matrix_inproc_s", inproc_s);
        layers.insert("matrix_serve_s", serve_s);
        layers.insert("matrix_shard_s", shard_s);
        layers.insert("sweep_s", stats::median(&walls[3]));
        layers.insert("serve.overhead_frac", serve_s / inproc_s - 1.0);
        layers.insert("shard.overhead_frac", shard_s / inproc_s - 1.0);
        let tracer = Tracer::new();
        let tap = Tap(Some(Arc::clone(&tracer)));
        let start = Instant::now();
        let out = tracer.time(0, "pass", 0, |id| {
            let out = pass(&chains, &tap, id);
            for (name, start_at, returned_at) in [
                ("phase.inproc", out.inproc.start_at, out.inproc.returned_at),
                ("phase.sweep", out.scc.start_at, out.scc.returned_at),
                ("phase.serve", out.serve.start_at, out.serve.returned_at),
                ("phase.shard", out.shard.start_at, out.shard.returned_at),
            ] {
                tracer.span(id, name, 0, start_at, returned_at);
            }
            out
        });
        let traced_wall = start.elapsed().as_secs_f64();
        layers.insert(
            "bench.trace_overhead_frac",
            traced_wall / stats::median(&passes.walls) - 1.0,
        );
        let oracle = reference.unwrap_or_default();
        let recorded = recorded.unwrap_or_default();
        passes.attempted += 2 * n_pairs + sweep::checks_per_sweep(n_pairs);
        passes.failed += mismatches(&oracle, &out.serve.outcomes)
            + mismatches(&oracle, &out.shard.outcomes)
            + sweep::failures(&oracle, &recorded, &out.scc.points);
        layers.insert("fail_frac", passes.fail_frac());
        sweep::report(&recorded, &out.scc.points, out.scc.cpu, &mut layers);
        serve_layers(&tracer, &out.serve, n_pairs, &mut layers);
        shard_layers(&tracer, &out.shard, out.stolen, &mut layers);
        let (enc, dec) = trace::codec_us_per_kib(&tracer);
        layers.insert("serve.codec.encode_us_per_kib", enc);
        layers.insert("serve.codec.decode_us_per_kib", dec);
        let pairs: Vec<(&CaChain, &CaChain)> = all_vs_all(chains.len(), MethodKind::TmAlign)
            .iter()
            .map(|j| (&chains[j.i as usize], &chains[j.j as usize]))
            .collect();
        let probe = kernel_probe_pairs(&tracer, &pairs);
        probe.report(&mut layers);
        layers.insert(
            "core.prefill_efficiency",
            probe.total_s / (LANES as f64 * inproc_s),
        );
        // The in-process phase reads every outcome back through the
        // memo table after the prefill, one hit per pair, and every
        // lookup the simulated slaves make is a hit unless the cache had
        // to compute the pair again.
        let lookups = n_pairs + out.scc.points.len() as u64 * n_pairs;
        layers.insert("core.cache_hits", (lookups - out.scc.recomputed) as f64);
        crate::write_trace(args, &tracer);
    }
    Outcome {
        setup_s: setup.median(),
        passes,
        layers,
    }
}

/// Per-pair kernel timings from a single-pair-at-a-time run over
/// [`LANES`] threads, outside any timed pass.
pub struct Probe {
    pub pair_ms: Vec<f64>,
    pub cells: f64,
    pub ops: f64,
    pub total_s: f64,
}

impl Probe {
    pub fn report(&self, layers: &mut Layers) {
        let n = self.pair_ms.len() as f64;
        layers.insert("tmalign.pair_ms.p50", stats::median(&self.pair_ms));
        layers.insert(
            "tmalign.pair_ms.tail",
            stats::tail(&self.pair_ms).unwrap_or(0.0),
        );
        layers.insert("tmalign.pairs", n);
        layers.insert("tmalign.ns_per_cell", self.total_s * 1e9 / self.cells);
        layers.insert("tmalign.ops_per_pair", self.ops / n);
        layers.insert("tmalign.ns_per_op", self.total_s * 1e9 / self.ops);
    }
}

/// Time every pair through `PscMethod::compare` (TM-align), one span
/// per pair.
pub fn kernel_probe_pairs(tracer: &Arc<Tracer>, pairs: &[(&CaChain, &CaChain)]) -> Probe {
    let method = MethodKind::TmAlign.instantiate();
    let next = AtomicUsize::new(0);
    let rows: Mutex<Vec<(f64, f64, f64)>> = Mutex::new(Vec::with_capacity(pairs.len()));
    tracer.time(0, "kernel_probe", 0, |parent| {
        std::thread::scope(|s| {
            for _ in 0..LANES {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(a, b)) = pairs.get(k) else { break };
                    let start = tracer.now();
                    let score = method.compare(a, b);
                    let end = tracer.now();
                    tracer.span(parent, "pair", k as u64, start, end);
                    let cells = (a.len() * b.len()) as f64;
                    rows.lock().expect("probe rows poisoned").push((
                        end - start,
                        cells,
                        score.ops as f64,
                    ));
                });
            }
        });
    });
    let rows = rows.into_inner().expect("probe rows poisoned");
    Probe {
        pair_ms: rows.iter().map(|r| r.0 * 1e3).collect(),
        cells: rows.iter().map(|r| r.1).sum(),
        ops: rows.iter().map(|r| r.2).sum(),
        total_s: rows.iter().map(|r| r.0).sum(),
    }
}

/// Worker-side lane idle between handing back one batch and receiving
/// the next, per worker link.
fn dispatch_gaps(events: &[FrameEvent], net: u32) -> Vec<f64> {
    let mut gaps = Vec::new();
    let mut links: Vec<u32> = events
        .iter()
        .filter(|e| e.net == net && e.end == End::Client)
        .map(|e| e.link)
        .collect();
    links.sort_unstable();
    links.dedup();
    for link in links {
        let mut last_result: Option<f64> = None;
        for e in events
            .iter()
            .filter(|e| e.net == net && e.link == link && e.end == End::Client)
        {
            if e.tx && e.kind == kind::RESULT_BATCH {
                last_result = Some(e.t);
            } else if !e.tx && e.kind == kind::JOB_BATCH {
                if let Some(t) = last_result.take() {
                    gaps.push(e.t - t);
                }
            }
        }
    }
    gaps
}

/// Sum over the result senders on `net` of the time between each
/// sender's last result and `done` (the last result overall), in ms.
fn tail_idle_ms(events: &[FrameEvent], net: u32, result_kind: u8) -> (f64, f64) {
    let results = on(events, net, End::Server, false, result_kind);
    let done = results.iter().map(|e| e.t).fold(0.0, f64::max);
    let mut last: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for e in &results {
        let t = last.entry(e.link).or_insert(0.0);
        *t = t.max(e.t);
    }
    (last.values().map(|t| (done - t) * 1e3).sum(), done)
}

fn serve_layers(tracer: &Arc<Tracer>, phase: &Phase, n_pairs: u64, layers: &mut Layers) {
    let events = tracer.events();
    let timings = batch_timings(&events, SERVE_NET);
    let rtt: Vec<f64> = timings.iter().map(|t| t.0 * 1e3).collect();
    layers.insert("serve.batch_rtt_ms.p50", stats::median(&rtt));
    layers.insert("serve.batch_rtt_ms.tail", stats::tail(&rtt).unwrap_or(0.0));
    layers.insert("serve.batches", rtt.len() as f64);
    let busy: Vec<f64> = timings.iter().map(|t| t.1 * 1e3).collect();
    layers.insert("serve.worker_busy_ms.p50", stats::median(&busy));
    let wire: Vec<f64> = timings.iter().map(|t| t.2 * 1e3).collect();
    layers.insert("serve.wire_ms.p50", stats::median(&wire));
    let gaps: Vec<f64> = dispatch_gaps(&events, SERVE_NET)
        .iter()
        .map(|g| g * 1e3)
        .collect();
    layers.insert("serve.dispatch_gap_ms.p50", stats::median(&gaps));
    let (tail, done) = tail_idle_ms(&events, SERVE_NET, kind::RESULT_BATCH);
    layers.insert("serve.tail_idle_ms", tail);
    layers.insert("serve.teardown_ms", (phase.returned_at - done) * 1e3);
    let bytes: u64 = events
        .iter()
        .filter(|e| e.net == SERVE_NET && e.tx)
        .map(|e| e.bytes)
        .sum();
    layers.insert("serve.bytes_per_pair", bytes as f64 / n_pairs as f64);
    layers.insert(
        "serve.residual_frac",
        serve_residual(tracer, &events, phase),
    );
}

/// Lane time of the serve phase that no named span covers. Each worker
/// lane gets a span over the phase with, as children, its batch round
/// trips, its dispatch gaps, its tail idle and the teardown; the lane
/// span's self time is what the named layers leave unexplained (worker
/// start-up and handshake, job staging, anything unforeseen).
fn serve_residual(tracer: &Arc<Tracer>, events: &[FrameEvent], phase: &Phase) -> f64 {
    let done = events
        .iter()
        .filter(|e| {
            e.net == SERVE_NET && e.end == End::Server && !e.tx && e.kind == kind::RESULT_BATCH
        })
        .map(|e| e.t)
        .fold(0.0, f64::max);
    let mut links: Vec<u32> = events
        .iter()
        .filter(|e| e.net == SERVE_NET && e.end == End::Server)
        .map(|e| e.link)
        .collect();
    links.sort_unstable();
    links.dedup();
    let mut spans = Vec::new();
    for link in &links {
        let lane = tracer.new_id();
        spans.push(Span {
            id: lane,
            parent: 0,
            name: "serve.lane".into(),
            key: u64::from(*link),
            start: phase.start_at,
            end: phase.returned_at,
        });
        let mine: Vec<&FrameEvent> = events
            .iter()
            .filter(|e| e.net == SERVE_NET && e.link == *link)
            .collect();
        let mut open: Option<f64> = None;
        let mut last_result: Option<f64> = None;
        for e in mine {
            match (e.tx, e.kind) {
                (true, kind::JOB_BATCH) => {
                    if let Some(r) = last_result.take() {
                        spans.push(child(tracer, lane, "serve.dispatch", e.key, r, e.t));
                    }
                    open = Some(e.t);
                }
                (false, kind::RESULT_BATCH) => {
                    if let Some(d) = open.take() {
                        spans.push(child(tracer, lane, "serve.batch", e.key, d, e.t));
                    }
                    last_result = Some(e.t);
                }
                _ => {}
            }
        }
        if let Some(r) = last_result {
            spans.push(child(tracer, lane, "serve.tail_idle", 0, r, done));
        }
        spans.push(child(
            tracer,
            lane,
            "serve.teardown",
            0,
            done,
            phase.returned_at,
        ));
    }
    let lane_total: f64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum();
    let residual: f64 = trace::self_times(&spans)
        .iter()
        .zip(&spans)
        .filter(|(_, s)| s.parent == 0)
        .map(|((_, t), _)| t)
        .sum();
    for s in spans {
        tracer.record(s);
    }
    if lane_total > 0.0 {
        residual / lane_total
    } else {
        0.0
    }
}

fn child(tracer: &Tracer, parent: u64, name: &str, key: u64, start: f64, end: f64) -> Span {
    Span {
        id: tracer.new_id(),
        parent,
        name: name.into(),
        key,
        start,
        end,
    }
}

fn shard_layers(tracer: &Arc<Tracer>, phase: &Phase, stolen: u64, layers: &mut Layers) {
    let events = tracer.events();
    let grants = on(&events, FRONTEND_NET, End::Server, true, kind::TILE_GRANT);
    let results = on(&events, FRONTEND_NET, End::Server, false, kind::TILE_RESULT);
    let rtt: Vec<f64> = grants
        .iter()
        .filter_map(|g| {
            results
                .iter()
                .find(|r| r.key == g.key && r.t >= g.t)
                .map(|r| (r.t - g.t) * 1e3)
        })
        .collect();
    layers.insert("shard.tile_rtt_ms.p50", stats::median(&rtt));
    layers.insert("shard.tiles_stolen", stolen as f64);
    let (tail, done) = tail_idle_ms(&events, FRONTEND_NET, kind::TILE_RESULT);
    layers.insert("shard.tail_idle_ms", tail);
    layers.insert("shard.teardown_ms", (phase.returned_at - done) * 1e3);
}
