//! `query-short`: open-loop one-vs-all `QuerySubmit`s against a `Gate`
//! over a short-chain (TINY8-shaped) database, with shipped defaults.
//!
//! Queries arrive in bursts on a fixed schedule: every [`PERIOD_MS`] one
//! burst of [`PER_CLIENT`] pipelined submissions on each of [`LANES`]
//! client connections (one tenant each), whether or not the previous
//! burst has been answered — about half the gate's capacity on a 2-core
//! box. Latency runs from the burst's due time to the `QueryDone`, so a
//! stall is charged to every query it delays; a refused or failed query
//! is infinitely late. Each ranking must be bit-identical to
//! `rck_gate::reference_ranking`, computed once before the stream.

use crate::allvsall::{kernel_probe_pairs, worker_config};
use crate::stats::{self, Rng};
use crate::sys::cpu_times;
use crate::trace::{self, batch_timings, kind, name_hash, on, End, FrameEvent, Tap, Tracer};
use crate::{Args, Layers, Outcome, Passes, Setup, LANES, SETUP_FIRST_S};
use rck_gate::{
    reference_ranking, Gate, GateClient, GateConfig, GateHandle, GateReport, QueryEvent,
};
use rck_pdb::datasets;
use rck_pdb::model::CaChain;
use rck_serve::proto::QuerySubmit;
use rck_serve::{run_worker_conn, MemNet, WorkerReport};
use rck_tmalign::MethodKind;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Database size: two TINY8 generations, so one query is two batches.
const DB_GENERATIONS: u64 = 2;
/// Distinct query chains the stream draws from.
const POOL: usize = 256;
/// Submissions per client per burst (under the default per-tenant cap).
const PER_CLIENT: usize = 4;
/// Burst period: 8 queries per 100 ms is 80 q/s, about half of the
/// ~170 q/s a saturated gate answers over this database on a 2-core box.
const PERIOD_MS: u64 = 100;
const POOL_NET: u32 = 5;
const CLIENT_NET: u32 = 6;

struct Input {
    db: Vec<CaChain>,
    pool: Vec<CaChain>,
}

/// The resident database (TINY8 generator seeds 2013 and 2014) and the
/// query pool (the generations after them) are fixed; the workload seed
/// decides which pool chain each query carries ([`pick`]).
fn input() -> Input {
    let generation = |g: u64| datasets::tiny_profile().generate(rckalign_bench::DATASET_SEED + g);
    let db = (0..DB_GENERATIONS)
        .flat_map(|g| {
            generation(g).into_iter().map(move |mut chain| {
                chain.name = format!("d{g}_{}", chain.name);
                chain
            })
        })
        .collect();
    let pool = (0..POOL)
        .map(|k| {
            let family = generation(DB_GENERATIONS + k as u64);
            let mut chain = family[k % family.len()].clone();
            chain.name = format!("q{k:03}");
            chain
        })
        .collect();
    Input { db, pool }
}

/// A booted gate with its worker pool and one connected client per lane.
struct Rig {
    handle: GateHandle,
    gate: Option<JoinHandle<GateReport>>,
    workers: Vec<JoinHandle<io::Result<WorkerReport>>>,
    clients: Vec<GateClient>,
}

fn submit(query_id: u64, tenant: usize, chain: &CaChain) -> QuerySubmit {
    QuerySubmit {
        tenant: format!("tenant-{tenant}"),
        query_id,
        weight: 1,
        methods: vec![MethodKind::TmAlign],
        chain: chain.clone(),
    }
}

fn boot(input: &Input, tap: &Tap) -> Rig {
    let pool_net = MemNet::new();
    let client_net = MemNet::new();
    let gate = Gate::bind_on(
        tap.listener(pool_net.listener(), POOL_NET),
        tap.listener(client_net.listener(), CLIENT_NET),
        input.db.clone(),
        GateConfig::default(),
    );
    let handle = gate.handle();
    let gate = std::thread::spawn(move || gate.run());
    let workers = (0..LANES)
        .map(|k| {
            let conn = tap.client(pool_net.connect().expect("gate pool listening"), POOL_NET);
            std::thread::spawn(move || run_worker_conn(conn, &worker_config(format!("w{k}"))))
        })
        .collect();
    // One answered query per client: the pool is up and serving.
    let clients = (0..LANES)
        .map(|c| {
            let conn = tap.client(client_net.connect().expect("gate listening"), CLIENT_NET);
            let mut client =
                GateClient::connect(conn, &format!("tenant-{c}")).expect("gate handshake");
            let warm = client
                .run_query(submit(u64::MAX - c as u64, c, &input.pool[c]))
                .expect("warm-up query");
            assert!(warm.completed(), "warm-up query refused");
            client
        })
        .collect();
    Rig {
        handle,
        gate: Some(gate),
        workers,
        clients,
    }
}

impl Drop for Rig {
    /// Say goodbye on every client, drain the gate, and wait for the gate
    /// and its workers to end — a set-up repetition or a finished stream
    /// leaves no thread behind.
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.finish();
        }
        self.handle.drain();
        if let Some(gate) = self.gate.take() {
            let _ = gate.join();
        }
        // Workers end on the gate's Shutdown or on a closed connection.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One query as a client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    query_id: u64,
    burst: usize,
    /// Trace-clock (or stream-clock) seconds: due, sent, answered.
    due: f64,
    sent: f64,
    done: f64,
    ok: bool,
}

impl Sample {
    /// Answered with the reference ranking.
    fn answered(&self) -> bool {
        self.ok && self.done.is_finite()
    }
}

/// The pool chain query `query_id` carries.
fn pick(seed: u64, query_id: u64) -> usize {
    Rng::new(seed ^ query_id.wrapping_mul(0x2545_f491_4f6c_dd1d)).below(POOL)
}

/// Drive one client's share of every burst due within `seconds`.
fn client_stream(
    client: &mut GateClient,
    c: usize,
    input: &Input,
    reference: &[Vec<(u32, u64)>],
    seed: u64,
    seconds: f64,
    clock: &(dyn Fn() -> f64 + Sync),
) -> Vec<Sample> {
    let t0 = clock();
    let bursts = (seconds * 1000.0 / PERIOD_MS as f64).floor().max(1.0) as usize;
    let mut out = Vec::with_capacity(bursts * PER_CLIENT);
    for b in 0..bursts {
        let due = t0 + (b as u64 * PERIOD_MS) as f64 / 1e3;
        let wait = due - clock();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let first = out.len();
        for s in 0..PER_CLIENT {
            let query_id = ((b * LANES + c) * PER_CLIENT + s) as u64 + 1;
            let sent = clock();
            let chain = &input.pool[pick(seed, query_id)];
            let ok = client.submit(submit(query_id, c, chain)).is_ok();
            out.push(Sample {
                query_id,
                burst: b,
                due,
                sent,
                done: f64::INFINITY,
                ok,
            });
        }
        let mut open = out[first..].iter().filter(|s| s.ok).count();
        while open > 0 {
            let event = client.next_event();
            let now = clock();
            let (query_id, ok) = match event {
                Ok(QueryEvent::Partial(_)) => continue,
                Ok(QueryEvent::Done(d)) => {
                    let want = &reference[pick(seed, d.query_id)];
                    let got: Vec<(u32, u64)> =
                        d.ranking.iter().map(|&(ix, s)| (ix, s.to_bits())).collect();
                    (d.query_id, &got == want)
                }
                Ok(QueryEvent::Reject(r)) => (r.query_id, false),
                Ok(QueryEvent::Ended) | Err(_) => {
                    eprintln!("perfbench: query session ended with {open} queries open");
                    return out;
                }
            };
            if let Some(s) = out[first..]
                .iter_mut()
                .find(|s| s.query_id == query_id && s.done.is_infinite())
            {
                open -= 1;
                if ok {
                    s.done = now;
                } else {
                    s.ok = false;
                }
            }
        }
    }
    out
}

/// Run the stream on both clients of `rig`; samples from both.
fn stream(
    rig: &mut Rig,
    input: &Input,
    reference: &[Vec<(u32, u64)>],
    args: &Args,
    clock: &(dyn Fn() -> f64 + Sync),
) -> Vec<Sample> {
    std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    client_stream(client, c, input, reference, args.seed, args.seconds, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Per-query latency from due time in ms; infinite when not answered
/// correctly.
fn latency_ms(s: &Sample) -> f64 {
    if s.answered() {
        (s.done - s.due) * 1e3
    } else {
        f64::INFINITY
    }
}

/// One pass per burst: its wall runs from the burst's due time to its
/// last answer. The kernel's 10 ms CPU clock cannot resolve one burst,
/// so its CPU is the stream's `cpu_s` spread evenly over the bursts.
fn passes_of(samples: &[Sample], cpu_s: f64) -> Passes {
    let bursts = samples.iter().map(|s| s.burst).max().map_or(0, |b| b + 1);
    let mut walls = vec![0.0f64; bursts];
    let mut failed = 0;
    for s in samples {
        walls[s.burst] = walls[s.burst].max(latency_ms(s) / 1e3);
        failed += u64::from(!s.answered());
    }
    Passes {
        walls,
        cpus: vec![cpu_s / bursts.max(1) as f64],
        attempted: samples.len() as u64,
        failed,
    }
}

pub fn run(args: &Args) -> Outcome {
    let untraced = Tap(None);
    let mut setup = Setup::default();
    let (input, mut rig) = setup.window(SETUP_FIRST_S, || {
        let input = input();
        let rig = boot(&input, &untraced);
        (input, rig)
    });
    // The oracle, once, outside set-up and outside the stream.
    let combiner = GateConfig::default().combiner;
    let rank = |q: &CaChain| -> Vec<(u32, u64)> {
        reference_ranking(&input.db, q, &[MethodKind::TmAlign], combiner)
            .into_iter()
            .map(|(ix, s)| (ix, s.to_bits()))
            .collect()
    };
    let reference: Vec<Vec<(u32, u64)>> = std::thread::scope(|s| {
        let chunks: Vec<_> = input
            .pool
            .chunks(POOL.div_ceil(LANES))
            .map(|chunk| s.spawn(move || chunk.iter().map(rank).collect::<Vec<_>>()))
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_secs_f64();
    let cpu0 = cpu_times();
    let samples = stream(&mut rig, &input, &reference, args, &clock);
    let cpu = cpu_times().total() - cpu0.total();
    drop(rig);
    let mut passes = passes_of(&samples, cpu);
    let mut layers = Layers::new();
    if args.trace {
        let lat: Vec<f64> = samples.iter().map(latency_ms).collect();
        layers.insert("query_p50_ms", stats::median(&lat));
        layers.insert("query_tail_ms", stats::tail(&lat).unwrap_or(0.0));
        layers.insert("query_samples", lat.len() as f64);
        let late: Vec<f64> = samples.iter().map(|s| (s.sent - s.due) * 1e3).collect();
        layers.insert("bench.generator_late_ms.p50", stats::median(&late));
        layers.insert(
            "bench.generator_late_ms.tail",
            stats::tail(&late).unwrap_or(0.0),
        );
        let traced = traced(
            args,
            &input,
            &reference,
            stats::median(&passes.walls),
            &mut layers,
        );
        passes.attempted += traced.attempted;
        passes.failed += traced.failed;
        layers.insert("fail_frac", passes.fail_frac());
    }
    Outcome {
        setup_s: setup.median(),
        passes,
        layers,
    }
}

/// A second stream on a traced rig, and the gate-layer figures its
/// frame events give. Returns the traced stream's checked queries.
fn traced(
    args: &Args,
    input: &Input,
    reference: &[Vec<(u32, u64)>],
    untraced_wall: f64,
    layers: &mut Layers,
) -> Passes {
    let tracer = Tracer::new();
    let tap = Tap(Some(Arc::clone(&tracer)));
    let mut rig = boot(input, &tap);
    let clock_tracer = Arc::clone(&tracer);
    let clock = move || clock_tracer.now();
    let t0 = tracer.now();
    let samples = tracer.time(0, "stream", 0, |_| {
        stream(&mut rig, input, reference, args, &clock)
    });
    let t1 = tracer.now();
    drop(rig);
    for s in &samples {
        tracer.span(
            0,
            "query",
            s.query_id,
            s.due,
            if s.answered() { s.done } else { s.sent },
        );
    }
    let checked = passes_of(&samples, 0.0);
    layers.insert(
        "bench.trace_overhead_frac",
        stats::median(&checked.walls) / untraced_wall - 1.0,
    );

    let events = tracer.events();
    let answered: Vec<&Sample> = samples.iter().filter(|s| s.answered()).collect();
    let jobs = on(&events, POOL_NET, End::Client, false, kind::JOB_BATCH);
    let results = on(&events, POOL_NET, End::Client, true, kind::RESULT_BATCH);
    let mut to_dispatch = Vec::new();
    let mut to_done = Vec::new();
    for s in &answered {
        let aux = name_hash(&input.pool[pick(args.seed, s.query_id)].name);
        let mine: Vec<&FrameEvent> = jobs
            .iter()
            .filter(|e| e.aux == aux && e.t >= s.sent && e.t <= s.done)
            .collect();
        if let Some(first) = mine.first() {
            to_dispatch.push((first.t - s.sent) * 1e3);
        }
        let last_result = mine
            .iter()
            .filter_map(|j| {
                results
                    .iter()
                    .find(|r| r.key == j.key && r.link == j.link)
                    .map(|r| r.t)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        if last_result.is_finite() {
            to_done.push((s.done - last_result) * 1e3);
        }
    }
    layers.insert(
        "gate.submit_to_dispatch_ms.p50",
        stats::median(&to_dispatch),
    );
    layers.insert("gate.result_to_done_ms.p50", stats::median(&to_done));
    let busy: Vec<f64> = batch_timings(&events, POOL_NET)
        .iter()
        .map(|t| t.1)
        .collect();
    let busy_ms: Vec<f64> = busy.iter().map(|b| b * 1e3).collect();
    layers.insert("gate.worker_busy_ms.p50", stats::median(&busy_ms));
    layers.insert(
        "gate.worker_busy_frac",
        busy.iter().sum::<f64>() / (LANES as f64 * (t1 - t0)),
    );
    let n = answered.len().max(1) as f64;
    layers.insert("gate.batches_per_query", jobs.len() as f64 / n);
    let bytes: u64 = events
        .iter()
        .filter(|e| e.tx && (e.net == POOL_NET || e.net == CLIENT_NET))
        .map(|e| e.bytes)
        .sum();
    layers.insert("gate.bytes_per_query", bytes as f64 / n);
    let (enc, dec) = trace::codec_us_per_kib(&tracer);
    layers.insert("serve.codec.encode_us_per_kib", enc);
    layers.insert("serve.codec.decode_us_per_kib", dec);
    let pairs: Vec<(&CaChain, &CaChain)> = input
        .pool
        .iter()
        .flat_map(|q| input.db.iter().map(move |d| (d, q)))
        .collect();
    kernel_probe_pairs(&tracer, &pairs).report(layers);
    crate::write_trace(args, &tracer);
    checked
}
