//! The rck-serve master: job generation, batch dispatch, fault recovery
//! and result assembly over a pluggable transport.
//!
//! One thread per connected worker (plus a deadline monitor) shares a
//! single work-queue state under a mutex/condvar pair. The master speaks
//! to workers through the [`crate::transport`] seam — real TCP in
//! production ([`Master::bind`]), the deterministic in-memory network in
//! the chaos harness ([`Master::bind_on`]). Fault tolerance is three
//! mechanisms stacked:
//!
//! * **connection loss** — a failed read or write on a worker's
//!   connection immediately requeues every batch that worker held;
//! * **heartbeat deadline** — the monitor requeues batches whose worker
//!   has gone silent past [`MasterConfig::heartbeat_timeout`] and shuts
//!   the connection down, which also unblocks the handler's pending read;
//! * **batch timeout** — heartbeats extend a batch's deadline only up to
//!   [`MasterConfig::batch_timeout`] past dispatch, so a worker whose
//!   heartbeats flow but whose job traffic is lost (a chaos-plan frame
//!   drop, a half-broken link) cannot pin its batch forever.
//!
//! Requeued work can race its original worker, so acceptance is guarded
//! three times: a result frame must answer a batch id still in flight,
//! its outcomes must answer exactly the jobs that batch dispatched
//! (anything else is counted mismatched and the batch requeued), and each
//! `(i, j)` pair is accepted only once (late duplicates are counted and
//! dropped). The final [`SimilarityMatrix`] is therefore complete and
//! exact no matter how many workers die mid-run.
//!
//! The in-flight bookkeeping behind all three is the shared
//! [`LeaseTable`]; the master adds only its FIFO pick and its transport.

use crate::lease::{Lease, LeaseTable, Verdict};
use crate::proto::{self, Frame, ResultBatch, Welcome};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::sync::MutexExt;
use crate::transport::{Conn, Listener, TcpChannelListener};
use rck_pdb::model::CaChain;
use rck_tmalign::MethodKind;
use rckalign::loadbalance::{order_jobs, JobOrdering};
use rckalign::{all_vs_all, batch_jobs, PairJob, PairOutcome, SimilarityMatrix, StoreBinding};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Master configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterConfig {
    /// Address to listen on; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Jobs per dispatched batch.
    pub batch_size: usize,
    /// Comparison method the farm runs.
    pub method: MethodKind,
    /// Queue ordering before batching (longest-first by default — the
    /// makespan heuristic the simulator's load-balance ablation vindicates).
    pub ordering: JobOrdering,
    /// Silence window after which a worker is declared dead and its
    /// batches are requeued.
    pub heartbeat_timeout: Duration,
    /// Upper bound on how long heartbeats may keep one dispatched batch
    /// alive. `None` (the default) trusts heartbeats indefinitely; the
    /// chaos harness sets it so a worker whose results are lost on the
    /// wire — while its heartbeats still flow — gets its batch requeued
    /// instead of stalling the run.
    pub batch_timeout: Option<Duration>,
    /// Hold dispatch until this many workers have connected.
    pub min_workers: usize,
}

impl Default for MasterConfig {
    fn default() -> MasterConfig {
        MasterConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            batch_size: 16,
            method: MethodKind::TmAlign,
            ordering: JobOrdering::LongestFirst,
            heartbeat_timeout: Duration::from_millis(1000),
            batch_timeout: None,
            min_workers: 1,
        }
    }
}

/// Result of a completed service run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The assembled similarity matrix — identical to what an in-process
    /// [`rckalign::run_all_vs_all`] over the same dataset produces.
    pub matrix: SimilarityMatrix,
    /// Accepted outcomes, sorted by `(i, j)`.
    pub outcomes: Vec<PairOutcome>,
    /// Final counters.
    pub stats: StatsSnapshot,
}

/// A completed tile streamed out of a feed-mode master
/// ([`Master::bind_feed_on`]) as soon as its last pair is accepted.
#[derive(Debug, Clone)]
pub struct TileDone {
    /// The tile id the work was submitted under.
    pub tile_id: u32,
    /// Every outcome of the tile, sorted by `(i, j)`.
    pub outcomes: Vec<PairOutcome>,
}

/// Progress of one submitted tile in a feed-mode master.
struct TileProgress {
    remaining: usize,
    outcomes: Vec<PairOutcome>,
    /// How many grants of this tile are waiting on its completion. A
    /// frontend deadline requeue can hand an orphaned tile back to the
    /// master that still holds it pending; each such re-grant is merged
    /// here and answered with its own [`TileDone`] when the tile lands,
    /// so every grant gets a complete answer and the frontend's
    /// credit-per-result loop stays self-clocking.
    pending_grants: usize,
}

/// Where a master's chains come from: the classic staged dataset, or a
/// table grown dynamically as tile grants arrive (feed mode). Tile
/// grants ship *sparse* chain tables — a shard master may only ever see
/// a corner of the dataset — so dense `Vec` indexing cannot work there.
enum ChainSet {
    Static(Arc<Vec<CaChain>>),
    Dynamic(Mutex<HashMap<u32, CaChain>>),
}

impl ChainSet {
    fn n_chains(&self) -> u32 {
        match self {
            ChainSet::Static(all) => all.len() as u32,
            ChainSet::Dynamic(map) => map.lock_recover().len() as u32,
        }
    }
}

/// The shared work-queue state (guarded by the `Mutex` in `Shared`).
struct Work {
    queue: VecDeque<Vec<PairJob>>,
    leases: LeaseTable<()>,
    /// Accepted pairs, mapped to their index in `outcomes` so a
    /// duplicate tile grant is answered in O(1) per pair instead of a
    /// linear scan over everything accepted so far.
    done: HashMap<(u32, u32), usize>,
    outcomes: Vec<PairOutcome>,
    streams: HashMap<u32, Box<dyn Conn>>,
    /// Last liveness signal (heartbeat or result) per worker, feeding
    /// the `rck_heartbeat_gap_seconds` histogram.
    last_signal: HashMap<u32, Instant>,
    total_pairs: usize,
    finished: bool,
    /// Feed mode only: more tiles may still arrive, so running out of
    /// accepted pairs does not finish the run. Classic mode stages the
    /// whole workload at bind and keeps this `false` forever.
    accepting: bool,
    /// Feed mode: which submitted tile each pending pair belongs to.
    tile_of: HashMap<(u32, u32), u32>,
    /// Feed mode: per-tile completion progress.
    tiles: HashMap<u32, TileProgress>,
}

impl Work {
    fn new(cfg: &MasterConfig, queue: VecDeque<Vec<PairJob>>, accepting: bool) -> Work {
        Work {
            queue,
            leases: LeaseTable::new(Some(cfg.heartbeat_timeout), cfg.batch_timeout),
            done: HashMap::new(),
            outcomes: Vec::new(),
            streams: HashMap::new(),
            last_signal: HashMap::new(),
            total_pairs: 0,
            finished: false,
            accepting,
            tile_of: HashMap::new(),
            tiles: HashMap::new(),
        }
    }

    fn check_finished(&mut self) {
        if !self.accepting && self.done.len() == self.total_pairs {
            self.finished = true;
        }
    }

    /// Put retired leases back at the head of the queue.
    fn requeue(&mut self, leases: Vec<Lease<()>>, stats: &ServeStats) {
        for lease in leases {
            stats.on_batch_requeued(lease.jobs.len());
            self.queue.push_front(lease.jobs);
        }
    }
}

struct Shared {
    work: Mutex<Work>,
    available: Condvar,
    chains: ChainSet,
    stats: Arc<ServeStats>,
    cfg: MasterConfig,
    next_worker_id: AtomicU32,
    /// Set by [`AbortHandle::abort`]: stop accepting, stop dispatching,
    /// fail the run instead of assembling a partial matrix.
    aborted: AtomicBool,
    /// Set by [`AbortHandle::drain`]: stop dispatching *new* batches but
    /// let inflight ones finish, then return the partial matrix — the
    /// graceful-shutdown path (SIGINT in `rck_served`).
    draining: AtomicBool,
    /// Persistent result store attached by [`Master::with_store`]:
    /// consulted before dispatch (stored pairs never reach the queue)
    /// and appended to after assembly.
    store: Mutex<Option<Arc<StoreBinding>>>,
    /// Feed mode: completed tiles are streamed here as soon as their
    /// last pair is accepted. `None` in classic mode.
    tile_tx: Option<mpsc::Sender<TileDone>>,
}

impl Shared {
    /// Build the wire batch for `jobs`, sourcing the chain table from
    /// whichever chain set this master runs on.
    fn job_batch(&self, batch_id: u64, jobs: Vec<PairJob>) -> proto::JobBatch {
        match &self.chains {
            ChainSet::Static(all) => proto::build_job_batch(batch_id, jobs, all),
            ChainSet::Dynamic(map) => {
                let map = map.lock_recover();
                // A referenced chain missing from the table cannot happen
                // (submit_tile inserts every chain a tile references
                // before queueing its jobs); if it ever did, the worker's
                // own job/chain cross-check fails the session cleanly.
                let chains = rckalign::chain_indices(&jobs)
                    .into_iter()
                    .filter_map(|ix| map.get(&ix).map(|c| (ix, c.clone())))
                    .collect();
                proto::JobBatch {
                    batch_id,
                    chains,
                    jobs,
                }
            }
        }
    }
}

/// A bound, not-yet-running service master.
pub struct Master {
    listener: Box<dyn Listener>,
    shared: Arc<Shared>,
}

/// Cancels a running [`Master`] from another thread: the run stops
/// dispatching, handler threads drain on their read timeouts, and
/// [`Master::run`] returns `Err(Interrupted)` instead of a partial
/// matrix. The chaos driver pulls this lever once every scripted worker
/// session has ended with the workload still incomplete — an
/// unrecoverable schedule must fail *cleanly*, never deadlock.
#[derive(Clone)]
pub struct AbortHandle {
    shared: Arc<Shared>,
}

impl AbortHandle {
    /// Stop the run. Idempotent; safe from any thread.
    pub fn abort(&self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
        let work = self.shared.work.lock_recover();
        for conn in work.streams.values() {
            conn.shutdown();
        }
        drop(work);
        self.shared.available.notify_all();
    }

    /// Drain the run instead of killing it: no new batches are
    /// dispatched, inflight batches are allowed to finish (still under
    /// their deadlines), workers then receive an orderly Shutdown, and
    /// [`Master::run`] returns the *partial* matrix assembled so far
    /// rather than an error. Idempotent; safe from any thread. This is
    /// the SIGINT path of the serving bins — connections are never
    /// dropped mid-stream.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Passing through the lock orders the flag before the deadline
        // monitor's next check, so the wake-up below cannot be missed.
        drop(self.shared.work.lock_recover());
        self.shared.available.notify_all();
    }
}

/// Feeds tiles of work into a running feed-mode master
/// ([`Master::bind_feed_on`]) from another thread. Clone freely.
#[derive(Clone)]
pub struct FeedHandle {
    shared: Arc<Shared>,
}

impl FeedHandle {
    /// Submit one tile: the (sparse) chain table it references and the
    /// pair jobs it owns. Jobs are batched onto the dispatch queue
    /// immediately; once the last of the tile's pairs is accepted, a
    /// [`TileDone`] carrying the tile's `(i, j)`-sorted outcomes is
    /// emitted on the receiver `bind_feed_on` returned. A pair already
    /// completed by an earlier tile is answered from the accepted
    /// outcome instead of being recomputed, so a duplicate grant after a
    /// steal race costs nothing.
    pub fn submit_tile(&self, tile_id: u32, chains: Vec<(u32, CaChain)>, jobs: Vec<PairJob>) {
        if let ChainSet::Dynamic(map) = &self.shared.chains {
            let mut map = map.lock_recover();
            for (ix, chain) in chains {
                map.entry(ix).or_insert(chain);
            }
        }
        let mut work = self.shared.work.lock_recover();
        // A re-grant of a tile this master still holds pending (the
        // frontend's deadline requeue serves orphaned tiles to any
        // credit, including the original holder's) merges into the
        // in-flight progress — answering early with only the
        // already-accepted subset would hand the frontend a partial
        // result and get a healthy master killed.
        let resubmitted = work.tiles.contains_key(&tile_id);
        let mut answered = Vec::new();
        let mut fresh = Vec::new();
        for job in jobs {
            let pair = (job.i, job.j);
            if let Some(&ix) = work.done.get(&pair) {
                answered.push(work.outcomes[ix]);
            } else if let std::collections::hash_map::Entry::Vacant(slot) = work.tile_of.entry(pair)
            {
                slot.insert(tile_id);
                fresh.push(job);
            }
            // A pair pending under this same tile is already counted in
            // the in-flight progress; a pair pending under *another*
            // tile is covered by that tile's completion (tiles of one
            // partition are disjoint, so only a misused feed hits that).
        }
        work.total_pairs += fresh.len();
        for batch in batch_jobs(&fresh, self.shared.cfg.batch_size.max(1)) {
            work.queue.push_back(batch);
        }
        let done_now = if resubmitted {
            // The in-flight progress already holds every accepted
            // outcome of this tile; record one more grant to answer and
            // fold in any genuinely new jobs.
            if let Some(p) = work.tiles.get_mut(&tile_id) {
                p.remaining += fresh.len();
                p.pending_grants += 1;
            }
            None
        } else if fresh.is_empty() {
            // Fully answered from already-accepted outcomes: complete now
            // (the send happens after the guard drops).
            answered.sort_by_key(|o| (o.i, o.j));
            Some(answered)
        } else {
            work.tiles.insert(
                tile_id,
                TileProgress {
                    remaining: fresh.len(),
                    outcomes: answered,
                    pending_grants: 1,
                },
            );
            None
        };
        drop(work);
        if let Some(outcomes) = done_now {
            if let Some(tx) = &self.shared.tile_tx {
                let _ = tx.send(TileDone { tile_id, outcomes });
            }
        }
        self.shared.available.notify_all();
    }

    /// Close the feed: no more tiles will arrive, so the master finishes
    /// (and [`Master::run`] returns) once every submitted pair has an
    /// accepted outcome. Idempotent.
    pub fn close(&self) {
        let mut work = self.shared.work.lock_recover();
        work.accepting = false;
        work.check_finished();
        drop(work);
        self.shared.available.notify_all();
    }

    /// Live counters of the master this handle feeds.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }
}

impl Master {
    /// Bind the service TCP socket and stage the all-vs-all workload over
    /// `chains`. No jobs are dispatched until [`Master::run`].
    pub fn bind(chains: Vec<CaChain>, cfg: MasterConfig) -> io::Result<Master> {
        let listener = TcpChannelListener::bind(cfg.addr)?;
        Ok(Master::bind_on(Box::new(listener), chains, cfg))
    }

    /// Stage the workload on an already-bound transport listener — the
    /// seam the chaos harness uses to run the unmodified master over the
    /// deterministic in-memory network ([`crate::transport::MemNet`]).
    pub fn bind_on(listener: Box<dyn Listener>, chains: Vec<CaChain>, cfg: MasterConfig) -> Master {
        let mut jobs = all_vs_all(chains.len(), cfg.method);
        order_jobs(&mut jobs, &chains, cfg.ordering);
        let queue: VecDeque<Vec<PairJob>> = if jobs.is_empty() {
            VecDeque::new()
        } else {
            batch_jobs(&jobs, cfg.batch_size.max(1)).into()
        };
        let mut work = Work::new(&cfg, queue, false);
        work.total_pairs = jobs.len();
        work.outcomes.reserve(jobs.len());
        work.check_finished();
        Master {
            listener,
            shared: Arc::new(Shared {
                work: Mutex::new(work),
                available: Condvar::new(),
                chains: ChainSet::Static(Arc::new(chains)),
                stats: Arc::new(ServeStats::new()),
                cfg,
                next_worker_id: AtomicU32::new(0),
                aborted: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                store: Mutex::new(None),
                tile_tx: None,
            }),
        }
    }

    /// Bind a **feed-mode** master on an already-bound listener: nothing
    /// is staged up front. Tiles of jobs arrive incrementally through the
    /// returned [`FeedHandle`] while the worker pool stays connected
    /// across tiles, and each completed tile is streamed out on the
    /// [`TileDone`] receiver the moment its last pair is accepted — the
    /// engine a `rck-shard` master runs its granted tiles on. The run
    /// finishes once the feed is closed ([`FeedHandle::close`]) *and*
    /// every submitted pair has an accepted outcome; [`Master::run`] then
    /// returns the [`ServeRun`] merged over everything fed. Chains are
    /// kept in a sparse table grown from tile submissions (a shard master
    /// may only ever see a corner of the dataset), so
    /// [`Master::with_store`] — which pre-resolves a staged workload — is
    /// a no-op here; the shard frontend owns store integration instead.
    pub fn bind_feed_on(
        listener: Box<dyn Listener>,
        cfg: MasterConfig,
    ) -> (Master, FeedHandle, mpsc::Receiver<TileDone>) {
        let work = Work::new(&cfg, VecDeque::new(), true);
        let (tile_tx, tile_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            work: Mutex::new(work),
            available: Condvar::new(),
            chains: ChainSet::Dynamic(Mutex::new(HashMap::new())),
            stats: Arc::new(ServeStats::new()),
            cfg,
            next_worker_id: AtomicU32::new(0),
            aborted: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            store: Mutex::new(None),
            tile_tx: Some(tile_tx),
        });
        let feed = FeedHandle {
            shared: Arc::clone(&shared),
        };
        (Master { listener, shared }, feed, tile_rx)
    }

    /// Attach a persistent result store before [`Master::run`]: every
    /// staged job the store already holds is satisfied immediately (its
    /// outcome accepted as if a worker had answered it, bit-identical to
    /// the run that stored it) and the remaining misses are rebatched,
    /// so a warm farm dispatches only the genuinely new pairs. Outcomes
    /// computed by the run are appended back on completion.
    pub fn with_store(self, binding: Arc<StoreBinding>) -> Master {
        {
            let mut work = self.shared.work.lock_recover();
            let staged: Vec<PairJob> = std::mem::take(&mut work.queue)
                .into_iter()
                .flatten()
                .collect();
            let mut misses = Vec::with_capacity(staged.len());
            for job in staged {
                match binding.lookup(&job) {
                    Some(outcome) => {
                        if !work.done.contains_key(&(job.i, job.j)) {
                            let ix = work.outcomes.len();
                            work.done.insert((job.i, job.j), ix);
                            work.outcomes.push(outcome);
                        }
                    }
                    None => misses.push(job),
                }
            }
            if !misses.is_empty() {
                work.queue = batch_jobs(&misses, self.shared.cfg.batch_size.max(1)).into();
            }
            work.check_finished();
        }
        *self.shared.store.lock_recover() = Some(binding);
        self
    }

    /// The bound address (with the real port when `addr` asked for 0).
    ///
    /// # Panics
    /// Panics on transports without a socket address (the in-memory one).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            // rck-lint: allow(panic) — documented panic: only the in-memory transport lacks an address
            .expect("transport has no socket address")
    }

    /// Live counters — clone the handle before [`Master::run`] to watch a
    /// run (e.g. fault-injection tests polling for requeues).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// A handle that cancels the run from another thread.
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until every pair has an accepted outcome, then shut workers
    /// down and return the assembled matrix. Returns
    /// `Err(ErrorKind::Interrupted)` if aborted first.
    pub fn run(self) -> io::Result<ServeRun> {
        let monitor = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || monitor_deadlines(&shared))
        };
        let mut handlers = Vec::new();
        loop {
            if self.shared.work.lock_recover().finished
                || self.shared.aborted.load(Ordering::SeqCst)
                || self.shared.draining.load(Ordering::SeqCst)
            {
                break;
            }
            match self.listener.poll_accept() {
                Ok(Some(conn)) => {
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || serve_worker(&shared, conn)));
                }
                Ok(None) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        self.shared.available.notify_all();
        if monitor.join().is_err() {
            return Err(io::Error::other("deadline monitor thread panicked"));
        }
        for h in handlers {
            let _ = h.join();
        }

        let mut work = self.shared.work.lock_recover();
        if !work.finished && !self.shared.draining.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "service run aborted before completion",
            ));
        }
        let mut outcomes = std::mem::take(&mut work.outcomes);
        drop(work);
        outcomes.sort_by_key(|o| (o.i, o.j));
        let guard = self.shared.store.lock_recover();
        let binding = guard.clone();
        drop(guard);
        if let Some(binding) = binding {
            // Append what the farm computed; store-satisfied pairs are
            // skipped by the store's own idempotence.
            for o in &outcomes {
                binding.record(o);
            }
            binding.with_store(|s| {
                if let Err(e) = s.flush() {
                    eprintln!("[rck-serve] store flush failed: {e}");
                }
            });
        }
        let n = match &self.shared.chains {
            ChainSet::Static(all) => all.len(),
            // Feed mode never saw the full dataset; size the matrix to
            // the highest chain index any outcome references.
            ChainSet::Dynamic(_) => outcomes.iter().map(|o| o.j as usize + 1).max().unwrap_or(0),
        };
        let matrix = SimilarityMatrix::from_outcomes(n, &outcomes);
        Ok(ServeRun {
            matrix,
            outcomes,
            stats: self.shared.stats.snapshot(),
        })
    }
}

/// Deadline monitor: requeue batches whose worker went silent, and shut
/// that worker's connection so its handler's blocking read returns. Runs
/// until the workload is finished *and* nothing is left in flight (or
/// the run is aborted). It waits on the work condvar between ticks, so
/// finish, drain and abort wake it at once.
fn monitor_deadlines(shared: &Shared) {
    let tick = (shared.cfg.heartbeat_timeout / 4).max(Duration::from_millis(5));
    let mut work = shared.work.lock_recover();
    loop {
        let settled = work.finished || shared.draining.load(Ordering::SeqCst);
        if (settled && work.leases.is_empty()) || shared.aborted.load(Ordering::SeqCst) {
            break;
        }
        // An overdue batch means its worker went silent: every batch it
        // holds goes back, not just the overdue one.
        let mut overdue = work.leases.expire(Instant::now());
        let silent: BTreeSet<u32> = overdue.iter().map(|l| l.holder).collect();
        for &worker_id in &silent {
            overdue.extend(work.leases.lose(worker_id));
            shared.stats.on_worker_lost(worker_id);
            if let Some(conn) = work.streams.get(&worker_id) {
                conn.shutdown();
            }
        }
        if !overdue.is_empty() {
            work.requeue(overdue, &shared.stats);
            shared.available.notify_all();
        }
        work = shared
            .available
            .wait_timeout(work, tick)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    drop(work);
    shared.available.notify_all();
}

enum BatchFate {
    /// Result accepted (or counted stale) — dispatch the next batch.
    Continue,
    /// Connection gone or worker refused: end the session.
    Lost,
}

/// Per-connection handler: handshake, then dispatch/collect until the
/// workload finishes or the worker is lost.
fn serve_worker(shared: &Shared, mut conn: Box<dyn Conn>) {
    // A worker that never speaks must not pin this thread forever.
    let _ = conn.set_read_timeout(Some(shared.cfg.heartbeat_timeout * 2));
    let worker_id = match handshake(shared, &mut conn) {
        Some(id) => id,
        None => {
            // The peer may be blocked mid-handshake on a frame that will
            // never come (e.g. its Hello was eaten by a fault plan) —
            // tear the connection down so it finds out.
            conn.shutdown();
            return;
        }
    };
    {
        let mut work = shared.work.lock_recover();
        if let Ok(clone) = conn.try_clone() {
            work.streams.insert(worker_id, clone);
        }
    }

    let lost = loop {
        let Some((batch_id, jobs)) = next_batch(shared, worker_id) else {
            // Workload finished or run aborted: orderly goodbye
            // (best-effort — the connection may already be gone).
            if let Ok(n) = proto::write_frame(&mut conn, &Frame::Shutdown) {
                shared.stats.add_tx(n);
            }
            break false;
        };
        let frame = Frame::JobBatch(shared.job_batch(batch_id, jobs.clone()));
        shared.stats.on_batch_dispatched(jobs.len());
        match proto::write_frame(&mut conn, &frame) {
            Ok(n) => shared.stats.add_tx(n),
            Err(_) => break true,
        }
        if let BatchFate::Lost = collect_result(shared, &mut conn, worker_id) {
            break true;
        }
    };

    let mut work = shared.work.lock_recover();
    work.streams.remove(&worker_id);
    // A lost worker's batches go back on the queue. It counts as lost
    // only if it still held work — the monitor may have seen the same
    // death first, and only the first to requeue scores it.
    let held = if lost {
        work.leases.lose(worker_id)
    } else {
        Vec::new()
    };
    if !held.is_empty() {
        work.requeue(held, &shared.stats);
        shared.stats.on_worker_lost(worker_id);
        shared.available.notify_all();
    }
    drop(work);
    // Closing here (not just dropping our handle) guarantees the peer's
    // pending reads unblock even while other clones of this connection
    // are still alive elsewhere.
    conn.shutdown();
}

/// Exchange Hello/Welcome; returns the assigned worker id.
fn handshake(shared: &Shared, conn: &mut Box<dyn Conn>) -> Option<u32> {
    let (n, worker_name) = proto::read_hello(conn, |e| {
        shared.stats.on_decode_error();
        eprintln!("[rck-serve] handshake decode error: {e}");
    })?;
    shared.stats.add_rx(n);
    let worker_name = worker_name?;
    let worker_id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let welcome = Frame::Welcome(Welcome {
        worker_id,
        n_chains: shared.chains.n_chains(),
    });
    let n = proto::write_frame(conn, &welcome).ok()?;
    shared.stats.add_tx(n);
    shared.stats.on_worker_connected(worker_id, &worker_name);
    // A new worker may satisfy the min_workers dispatch barrier.
    shared.available.notify_all();
    Some(worker_id)
}

/// Claim the next batch for `worker_id`, or `None` once the workload is
/// finished (or aborted). Blocks while the queue is empty or the
/// min-workers barrier is unmet.
fn next_batch(shared: &Shared, worker_id: u32) -> Option<(u64, Vec<PairJob>)> {
    let mut work = shared.work.lock_recover();
    let jobs = loop {
        if work.finished
            || shared.aborted.load(Ordering::SeqCst)
            || shared.draining.load(Ordering::SeqCst)
        {
            return None;
        }
        let barrier_met = shared.stats.workers_connected() >= shared.cfg.min_workers as u64;
        if barrier_met {
            if let Some(jobs) = work.queue.pop_front() {
                break jobs;
            }
        }
        let (guard, _timeout) = shared
            .available
            .wait_timeout(work, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        work = guard;
    };
    let batch_id = work
        .leases
        .grant((), jobs.clone(), worker_id, Instant::now());
    Some((batch_id, jobs))
}

/// Read frames until the outstanding batch is answered (heartbeats
/// refresh the deadline along the way) or the connection dies.
fn collect_result(shared: &Shared, conn: &mut Box<dyn Conn>, worker_id: u32) -> BatchFate {
    loop {
        match proto::read_frame(conn) {
            Ok((frame, n)) => {
                shared.stats.add_rx(n);
                match frame {
                    Frame::Heartbeat(_) => on_heartbeat(shared, worker_id),
                    Frame::ResultBatch(rb) => return accept_results(shared, worker_id, rb),
                    // Anything else out of sequence: drop the worker.
                    _ => return BatchFate::Lost,
                }
            }
            Err(e) => {
                // Connection-level failures (EOF, reset, timeout) are the
                // expected way workers die; anything else means the byte
                // stream itself is bad — a torn frame, a checksum
                // mismatch, garbage where a header should be. Those were
                // silently folded into "worker lost" before the chaos
                // harness; now they are counted and logged, because a
                // rising decode-error rate is a wire-protocol bug, not
                // worker churn.
                if e.is_decode_error() {
                    shared.stats.on_decode_error();
                    eprintln!("[rck-serve] worker {worker_id}: decode error: {e}");
                }
                return BatchFate::Lost;
            }
        }
    }
}

fn on_heartbeat(shared: &Shared, worker_id: u32) {
    let now = Instant::now();
    let mut work = shared.work.lock_recover();
    note_liveness(&mut work, shared, worker_id, now);
    work.leases.refresh(worker_id, now);
}

/// Record a liveness signal (heartbeat or accepted result) and observe
/// the gap since the worker's previous one.
fn note_liveness(work: &mut Work, shared: &Shared, worker_id: u32, now: Instant) {
    if let Some(prev) = work.last_signal.insert(worker_id, now) {
        shared
            .stats
            .observe_heartbeat_gap(now.duration_since(prev).as_secs_f64());
    }
}

/// Accept a result frame: only if its batch is still in flight, only if
/// its outcomes answer exactly the jobs that batch dispatched, and only
/// pairs not already done (requeue races produce late duplicates).
fn accept_results(shared: &Shared, worker_id: u32, rb: ResultBatch) -> BatchFate {
    let now = Instant::now();
    let mut work = shared.work.lock_recover();
    note_liveness(&mut work, shared, worker_id, now);
    let Work { leases, done, .. } = &mut *work;
    let verdict = leases.accept(
        rb.batch_id,
        rb.outcomes,
        |_, o| !done.contains_key(&(o.i, o.j)),
        now,
    );
    let (fresh, duplicates, rtt) = match verdict {
        Verdict::Stale => {
            shared.stats.on_stale_result();
            return BatchFate::Continue;
        }
        Verdict::Mismatched(lease) => {
            // A structurally valid frame carrying the wrong jobs: a
            // byzantine or desynced worker. Its outcomes must never reach
            // the matrix — requeue the batch and drop the connection.
            shared.stats.on_mismatched_result();
            work.requeue(vec![lease], &shared.stats);
            drop(work);
            eprintln!(
                "[rck-serve] worker {worker_id}: result frame for batch {} does not answer its jobs",
                rb.batch_id
            );
            shared.stats.on_worker_lost(worker_id);
            shared.available.notify_all();
            return BatchFate::Lost;
        }
        Verdict::Accepted {
            fresh,
            duplicates,
            rtt,
            ..
        } => (fresh, duplicates, rtt),
    };
    shared.stats.observe_batch_rtt(rtt.as_secs_f64());
    let mut completed_tiles: Vec<(u32, Vec<PairOutcome>, usize)> = Vec::new();
    for &o in &fresh {
        let ix = work.outcomes.len();
        work.done.insert((o.i, o.j), ix);
        // Feed mode: credit the pair to its tile; a finished tile is
        // collected for emission once the lock drops.
        if let Some(&tile_id) = work.tile_of.get(&(o.i, o.j)) {
            let tile_finished = match work.tiles.get_mut(&tile_id) {
                Some(p) => {
                    p.outcomes.push(o);
                    p.remaining -= 1;
                    p.remaining == 0
                }
                None => false,
            };
            if tile_finished {
                if let Some(mut p) = work.tiles.remove(&tile_id) {
                    p.outcomes.sort_by_key(|x| (x.i, x.j));
                    completed_tiles.push((tile_id, p.outcomes, p.pending_grants));
                }
            }
        }
        work.outcomes.push(o);
    }
    shared.stats.on_batch_completed(worker_id, fresh.len());
    if duplicates > 0 {
        shared.stats.on_duplicate_results(duplicates);
    }
    work.check_finished();
    let finished = work.finished;
    drop(work);
    if let Some(tx) = &shared.tile_tx {
        for (tile_id, outcomes, grants) in completed_tiles {
            // One TileDone per grant still waiting on this tile, each
            // carrying the complete outcome set — a re-granted tile
            // answers every grant (the frontend deduplicates).
            for _ in 1..grants {
                let _ = tx.send(TileDone {
                    tile_id,
                    outcomes: outcomes.clone(),
                });
            }
            let _ = tx.send(TileDone { tile_id, outcomes });
        }
    }
    if finished {
        shared.available.notify_all();
    }
    BatchFate::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use std::collections::HashSet;

    #[test]
    fn bind_stages_the_workload_without_dispatching() {
        let chains = tiny_profile().generate(1);
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        assert_ne!(master.local_addr().port(), 0);
        let work = master.shared.work.lock().unwrap();
        assert_eq!(work.total_pairs, 28);
        let staged: usize = work.queue.iter().map(|b| b.len()).sum();
        assert_eq!(staged, 28);
        assert!(!work.finished);
        assert_eq!(master.stats().jobs_completed(), 0);
    }

    #[test]
    fn empty_dataset_finishes_immediately() {
        let master = Master::bind(Vec::new(), MasterConfig::default()).unwrap();
        let run = master.run().unwrap();
        assert!(run.outcomes.is_empty());
        assert_eq!(run.matrix.len(), 0);
        assert_eq!(run.stats.jobs_dispatched, 0);
    }

    #[test]
    fn longest_first_ordering_front_loads_big_pairs() {
        let chains = tiny_profile().generate(3);
        let cfg = MasterConfig {
            batch_size: 1,
            ..MasterConfig::default()
        };
        let master = Master::bind(chains.clone(), cfg).unwrap();
        let work = master.shared.work.lock().unwrap();
        let cost = |jobs: &Vec<PairJob>| {
            let j = jobs[0];
            chains[j.i as usize].len() as u64 * chains[j.j as usize].len() as u64
        };
        let first = cost(work.queue.front().unwrap());
        let last = cost(work.queue.back().unwrap());
        assert!(first >= last, "queue not longest-first: {first} < {last}");
    }

    #[test]
    fn drain_returns_a_partial_run_instead_of_an_error() {
        let chains = tiny_profile().generate(2);
        let n = chains.len();
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        let handle = master.abort_handle();
        let t = std::thread::spawn(move || master.run());
        std::thread::sleep(Duration::from_millis(30));
        handle.drain();
        let run = t
            .join()
            .unwrap()
            .expect("drained run yields partial results");
        assert!(run.outcomes.is_empty(), "no workers ever connected");
        assert_eq!(run.matrix.len(), n);
    }

    fn scratch_binding(name: &str, chains: &[CaChain]) -> Arc<StoreBinding> {
        let dir =
            std::env::temp_dir().join(format!("rck-serve-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = rck_store::Store::open(
            dir.join("store.rckstore"),
            rck_store::StoreConfig::on_registry(rck_obs::Registry::new()),
        )
        .unwrap();
        Arc::new(StoreBinding::new(store, chains))
    }

    #[test]
    fn with_store_preseeds_stored_pairs_and_rebatches_misses() {
        let chains = tiny_profile().generate(4);
        let binding = scratch_binding("preseed", &chains);
        // Precompute a third of the workload into the store.
        let cache = rckalign::PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
        let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
        let stored = &jobs[..jobs.len() / 3];
        cache.prefill(stored, 2);
        let master = Master::bind(chains, MasterConfig::default())
            .unwrap()
            .with_store(Arc::clone(&binding));
        let work = master.shared.work.lock().unwrap();
        assert_eq!(
            work.done.len(),
            stored.len(),
            "stored pairs accepted up front"
        );
        assert_eq!(work.outcomes.len(), stored.len());
        let queued: usize = work.queue.iter().map(|b| b.len()).sum();
        assert_eq!(queued, jobs.len() - stored.len(), "only misses staged");
        assert!(!work.finished);
    }

    #[test]
    fn fully_stored_workload_finishes_without_any_worker() {
        let chains = tiny_profile().generate(5);
        let binding = scratch_binding("full", &chains);
        let cache = rckalign::PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
        let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
        cache.prefill(&jobs, 4);
        let expected: Vec<PairOutcome> = jobs.iter().map(|j| cache.get_or_compute(j)).collect();
        let master = Master::bind(chains, MasterConfig::default())
            .unwrap()
            .with_store(binding);
        // No worker ever connects; the store satisfies everything.
        let run = master.run().unwrap();
        assert_eq!(run.outcomes.len(), jobs.len());
        for (got, want) in run.outcomes.iter().zip(&expected) {
            assert_eq!((got.i, got.j), (want.i, want.j));
            assert_eq!(got.similarity.to_bits(), want.similarity.to_bits());
            assert_eq!(got.ops, want.ops);
        }
        assert_eq!(run.stats.jobs_dispatched, 0, "nothing hit the wire");
    }

    #[test]
    fn feed_mode_completes_tiles_over_a_memnet_worker() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(6);
        let n = chains.len();
        let cfg = MasterConfig {
            batch_size: 4,
            ..MasterConfig::default()
        };
        let net = MemNet::new();
        let (master, feed, tiles_rx) = Master::bind_feed_on(net.listener(), cfg);
        let run_thread = std::thread::spawn(move || master.run());
        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let mut wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            wcfg.heartbeat_interval = Duration::from_millis(40);
            run_worker_conn(worker_conn, &wcfg)
        });

        let tiles = rckalign::tile_partition(n, 3);
        assert!(tiles.len() >= 2, "want multiple tiles in the feed");
        for t in &tiles {
            let jobs = t.jobs(MethodKind::TmAlign);
            let grant = proto::build_tile_grant(t.id, jobs, &chains);
            feed.submit_tile(grant.tile_id, grant.chains, grant.jobs);
        }

        // Every tile completes, each exactly once, with sorted outcomes.
        let mut seen = HashSet::new();
        let mut tile_results = Vec::new();
        for _ in 0..tiles.len() {
            let done = tiles_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("tile completion");
            assert!(seen.insert(done.tile_id), "tile completed twice");
            assert!(done
                .outcomes
                .windows(2)
                .all(|w| (w[0].i, w[0].j) < (w[1].i, w[1].j)));
            tile_results.push(done.outcomes);
        }
        feed.close();
        let run = run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();

        // The fed master's merged result is bit-identical to the
        // in-process reference over the same dataset.
        let cache = rckalign::PairCache::new(chains.clone());
        let expected =
            rckalign::run_all_vs_all(&cache, &rckalign::RckAlignOptions::paper(2)).outcomes;
        let want = crate::chaos::outcomes_fingerprint(&expected);
        assert_eq!(run.matrix.len(), n);
        assert_eq!(crate::chaos::outcomes_fingerprint(&run.outcomes), want);
        assert_eq!(
            run.matrix,
            SimilarityMatrix::from_outcomes(n, &expected),
            "fed matrix diverges from single-process reference"
        );
        // And so is merge-on-read over the streamed tiles.
        let merged: Vec<PairOutcome> = rckalign::merge_outcomes(tile_results);
        assert_eq!(crate::chaos::outcomes_fingerprint(&merged), want);
    }

    #[test]
    fn feed_mode_answers_duplicate_tiles_from_accepted_outcomes() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(7);
        let net = MemNet::new();
        let (master, feed, tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let run_thread = std::thread::spawn(move || master.run());
        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(worker_conn, &wcfg)
        });

        let tile = &rckalign::tile_partition(chains.len(), 4)[0];
        let grant = proto::build_tile_grant(tile.id, tile.jobs(MethodKind::TmAlign), &chains);
        feed.submit_tile(grant.tile_id, grant.chains.clone(), grant.jobs.clone());
        let first = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first completion");

        // Re-granting the same tile (a steal race) is answered from the
        // accepted outcomes without dispatching anything new.
        let dispatched_before = feed.stats().snapshot().jobs_dispatched;
        feed.submit_tile(grant.tile_id, grant.chains, grant.jobs);
        let second = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("duplicate completion");
        assert_eq!(feed.stats().snapshot().jobs_dispatched, dispatched_before);
        assert_eq!(first.outcomes.len(), second.outcomes.len());
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
        }

        feed.close();
        run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();
    }

    #[test]
    fn feed_mode_merges_a_regrant_of_a_still_pending_tile() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(8);
        let net = MemNet::new();
        let (master, feed, tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let run_thread = std::thread::spawn(move || master.run());

        // Grant the same tile twice *before* any worker exists, so every
        // pair is still pending when the re-grant (a frontend deadline
        // requeue handing the orphan back to its original holder)
        // arrives. The old behaviour answered the re-grant immediately
        // with an empty outcome set — a partial TileResult that got the
        // master killed upstream.
        let tile = &rckalign::tile_partition(chains.len(), 4)[0];
        let grant = proto::build_tile_grant(tile.id, tile.jobs(MethodKind::TmAlign), &chains);
        let n_jobs = grant.jobs.len();
        feed.submit_tile(grant.tile_id, grant.chains.clone(), grant.jobs.clone());
        feed.submit_tile(grant.tile_id, grant.chains, grant.jobs);
        assert!(
            tiles_rx.try_recv().is_err(),
            "no TileDone may fire while every pair is pending"
        );

        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(worker_conn, &wcfg)
        });

        // Both grants are answered, each with the complete outcome set.
        let first = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first grant answered");
        let second = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("re-grant answered too");
        for done in [&first, &second] {
            assert_eq!(done.tile_id, tile.id);
            assert_eq!(done.outcomes.len(), n_jobs, "complete answer");
        }
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
        }

        feed.close();
        let run = run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();
        assert_eq!(run.outcomes.len(), n_jobs, "each pair computed once");
    }

    #[test]
    fn feed_mode_with_empty_feed_finishes_on_close() {
        use crate::transport::MemNet;
        let net = MemNet::new();
        let (master, feed, _tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let t = std::thread::spawn(move || master.run());
        feed.close();
        let run = t.join().unwrap().expect("empty feed finishes");
        assert!(run.outcomes.is_empty());
        assert_eq!(run.matrix.len(), 0);
    }

    #[test]
    fn a_finished_run_returns_without_waiting_out_a_monitor_tick() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        // A 10 s heartbeat window makes the monitor tick 2.5 s; a monitor
        // that slept its tick out would hold `run` that long after the
        // last result.
        let mut chains = tiny_profile().generate(9);
        chains.truncate(3);
        let cfg = MasterConfig {
            heartbeat_timeout: Duration::from_secs(10),
            ..MasterConfig::default()
        };
        let net = MemNet::new();
        let master = Master::bind_on(net.listener(), chains, cfg);
        let conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(conn, &wcfg)
        });
        let started = Instant::now();
        let run = master.run().expect("run completes");
        let took = started.elapsed();
        let _ = worker.join();
        assert_eq!(run.outcomes.len(), 3);
        assert!(took < Duration::from_secs(1), "run returned after {took:?}");
    }

    #[test]
    fn abort_fails_a_run_with_no_workers() {
        let chains = tiny_profile().generate(2);
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        let abort = master.abort_handle();
        let t = std::thread::spawn(move || master.run());
        std::thread::sleep(Duration::from_millis(30));
        abort.abort();
        let err = t
            .join()
            .unwrap()
            .expect_err("aborted run must not return a matrix");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }
}
