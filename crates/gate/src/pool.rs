//! The gate's worker pool: the worker plane of the serving tier.
//!
//! Pool workers are the *unchanged* rck-serve workers
//! ([`rck_serve::run_worker_conn`]): they handshake, receive
//! self-contained [`rck_serve::proto::JobBatch`]s and answer with
//! [`rck_serve::proto::ResultBatch`]s, never knowing whether a batch
//! came from an offline all-vs-all master or from a query run. The
//! gate-side handler keeps its in-flight batches in the master's
//! [`rck_serve::lease::LeaseTable`] — connection-loss and heartbeat-deadline requeue,
//! exact-answer acceptance, per-pair dedup — because the serving tier
//! inherits the same promise: the outcomes that reach a ranking are
//! bit-identical to an in-process run, no matter how many workers die.
//!
//! The one scheduling difference from the master: the next batch is not
//! `queue.pop_front()` but a two-step pick — the stride scheduler
//! ([`crate::sched`]) chooses a *tenant*, then that tenant's runs are
//! round-robined — which is what makes the farm's capacity weighted-fair
//! under multi-tenant contention.

use crate::{build_query_batch, GateShared, GateState};
use rck_serve::lease::{Lease, Verdict};
use rck_serve::proto::{self, Frame, ResultBatch, Welcome};
use rck_serve::transport::Conn;
use rck_serve::MutexExt;
use rckalign::PairJob;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

enum BatchFate {
    /// Result accepted (or counted stale) — dispatch the next batch.
    Continue,
    /// Connection gone or worker refused: end the session.
    Lost,
}

/// Per-connection handler for one pool worker: handshake, then
/// dispatch/collect until the gate stops or the worker is lost.
pub(crate) fn serve_pool_worker(shared: &GateShared, mut conn: Box<dyn Conn>) {
    let _ = conn.set_read_timeout(Some(shared.cfg.heartbeat_timeout * 2));
    let worker_id = match handshake(shared, &mut conn) {
        Some(id) => id,
        None => {
            conn.shutdown();
            return;
        }
    };
    {
        let mut state = shared.state.lock_recover();
        if let Ok(clone) = conn.try_clone() {
            state.worker_streams.insert(worker_id, clone);
        }
    }

    let lost = loop {
        let Some((batch_id, jobs, query_chain)) = next_query_batch(shared, worker_id) else {
            // Gate stopping or drained: orderly goodbye (best-effort).
            let _ = proto::write_frame(&mut conn, &Frame::Shutdown);
            break false;
        };
        let frame = Frame::JobBatch(build_query_batch(batch_id, jobs, &shared.db, &query_chain));
        if proto::write_frame(&mut conn, &frame).is_err() {
            break true;
        }
        if let BatchFate::Lost = collect_result(shared, &mut conn, worker_id) {
            break true;
        }
    };

    let mut state = shared.state.lock_recover();
    state.worker_streams.remove(&worker_id);
    // A lost worker's batches go back to their runs; it counts as lost
    // only if the deadline monitor has not requeued them first.
    let held = if lost {
        state.leases.lose(worker_id)
    } else {
        Vec::new()
    };
    if !held.is_empty() {
        requeue(&mut state, shared, held);
        shared.stats.on_worker_lost();
        shared.work_available.notify_all();
    }
    drop(state);
    conn.shutdown();
}

/// Exchange Hello/Welcome on the worker plane. `n_chains` covers the
/// database plus the query's virtual index, so every chain index a
/// batch can carry is in range.
fn handshake(shared: &GateShared, conn: &mut Box<dyn Conn>) -> Option<u32> {
    let (_, name) = proto::read_hello(conn, |e| {
        shared.stats.on_decode_error();
        eprintln!("[rck-gate] worker handshake decode error: {e}");
    })?;
    name?;
    let worker_id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let welcome = Frame::Welcome(Welcome {
        worker_id,
        n_chains: shared.db.len() as u32 + 1,
    });
    proto::write_frame(conn, &welcome).ok()?;
    shared.stats.on_worker_connected();
    shared.work_available.notify_all();
    Some(worker_id)
}

/// Claim the next batch for `worker_id`: stride-pick a tenant, then
/// round-robin that tenant's runs. Returns the batch plus the owning
/// run's query chain (needed to build the self-contained job batch), or
/// `None` once the gate is stopping or drained.
fn next_query_batch(
    shared: &GateShared,
    worker_id: u32,
) -> Option<(u64, Vec<PairJob>, rck_pdb::model::CaChain)> {
    let mut state = shared.state.lock_recover();
    loop {
        if shared.stopped.load(Ordering::SeqCst) || shared.drained(&state) {
            return None;
        }
        if let Some(tenant) = state.sched.pick() {
            if let Some(claim) = claim_tenant_batch(&mut state, &tenant, worker_id, shared) {
                shared.stats.set_queue_depth(state.sched.total_backlog());
                return Some(claim);
            }
            // Stale pick (the tenant's runs were requeued or completed
            // between backlog accounting and now) — try again.
            continue;
        }
        let (guard, _timeout) = shared
            .work_available
            .wait_timeout(state, Duration::from_millis(50))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = guard;
    }
}

/// Pop the next pending batch of `tenant`'s least-recently-served run
/// and lease it to `worker_id`.
fn claim_tenant_batch(
    state: &mut GateState,
    tenant: &str,
    worker_id: u32,
    shared: &GateShared,
) -> Option<(u64, Vec<PairJob>, rck_pdb::model::CaChain)> {
    let queue = state.tenant_runs.get_mut(tenant)?;
    let mut claimed = None;
    while let Some(run_id) = queue.pop_front() {
        let Some(run) = state.runs.get_mut(&run_id) else {
            continue; // completed run; stale round-robin entry
        };
        let Some(jobs) = run.pending.pop_front() else {
            continue; // fully dispatched run; stale entry
        };
        if !run.pending.is_empty() {
            queue.push_back(run_id);
        }
        claimed = Some((run_id, jobs, run.chain.clone()));
        break;
    }
    let (run_id, jobs, chain) = claimed?;
    let batch_id = state
        .leases
        .grant(run_id, jobs.clone(), worker_id, Instant::now());
    shared.stats.on_jobs_dispatched(tenant, jobs.len());
    Some((batch_id, jobs, chain))
}

/// Read frames until the outstanding batch is answered (heartbeats
/// refresh the deadline along the way) or the connection dies.
fn collect_result(shared: &GateShared, conn: &mut Box<dyn Conn>, worker_id: u32) -> BatchFate {
    loop {
        match proto::read_frame(conn) {
            Ok((frame, _)) => match frame {
                Frame::Heartbeat(_) => {
                    let mut state = shared.state.lock_recover();
                    state.leases.refresh(worker_id, Instant::now());
                }
                Frame::ResultBatch(rb) => return accept_results(shared, worker_id, rb),
                _ => return BatchFate::Lost,
            },
            Err(e) => {
                if e.is_decode_error() {
                    shared.stats.on_decode_error();
                    eprintln!("[rck-gate] worker {worker_id}: decode error: {e}");
                }
                return BatchFate::Lost;
            }
        }
    }
}

/// Accept a result frame under the same three guards as the batch
/// master: the batch must still be in flight, its outcomes must answer
/// exactly its jobs, and each `(i, j, method)` is accepted once per run.
fn accept_results(shared: &GateShared, worker_id: u32, rb: ResultBatch) -> BatchFate {
    let mut state = shared.state.lock_recover();
    let GateState { leases, runs, .. } = &mut *state;
    let verdict = leases.accept(
        rb.batch_id,
        rb.outcomes,
        |run_id, o| {
            runs.get(run_id)
                .is_some_and(|run| !run.done.contains(&(o.i, o.j, o.method.code())))
        },
        Instant::now(),
    );
    let (run_id, fresh) = match verdict {
        // Requeue race: another worker already answered. Late copy is
        // worthless but harmless.
        Verdict::Stale => {
            shared.stats.on_stale_result();
            return BatchFate::Continue;
        }
        Verdict::Mismatched(lease) => {
            // Byzantine or desynced worker: requeue, refuse, disconnect.
            requeue(&mut state, shared, vec![lease]);
            drop(state);
            eprintln!(
                "[rck-gate] worker {worker_id}: result frame for batch {} does not answer its jobs",
                rb.batch_id
            );
            shared.stats.on_mismatched_result();
            shared.stats.on_worker_lost();
            shared.work_available.notify_all();
            return BatchFate::Lost;
        }
        Verdict::Accepted {
            tag,
            fresh,
            duplicates,
            ..
        } => {
            shared.stats.on_duplicate_results(duplicates);
            (tag, fresh)
        }
    };
    let Some(run) = state.runs.get_mut(&run_id) else {
        // The run completed via a requeued copy of this same batch.
        return BatchFate::Continue;
    };
    for o in &fresh {
        run.done.insert((o.i, o.j, o.method.code()));
        run.outcomes.push(*o);
    }
    shared.stats.on_jobs_completed(fresh.len());
    if !fresh.is_empty() {
        if !run.first_result_seen {
            run.first_result_seen = true;
            shared
                .stats
                .on_first_result(run.started_at.elapsed().as_secs_f64());
        }
        let partial_done = run.done.len() as u32;
        let partial_total = run.total_jobs as u32;
        for sub in &run.subscribers {
            shared.stats.on_partial();
            sub.outbox.push(Frame::QueryPartial(proto::QueryPartial {
                query_id: sub.query_id,
                done: partial_done,
                total: partial_total,
                outcomes: fresh.clone(),
            }));
        }
    }
    if run.done.len() == run.total_jobs {
        complete_run(&mut state, shared, run_id);
    }
    drop(state);
    shared.work_available.notify_all();
    BatchFate::Continue
}

/// Fold a finished run's outcomes into the final ranking, stream the
/// terminal [`rck_serve::proto::QueryDone`] to every subscriber, and
/// retire the run.
fn complete_run(state: &mut GateState, shared: &GateShared, run_id: u64) {
    let Some(run) = state.runs.remove(&run_id) else {
        return;
    };
    state.coalesce.remove(&run.query_hash);
    if let Some(binding) = shared.store.lock_recover().as_ref() {
        // Persist the run's outcomes under (db chain, query content)
        // keys. `o.j` is the query's *virtual* index, so the key's second
        // half comes from the run's content hash, not the binding; the
        // store's idempotence skips the pairs it satisfied at submission.
        for o in &run.outcomes {
            let key = binding.key_for(binding.hash_of(o.i as usize), run.content_hash, o.method);
            binding.record_key(key, o);
        }
    }
    let ranking = crate::ranking_from_outcomes(
        shared.db.len(),
        &run.outcomes,
        &run.methods,
        shared.cfg.combiner,
    );
    for sub in &run.subscribers {
        sub.outbox.push(Frame::QueryDone(proto::QueryDone {
            query_id: sub.query_id,
            ranking: ranking.clone(),
        }));
    }
    shared
        .stats
        .on_query_completed(run.started_at.elapsed().as_secs_f64());
}

/// Put retired leases back at the front of their runs' queues.
fn requeue(state: &mut GateState, shared: &GateShared, leases: Vec<Lease<u64>>) {
    for lease in leases {
        let Some(run) = state.runs.get_mut(&lease.tag) else {
            continue;
        };
        shared.stats.on_jobs_requeued(lease.jobs.len());
        run.pending.push_front(lease.jobs);
        let tenant = run.tenant.clone();
        state.sched.add_backlog(&tenant, 1);
        state
            .tenant_runs
            .entry(tenant)
            .or_default()
            .push_back(lease.tag);
    }
    shared.stats.set_queue_depth(state.sched.total_backlog());
}

/// Deadline monitor: requeue batches whose worker went silent, shut the
/// worker's connection so its handler's blocking read returns, and keep
/// going until the gate stops or drains dry. It waits on the work
/// condvar between ticks, so stop and drain wake it at once.
pub(crate) fn monitor_deadlines(shared: &Arc<GateShared>) {
    let tick = (shared.cfg.heartbeat_timeout / 4).max(Duration::from_millis(5));
    let mut state = shared.state.lock_recover();
    while !(shared.stopped.load(Ordering::SeqCst) || shared.drained(&state)) {
        // An overdue batch means its worker went silent: every batch it
        // holds goes back, not just the overdue one.
        let mut overdue = state.leases.expire(Instant::now());
        let silent: BTreeSet<u32> = overdue.iter().map(|l| l.holder).collect();
        for &worker_id in &silent {
            overdue.extend(state.leases.lose(worker_id));
            shared.stats.on_worker_lost();
            if let Some(conn) = state.worker_streams.get(&worker_id) {
                conn.shutdown();
            }
        }
        if !overdue.is_empty() {
            requeue(&mut state, shared, overdue);
            shared.work_available.notify_all();
        }
        state = shared
            .work_available
            .wait_timeout(state, tick)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
    drop(state);
    shared.work_available.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Outbox;
    use crate::{Gate, GateConfig};
    use rck_pdb::datasets::tiny_profile;
    use rck_serve::proto::QuerySubmit;
    use rck_serve::MemNet;
    use rck_tmalign::MethodKind;

    /// A worker answering the wrong jobs is refused: nothing reaches the
    /// run, the batch is requeued, the worker is lost. A later answer to
    /// that retired batch — even a correct one — is counted stale.
    #[test]
    fn byzantine_results_are_requeued_not_accepted() {
        let db = tiny_profile().generate(3);
        let gate = Gate::bind_on(
            MemNet::new().listener(),
            MemNet::new().listener(),
            db,
            GateConfig {
                batch_size: 64,
                ..GateConfig::default()
            },
        );
        let shared = Arc::clone(&gate.shared);
        let outbox = Outbox::new();
        crate::submit_query(
            &shared,
            QuerySubmit {
                tenant: "t".into(),
                query_id: 1,
                weight: 1,
                methods: vec![MethodKind::TmAlign],
                chain: tiny_profile().generate(4)[0].clone(),
            },
            &outbox,
        );
        let (batch_id, jobs, _chain) = next_query_batch(&shared, 0).expect("one batch staged");
        let alien = rckalign::PairOutcome {
            i: 1000,
            j: 1001,
            method: MethodKind::TmAlign,
            similarity: 1.0,
            rmsd: 0.0,
            aligned_len: 1,
            ops: 1,
        };
        let fate = accept_results(
            &shared,
            0,
            ResultBatch {
                batch_id,
                outcomes: vec![alien; jobs.len()],
            },
        );
        assert!(matches!(fate, BatchFate::Lost));
        let state = shared.state.lock_recover();
        let run = state.runs.values().next().expect("run survives");
        assert!(run.outcomes.is_empty(), "alien outcomes must not land");
        assert_eq!(run.pending.len(), 1, "batch requeued");
        drop(state);
        assert_eq!(shared.stats.jobs_requeued(), jobs.len() as u64);
        assert_eq!(shared.stats.snapshot().mismatched_results, 1);

        let exact = jobs
            .iter()
            .map(|j| rckalign::PairOutcome {
                i: j.i,
                j: j.j,
                method: j.method,
                ..alien
            })
            .collect();
        let fate = accept_results(
            &shared,
            1,
            ResultBatch {
                batch_id,
                outcomes: exact,
            },
        );
        assert!(matches!(fate, BatchFate::Continue));
        let snap = shared.stats.snapshot();
        assert_eq!((snap.stale_results, snap.jobs_completed), (1, 0));
        let state = shared.state.lock_recover();
        assert!(state.runs.values().all(|r| r.outcomes.is_empty()));
    }
}
