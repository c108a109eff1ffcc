//! The work-lease ledger: the one sans-IO record of which work is out on
//! which holder, behind the batch master, the gate's worker pool and the
//! shard frontend. It has no threads, clocks, sockets or locks — callers
//! keep it under their own mutex beside their own queue, pass `now` in,
//! and requeue what it hands back with their own pick policy. Each job
//! granted is settled exactly once (completed, duplicate or requeued), so
//! `dispatched == completed + duplicates + requeued + in-flight` always
//! holds ([`LeaseCounts`]).

use crate::proto::answers_exactly;
use rckalign::{PairJob, PairOutcome};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One grant's id (the batch id on the wire); never reused, so an answer
/// to a retired lease cannot settle a later one.
pub type LeaseId = u64;

/// Work granted to one holder and not yet answered.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease<T> {
    /// The caller's label: the gate's run id, the frontend's tile id.
    pub tag: T,
    /// The jobs the holder must answer, exactly.
    pub jobs: Vec<PairJob>,
    /// The worker or shard master holding the lease.
    pub holder: u32,
    granted_at: Instant,
    deadline: Option<Instant>,
}

/// What [`LeaseTable::accept`] made of an answer.
#[derive(Debug, PartialEq)]
pub enum Verdict<T> {
    /// The lease is not in flight (answered, requeued or never granted).
    Stale,
    /// The outcomes do not answer the lease's jobs exactly: none may be
    /// used, and the retired lease is handed back to requeue.
    Mismatched(Lease<T>),
    /// The lease is settled.
    Accepted {
        /// The lease's tag.
        tag: T,
        /// Outcomes whose key was not done yet, in answer order.
        fresh: Vec<PairOutcome>,
        /// How many outcomes had a key already done.
        duplicates: usize,
        /// Grant-to-answer time.
        rtt: Duration,
    },
}

/// Job counts behind the identity
/// `dispatched == completed + duplicates + requeued + in_flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseCounts {
    /// Jobs granted, counting re-grants.
    pub dispatched: u64,
    /// Jobs accepted with a fresh key.
    pub completed: u64,
    /// Jobs accepted whose key was already done.
    pub duplicates: u64,
    /// Jobs handed back by expiry, holder loss or a mismatched answer.
    pub requeued: u64,
}

/// The ledger of in-flight work (see the module docs).
#[derive(Debug)]
pub struct LeaseTable<T> {
    leases: BTreeMap<LeaseId, Lease<T>>,
    next_id: LeaseId,
    heartbeat: Option<Duration>,
    cap: Option<Duration>,
    counts: LeaseCounts,
}

impl<T> LeaseTable<T> {
    /// An empty table. A lease is due one `heartbeat` window after its
    /// grant or last refresh, but never later than `cap` after its
    /// grant; with neither set, leases end only by answer or loss.
    pub fn new(heartbeat: Option<Duration>, cap: Option<Duration>) -> LeaseTable<T> {
        LeaseTable {
            leases: BTreeMap::new(),
            next_id: 0,
            heartbeat,
            cap,
            counts: LeaseCounts::default(),
        }
    }

    /// Book `jobs` to `holder` and return the new lease's id.
    pub fn grant(&mut self, tag: T, jobs: Vec<PairJob>, holder: u32, now: Instant) -> LeaseId {
        let id = self.next_id;
        self.next_id += 1;
        self.counts.dispatched += jobs.len() as u64;
        let deadline = due(self.heartbeat, self.cap, now, now);
        self.leases.insert(
            id,
            Lease {
                tag,
                jobs,
                holder,
                granted_at: now,
                deadline,
            },
        );
        id
    }

    /// A heartbeat from `holder` moves its deadlines to one window from
    /// `now`, never past the cap: a heartbeat proves the holder alive, not
    /// that lost job or result frames will ever arrive.
    pub fn refresh(&mut self, holder: u32, now: Instant) {
        let (heartbeat, cap) = (self.heartbeat, self.cap);
        for lease in self.leases.values_mut().filter(|l| l.holder == holder) {
            lease.deadline = due(heartbeat, cap, lease.granted_at, now);
        }
    }

    /// Judge `outcomes` as the answer to lease `id`. `is_new` tells whether
    /// an outcome's key is not done yet; the caller owns the done set and
    /// records the fresh outcomes. A lease's jobs are distinct, so keys do
    /// not repeat within one answer.
    pub fn accept(
        &mut self,
        id: LeaseId,
        outcomes: Vec<PairOutcome>,
        mut is_new: impl FnMut(&T, &PairOutcome) -> bool,
        now: Instant,
    ) -> Verdict<T> {
        let Some(lease) = self.leases.remove(&id) else {
            return Verdict::Stale;
        };
        if !answers_exactly(&lease.jobs, &outcomes) {
            self.counts.requeued += lease.jobs.len() as u64;
            return Verdict::Mismatched(lease);
        }
        let (fresh, dups): (Vec<PairOutcome>, Vec<PairOutcome>) =
            outcomes.into_iter().partition(|o| is_new(&lease.tag, o));
        self.counts.completed += fresh.len() as u64;
        self.counts.duplicates += dups.len() as u64;
        Verdict::Accepted {
            tag: lease.tag,
            fresh,
            duplicates: dups.len(),
            rtt: now.saturating_duration_since(lease.granted_at),
        }
    }

    /// Retire every lease due at or before `now`, to be requeued.
    pub fn expire(&mut self, now: Instant) -> Vec<Lease<T>> {
        self.retire(|l| l.deadline.is_some_and(|d| d <= now))
    }

    /// Retire every lease `holder` holds, to be requeued.
    pub fn lose(&mut self, holder: u32) -> Vec<Lease<T>> {
        self.retire(|l| l.holder == holder)
    }

    /// The leases in flight, oldest grant first.
    pub fn iter(&self) -> impl Iterator<Item = (LeaseId, &Lease<T>)> {
        self.leases.iter().map(|(&id, l)| (id, l))
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// Jobs currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.leases.values().map(|l| l.jobs.len() as u64).sum()
    }

    /// The ledger's job counts so far.
    pub fn counts(&self) -> LeaseCounts {
        self.counts
    }

    fn retire(&mut self, mut pred: impl FnMut(&Lease<T>) -> bool) -> Vec<Lease<T>> {
        let gone: Vec<Lease<T>> = self
            .leases
            .extract_if(.., |_, l| pred(l))
            .map(|(_, l)| l)
            .collect();
        self.counts.requeued += gone.iter().map(|l| l.jobs.len() as u64).sum::<u64>();
        gone
    }
}

/// The earlier of one heartbeat window from `now` and the cap since
/// `granted_at`; `None` when neither bound is set.
fn due(
    heartbeat: Option<Duration>,
    cap: Option<Duration>,
    granted_at: Instant,
    now: Instant,
) -> Option<Instant> {
    let window = heartbeat.map(|h| now + h);
    window.into_iter().chain(cap.map(|c| granted_at + c)).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_tmalign::MethodKind;
    use std::collections::{BTreeMap, HashSet, VecDeque};

    const HEARTBEAT: Duration = Duration::from_millis(100);
    const CAP: Duration = Duration::from_millis(250);

    fn job(k: u32) -> PairJob {
        PairJob {
            i: k,
            j: k + 1,
            method: MethodKind::TmAlign,
        }
    }

    fn answer(jobs: &[PairJob]) -> Vec<PairOutcome> {
        jobs.iter()
            .map(|j| PairOutcome {
                i: j.i,
                j: j.j,
                method: j.method,
                similarity: 0.5,
                rmsd: 1.0,
                aligned_len: 3,
                ops: 7,
            })
            .collect()
    }

    #[test]
    fn heartbeats_extend_deadlines_only_up_to_the_cap() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut table = LeaseTable::new(Some(HEARTBEAT), Some(CAP));
        table.grant((), vec![job(0)], 7, t0);
        assert!(table.expire(ms(99)).is_empty());
        table.refresh(7, ms(90));
        assert!(table.expire(ms(189)).is_empty(), "refreshed to 190ms");
        table.refresh(7, ms(180));
        assert!(table.expire(ms(249)).is_empty());
        assert_eq!(table.expire(ms(250)).len(), 1, "capped at 250ms");

        let mut untimed = LeaseTable::new(None, None);
        untimed.grant((), vec![job(0)], 7, t0);
        assert!(untimed.expire(ms(1_000_000)).is_empty());
    }

    #[test]
    fn dedup_splits_fresh_from_duplicate_keys_and_keeps_the_identity() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(None, None);
        let jobs = vec![job(0), job(1), job(2)];
        let id = table.grant("run", jobs.clone(), 1, t0);
        let done: HashSet<u32> = HashSet::from([1]);
        let later = t0 + Duration::from_millis(5);
        let verdict = table.accept(
            id,
            answer(&jobs),
            |tag, o| *tag == "run" && !done.contains(&o.i),
            later,
        );
        let Verdict::Accepted {
            tag,
            fresh,
            duplicates,
            rtt,
        } = verdict
        else {
            panic!("exact answer refused: {verdict:?}");
        };
        assert_eq!((tag, duplicates, rtt), ("run", 1, Duration::from_millis(5)));
        assert_eq!(fresh.iter().map(|o| o.i).collect::<Vec<_>>(), vec![0, 2]);
        let c = table.counts();
        assert_eq!(
            (c.dispatched, c.completed, c.duplicates, c.requeued),
            (3, 2, 1, 0)
        );
        assert_eq!(
            table.accept(id, answer(&jobs), |_, _| true, later),
            Verdict::Stale
        );
    }

    /// SplitMix64: a seeded stream with no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// What the ledger should hold: holder, jobs, grant time, deadline.
    type Model = BTreeMap<LeaseId, (u32, Vec<PairJob>, Instant, Instant)>;

    /// Check that the ledger retired exactly the `expect`ed leases, then
    /// requeue them.
    fn settle(
        queue: &mut VecDeque<Vec<PairJob>>,
        model: &mut Model,
        gone: Vec<Lease<()>>,
        expect: Vec<LeaseId>,
        (seed, step, what): (u64, usize, &str),
    ) {
        let mut got: Vec<Vec<PairJob>> = gone.into_iter().map(|l| l.jobs).collect();
        let mut want: Vec<Vec<PairJob>> = expect
            .iter()
            .filter_map(|id| model.remove(id))
            .map(|m| m.1)
            .collect();
        got.sort_by_key(|jobs| jobs[0].i);
        want.sort_by_key(|jobs| jobs[0].i);
        assert_eq!(
            got, want,
            "seed {seed} step {step}: {what} retired the wrong leases"
        );
        queue.extend(got);
    }

    const JOBS: u32 = 7;
    const HOLDERS: usize = 3;

    /// One random schedule of grant / accept / late or duplicate accept /
    /// wrong-jobs accept / refresh / expire / lose over a few holders and
    /// jobs, checking the ledger against a model after every step.
    fn run_schedule(seed: u64) {
        let mut rng = SplitMix(seed);
        let t0 = Instant::now();
        let mut now = t0;
        let mut table: LeaseTable<()> = LeaseTable::new(Some(HEARTBEAT), Some(CAP));
        let mut queue: VecDeque<Vec<PairJob>> = VecDeque::new();
        let mut k = 0;
        while k < JOBS {
            let n = (1 + rng.below(3) as u32).min(JOBS - k);
            queue.push_back((k..k + n).map(job).collect());
            k += n;
        }
        let mut model = Model::new();
        let mut granted: Vec<(LeaseId, Vec<PairJob>)> = Vec::new();
        let mut done: HashSet<u32> = HashSet::new();

        for step in 0..200 {
            let live: Vec<LeaseId> = model.keys().copied().collect();
            let pick_live =
                |rng: &mut SplitMix| (!live.is_empty()).then(|| live[rng.below(live.len())]);
            match rng.below(7) {
                0 => {
                    if let Some(jobs) = queue.pop_front() {
                        let holder = rng.below(HOLDERS) as u32;
                        let id = table.grant((), jobs.clone(), holder, now);
                        model.insert(
                            id,
                            (holder, jobs.clone(), now, (now + HEARTBEAT).min(now + CAP)),
                        );
                        granted.push((id, jobs));
                    }
                }
                1 => {
                    if let Some(id) = pick_live(&mut rng) {
                        let jobs = model.remove(&id).unwrap().1;
                        match table.accept(id, answer(&jobs), |_, o| !done.contains(&o.i), now) {
                            Verdict::Accepted {
                                fresh, duplicates, ..
                            } => {
                                assert_eq!(
                                    (fresh.len(), duplicates),
                                    (jobs.len(), 0),
                                    "seed {seed} step {step}"
                                );
                                done.extend(fresh.iter().map(|o| o.i));
                            }
                            v => panic!("seed {seed} step {step}: exact answer judged {v:?}"),
                        }
                    }
                }
                2 => {
                    // A late or duplicated answer to a retired lease.
                    if !granted.is_empty() {
                        let (id, jobs) = granted[rng.below(granted.len())].clone();
                        if !model.contains_key(&id) {
                            let v = table.accept(id, answer(&jobs), |_, _| true, now);
                            assert_eq!(
                                v,
                                Verdict::Stale,
                                "seed {seed} step {step}: retired lease {id} accepted"
                            );
                        }
                    }
                }
                3 => {
                    if let Some(id) = pick_live(&mut rng) {
                        let mut wrong = answer(&model[&id].1);
                        wrong[0].i += 100;
                        match table.accept(id, wrong, |_, _| true, now) {
                            Verdict::Mismatched(lease) => settle(
                                &mut queue,
                                &mut model,
                                vec![lease],
                                vec![id],
                                (seed, step, "mismatch"),
                            ),
                            v => panic!("seed {seed} step {step}: wrong answer judged {v:?}"),
                        }
                    }
                }
                4 => {
                    let holder = rng.below(HOLDERS) as u32;
                    table.refresh(holder, now);
                    for m in model.values_mut().filter(|m| m.0 == holder) {
                        m.3 = (now + HEARTBEAT).min(m.2 + CAP);
                    }
                }
                5 => {
                    now += Duration::from_millis(rng.below(120) as u64);
                    let gone = table.expire(now);
                    let due: Vec<LeaseId> = model
                        .iter()
                        .filter(|(_, m)| m.3 <= now)
                        .map(|(&id, _)| id)
                        .collect();
                    settle(&mut queue, &mut model, gone, due, (seed, step, "expire"));
                }
                _ => {
                    let holder = rng.below(HOLDERS) as u32;
                    let gone = table.lose(holder);
                    let its: Vec<LeaseId> = model
                        .iter()
                        .filter(|(_, m)| m.0 == holder)
                        .map(|(&id, _)| id)
                        .collect();
                    settle(&mut queue, &mut model, gone, its, (seed, step, "lose"));
                }
            }

            let c = table.counts();
            assert_eq!(
                c.dispatched,
                c.completed + c.duplicates + c.requeued + table.in_flight(),
                "seed {seed} step {step}: accounting identity broken: {c:?}"
            );
            let leased: Vec<(LeaseId, u32, Vec<PairJob>)> = table
                .iter()
                .map(|(id, l)| (id, l.holder, l.jobs.clone()))
                .collect();
            let modelled: Vec<(LeaseId, u32, Vec<PairJob>)> = model
                .iter()
                .map(|(&id, m)| (id, m.0, m.1.clone()))
                .collect();
            assert_eq!(
                leased, modelled,
                "seed {seed} step {step}: ledger diverged from the model"
            );
            for k in 0..JOBS {
                let places = queue.iter().flatten().filter(|j| j.i == k).count()
                    + leased
                        .iter()
                        .flat_map(|l| &l.2)
                        .filter(|j| j.i == k)
                        .count()
                    + usize::from(done.contains(&k));
                assert_eq!(
                    places, 1,
                    "seed {seed} step {step}: job {k} is in {places} of queued/leased/done"
                );
            }
        }
    }

    #[test]
    fn random_interleavings_keep_the_ledger_consistent() {
        for seed in 0..300 {
            run_schedule(seed);
        }
    }
}
