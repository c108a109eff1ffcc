//! Pass 5: the batch-lifecycle model checker.
//!
//! The master's requeue/dedup logic promises an accounting identity —
//! every dispatched job is eventually counted exactly once as
//! completed, duplicate, or requeued — and the chaos harness asserts it
//! *per run*. This pass proves it *per reachable state*: a small
//! abstract model of the batch lifecycle (dispatch, result delivery,
//! duplicated late delivery, heartbeat, timeout + requeue, abort) is
//! exhaustively enumerated and two invariants are checked in every
//! state:
//!
//! * **accounting** — `dispatched == completed + duplicates + requeued
//!   + jobs in flight`;
//! * **conservation** — every job is in exactly one of {queued,
//!   in-flight, done}, and no non-terminal, non-aborted state is stuck
//!   (empty queue, nothing in flight, jobs missing).
//!
//! The model's transition table is not hard-coded: each transition is
//! tied to an *anchor* in the lease ledger `crates/serve/src/lease.rs`
//! (the code that implements it), and abort to the master's `aborted`
//! flag. A missing anchor is a finding in itself, *and* disables that
//! behavior in the model, so the checker reproduces the bug the drift
//! would cause — delete the requeue accounting and the model exhibits a
//! stuck, unaccounted state.
//!
//! The ledger is the only copy of that lifecycle, so the pass also holds
//! each dispatch tier to it: every adapter in [`ADAPTERS`] must settle
//! answers through `leases.accept(..)` and must not call
//! `answers_exactly` itself. A tier that regrows a private copy is a
//! finding.

use crate::lexer::{self, Tok, TokKind};
use crate::{Finding, Pass, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Source file the transition table is extracted from.
pub const LEASE_RS: &str = "crates/serve/src/lease.rs";

/// The batch master: the tier whose abort the model covers.
pub const MASTER_RS: &str = "crates/serve/src/master.rs";

/// The dispatch tiers built on the ledger.
pub const ADAPTERS: &[&str] = &[
    MASTER_RS,
    "crates/gate/src/pool.rs",
    "crates/shard/src/frontend.rs",
];

/// Behavioral flags, each witnessed by an anchor in `lease.rs` (abort:
/// in `master.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionTable {
    /// Granting counts the jobs handed out (anchor: `.dispatched +=`).
    pub dispatch_counts_jobs: bool,
    /// Answers to retired leases are dropped, not accepted
    /// (anchor: `Verdict::Stale`).
    pub accept_requires_inflight: bool,
    /// Accepted pairs are deduplicated against the done set
    /// (anchors: `is_new(`, `.duplicates +=`).
    pub dedup_on_accept: bool,
    /// An overdue or lost lease is handed back and counted
    /// (anchors: `expire`, `lose`, `.requeued +=`).
    pub timeout_requeues: bool,
    /// Heartbeats refresh the deadline (anchor: `refresh`).
    pub heartbeat_refreshes: bool,
    /// No new batches are dispatched after abort (anchor: `aborted`).
    pub abort_stops_dispatch: bool,
}

impl TransitionTable {
    /// The table the shipped ledger is supposed to implement.
    pub fn correct() -> TransitionTable {
        TransitionTable {
            dispatch_counts_jobs: true,
            accept_requires_inflight: true,
            dedup_on_accept: true,
            timeout_requeues: true,
            heartbeat_refreshes: true,
            abort_stops_dispatch: true,
        }
    }
}

/// Statistics from an exhaustive run, printed in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions taken during enumeration.
    pub transitions: usize,
}

/// Run the pass: extract the table from `lease.rs` and `master.rs`,
/// model-check it, and hold every adapter to the ledger.
pub fn check(ws: &Workspace) -> (Vec<Finding>, Option<ModelStats>) {
    let (Some(lease), Some(master)) = (ws.read(LEASE_RS), ws.read(MASTER_RS)) else {
        return (
            vec![Finding::at(
                Pass::Model,
                LEASE_RS,
                0,
                "ledger or master source missing — cannot extract the transition table".to_string(),
            )],
            None,
        );
    };
    let (table, mut findings) = extract_table(&lease, &master);
    for file in ADAPTERS {
        findings.extend(check_adapter(ws.read(file).as_deref().unwrap_or(""), file));
    }
    let (violations, stats) = explore(table);
    findings.extend(violations);
    findings.sort();
    (findings, Some(stats))
}

/// Whether the non-test tokens contain `shape` as consecutive texts.
fn has_shape(toks: &[Tok], shape: &[&str]) -> bool {
    toks.windows(shape.len())
        .any(|w| w.iter().zip(shape).all(|(t, s)| !t.in_test && t.text == *s))
}

/// Whether the non-test tokens bump counter `field` (`.field +=`).
fn bumps(toks: &[Tok], field: &str) -> bool {
    has_shape(toks, &[".", field, "+", "="])
}

/// Hold one dispatch tier to the ledger: it settles answers through
/// `leases.accept(..)` and keeps no `answers_exactly` check of its own.
pub fn check_adapter(src: &str, file: &str) -> Vec<Finding> {
    let toks = lexer::lex(src).toks;
    let mut findings = Vec::new();
    if !has_shape(&toks, &["leases", ".", "accept", "("]) {
        findings.push(Finding::at(
            Pass::Model,
            file,
            0,
            "adapter anchor missing: `leases.accept(` — this tier no longer settles answers \
             through the LeaseTable"
                .to_string(),
        ));
    }
    for t in toks
        .iter()
        .filter(|t| !t.in_test && t.text == "answers_exactly")
    {
        findings.push(Finding::at(
            Pass::Model,
            file,
            t.line,
            "private `answers_exactly` check in an adapter — acceptance belongs to the LeaseTable"
                .to_string(),
        ));
    }
    findings
}

/// Extract the transition table from the ledger (`lease`) and master
/// sources. Every absent anchor produces a finding and clears its flag.
pub fn extract_table(lease: &str, master: &str) -> (TransitionTable, Vec<Finding>) {
    let toks = lexer::lex(lease).toks;
    let idents: BTreeSet<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && !t.in_test)
        .map(|t| t.text.as_str())
        .collect();
    let master_toks = lexer::lex(master).toks;

    let mut findings = Vec::new();
    let mut missing = |file: &str, anchors: &[&str], why: &str, present: bool| -> bool {
        if !present {
            findings.push(Finding::at(
                Pass::Model,
                file,
                0,
                format!(
                    "transition-table anchor missing: {} — {}",
                    anchors
                        .iter()
                        .map(|a| format!("`{a}`"))
                        .collect::<Vec<_>>()
                        .join(" / "),
                    why
                ),
            ));
        }
        present
    };

    let table = TransitionTable {
        dispatch_counts_jobs: missing(
            LEASE_RS,
            &[".dispatched +="],
            "granted jobs would go uncounted",
            bumps(&toks, "dispatched"),
        ),
        accept_requires_inflight: missing(
            LEASE_RS,
            &["Verdict::Stale"],
            "late results for retired leases would be accepted twice",
            has_shape(&toks, &["Verdict", ":", ":", "Stale"]),
        ),
        dedup_on_accept: missing(
            LEASE_RS,
            &["is_new(", ".duplicates +="],
            "replayed pairs would be double-counted as completed",
            has_shape(&toks, &["is_new", "("]) && bumps(&toks, "duplicates"),
        ),
        timeout_requeues: missing(
            LEASE_RS,
            &["expire", "lose", ".requeued +="],
            "a dead worker's batches would be lost and the run would hang",
            idents.contains("expire") && idents.contains("lose") && bumps(&toks, "requeued"),
        ),
        heartbeat_refreshes: missing(
            LEASE_RS,
            &["refresh"],
            "heartbeats would not keep a slow worker's batch alive",
            idents.contains("refresh"),
        ),
        abort_stops_dispatch: missing(
            MASTER_RS,
            &["aborted"],
            "abort would not stop the dispatcher",
            master_toks
                .iter()
                .any(|t| !t.in_test && t.kind == TokKind::Ident && t.text == "aborted"),
        ),
    };
    (table, findings)
}

// ------------------------------------------------------------ the model

/// Three jobs, two seed batches — enough to exercise requeue races,
/// duplicate delivery, and abort while staying exhaustively small.
const ALL_JOBS: u8 = 0b111;
const SEED_BATCHES: [u8; 2] = [0b011, 0b100];
/// Dispatch budget (in jobs) bounding requeue cycles.
const DISPATCH_CAP: u32 = 9;
/// Findings reported per invariant before summarizing.
const MAX_REPORTS: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    queue: Vec<u8>,
    inflight: Vec<u8>,
    /// Retired result frames that may still be delivered (late or
    /// duplicated). At most one pending ghost bounds the state space.
    ghosts: Vec<u8>,
    done: u8,
    /// Jobs actually handed out — model bookkeeping that enforces
    /// [`DISPATCH_CAP`] even when the table under test fails to count
    /// (the counter under test is `dispatched`, which may drift).
    handed_out: u32,
    dispatched: u32,
    completed: u32,
    duplicates: u32,
    requeued: u32,
    aborted: bool,
}

impl State {
    fn initial() -> State {
        State {
            queue: SEED_BATCHES.to_vec(),
            inflight: Vec::new(),
            ghosts: Vec::new(),
            done: 0,
            handed_out: 0,
            dispatched: 0,
            completed: 0,
            duplicates: 0,
            requeued: 0,
            aborted: false,
        }
    }

    fn jobs_inflight(&self) -> u32 {
        self.inflight.iter().map(|b| b.count_ones()).sum()
    }

    fn jobs_queued(&self) -> u8 {
        self.queue.iter().fold(0, |m, b| m | b)
    }
}

/// Exhaustively explore the model under `table`, checking invariants in
/// every reachable state.
pub fn explore(table: TransitionTable) -> (Vec<Finding>, ModelStats) {
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut frontier: VecDeque<State> = VecDeque::new();
    let mut violations: Vec<String> = Vec::new();
    let mut transitions = 0usize;

    let start = State::initial();
    seen.insert(start.clone());
    frontier.push_back(start);

    while let Some(s) = frontier.pop_front() {
        check_state(&s, &mut violations);
        for next in successors(&s, table, &mut violations) {
            transitions += 1;
            if seen.insert(next.clone()) {
                frontier.push_back(next);
            }
        }
    }

    violations.sort();
    violations.dedup();
    let findings = summarize(violations);
    (
        findings,
        ModelStats {
            states: seen.len(),
            transitions,
        },
    )
}

fn check_state(s: &State, violations: &mut Vec<String>) {
    let accounted = s.completed + s.duplicates + s.requeued + s.jobs_inflight();
    if s.dispatched != accounted {
        violations.push(format!(
            "accounting broken: dispatched={} but completed({}) + duplicates({}) + requeued({}) + in-flight({}) = {} [state: {}]",
            s.dispatched,
            s.completed,
            s.duplicates,
            s.requeued,
            s.jobs_inflight(),
            accounted,
            describe(s)
        ));
    }
    let queued = s.jobs_queued();
    let inflight = s.inflight.iter().fold(0u8, |m, b| m | b);
    let overlap = (queued & inflight) | (queued & s.done) | (inflight & s.done);
    let union = queued | inflight | s.done;
    if overlap != 0 || union != ALL_JOBS {
        violations.push(format!(
            "job conservation broken: queued={queued:03b} in-flight={inflight:03b} done={:03b} must partition {ALL_JOBS:03b} [state: {}]",
            s.done,
            describe(s)
        ));
    }
    if s.queue.is_empty() && s.inflight.is_empty() && s.done != ALL_JOBS && !s.aborted {
        violations.push(format!(
            "stuck state: queue and in-flight empty but jobs {:03b} never finished [state: {}]",
            ALL_JOBS & !s.done,
            describe(s)
        ));
    }
}

fn successors(s: &State, table: TransitionTable, violations: &mut Vec<String>) -> Vec<State> {
    let mut out = Vec::new();

    // Dispatch the batch at the head of the queue.
    if let Some(&batch) = s.queue.first() {
        let allowed = !s.aborted || !table.abort_stops_dispatch;
        if allowed && s.handed_out + batch.count_ones() <= DISPATCH_CAP {
            if s.aborted {
                violations.push(format!(
                    "dispatch after abort: batch {batch:03b} dispatched while aborted [state: {}]",
                    describe(s)
                ));
            }
            let mut n = s.clone();
            n.queue.remove(0);
            n.inflight.push(batch);
            n.inflight.sort_unstable();
            n.handed_out += batch.count_ones();
            if table.dispatch_counts_jobs {
                n.dispatched += batch.count_ones();
            }
            out.push(n);
        }
    }

    // A worker answers an in-flight batch.
    for (k, &batch) in s.inflight.iter().enumerate() {
        let mut n = s.clone();
        n.inflight.remove(k);
        accept(&mut n, batch, table.dedup_on_accept);
        if n.ghosts.is_empty() {
            // The network may replay this result frame later.
            n.ghosts.push(batch);
        }
        out.push(n.clone());
        n.ghosts.clear();
        out.push(n);
    }

    // An in-flight batch times out.
    for (k, &batch) in s.inflight.iter().enumerate() {
        let mut n = s.clone();
        n.inflight.remove(k);
        if table.timeout_requeues {
            n.queue.push(batch);
            n.requeued += batch.count_ones();
        }
        if n.ghosts.is_empty() {
            // The presumed-dead worker may still answer.
            n.ghosts.push(batch);
        }
        out.push(n);
    }

    // A retired result frame arrives (late answer or duplicate).
    if let Some(&ghost) = s.ghosts.first() {
        let mut n = s.clone();
        n.ghosts.remove(0);
        if !table.accept_requires_inflight {
            accept(&mut n, ghost, table.dedup_on_accept);
        }
        out.push(n);
    }

    // Heartbeat: refreshes a deadline; accounting-neutral, so it is the
    // identity on the abstract state (anchor drift is caught in
    // `extract_table`, not here).
    let _ = table.heartbeat_refreshes;

    // Abort.
    if !s.aborted {
        let mut n = s.clone();
        n.aborted = true;
        out.push(n);
    }

    out
}

/// Result acceptance: per job, first completion counts, replays count
/// as duplicates (when dedup is on) or corrupt `completed` (when off).
fn accept(s: &mut State, batch: u8, dedup: bool) {
    for job in 0..3u8 {
        let bit = 1 << job;
        if batch & bit == 0 {
            continue;
        }
        if s.done & bit == 0 {
            s.done |= bit;
            s.completed += 1;
        } else if dedup {
            s.duplicates += 1;
        } else {
            s.completed += 1;
        }
    }
}

fn describe(s: &State) -> String {
    format!(
        "queue={:?} inflight={:?} ghosts={:?} done={:03b} aborted={}",
        s.queue, s.inflight, s.ghosts, s.done, s.aborted
    )
}

fn summarize(violations: Vec<String>) -> Vec<Finding> {
    // Cap per invariant class (the text before the first ':'), so a
    // flood of one violation kind cannot crowd the others out of the
    // report.
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut extra: BTreeMap<String, usize> = BTreeMap::new();
    for v in violations {
        let class = v.split(':').next().unwrap_or("violation").to_string();
        let n = counts.entry(class.clone()).or_insert(0);
        *n += 1;
        if *n <= MAX_REPORTS {
            findings.push(Finding::at(Pass::Model, LEASE_RS, 0, v));
        } else {
            *extra.entry(class).or_insert(0) += 1;
        }
    }
    for (class, n) in extra {
        findings.push(Finding::at(
            Pass::Model,
            LEASE_RS,
            0,
            format!("... and {n} more `{class}` model violations"),
        ));
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_table_has_no_violations() {
        let (findings, stats) = explore(TransitionTable::correct());
        assert_eq!(findings, vec![], "{findings:?}");
        assert!(stats.states > 50, "model too small: {stats:?}");
    }

    #[test]
    fn exploration_is_deterministic() {
        let (f1, s1) = explore(TransitionTable::correct());
        let (f2, s2) = explore(TransitionTable::correct());
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn missing_requeue_accounting_is_a_stuck_state() {
        let table = TransitionTable {
            timeout_requeues: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table);
        assert!(
            findings.iter().any(|f| f.message.contains("stuck state")),
            "{findings:?}"
        );
        assert!(findings
            .iter()
            .any(|f| f.message.contains("conservation broken")));
    }

    #[test]
    fn uncounted_dispatch_breaks_accounting() {
        let table = TransitionTable {
            dispatch_counts_jobs: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("accounting broken")));
    }

    #[test]
    fn accepting_stale_results_breaks_invariants() {
        let table = TransitionTable {
            accept_requires_inflight: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table);
        assert!(!findings.is_empty(), "stale acceptance must be caught");
    }

    #[test]
    fn anchor_extraction_drives_the_table() {
        let good = "fn a() { self.counts.dispatched += n; return Verdict::Stale; \
                    let f = is_new(t, o); self.counts.duplicates += d; \
                    fn expire() {} fn lose() {} self.counts.requeued += n; \
                    fn refresh() {} }";
        let master = "fn run() { let x = aborted; }";
        let (table, findings) = extract_table(good, master);
        assert_eq!(table, TransitionTable::correct());
        assert_eq!(findings, vec![]);

        let bad = good.replace("self.counts.requeued += n;", "");
        let (table, findings) = extract_table(&bad, master);
        assert!(!table.timeout_requeues);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains(".requeued +="));

        let (table, findings) = extract_table(good, "fn run() {}");
        assert!(!table.abort_stops_dispatch);
        assert_eq!(findings[0].file, MASTER_RS);
    }

    #[test]
    fn an_adapter_that_regrows_a_private_copy_is_a_finding() {
        let ported = "fn a() { match state.leases.accept(id, o, f, now) {} }";
        assert_eq!(check_adapter(ported, "x.rs"), vec![]);
        let private = "fn a() { if !answers_exactly(&jobs, &o) {} }";
        let findings = check_adapter(private, "x.rs");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("leases.accept("));
        assert!(findings[1].message.contains("private `answers_exactly`"));
    }
}
