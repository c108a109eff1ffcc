// Fixture: a lease ledger that hands expired and lost leases back
// without counting them requeued (no `.requeued +=`), so the model
// checker exhibits stuck, unaccounted states.

fn grant(&mut self, jobs: Vec<Job>) {
    self.counts.dispatched += jobs.len();
}

fn accept(&mut self, id: u64, outcomes: Vec<Outcome>) -> Verdict {
    let Some(lease) = self.leases.remove(&id) else {
        return Verdict::Stale;
    };
    let fresh = outcomes.iter().filter(|o| is_new(o)).count();
    self.counts.duplicates += outcomes.len() - fresh;
}

fn refresh(&mut self, holder: u32) {}

fn expire(&mut self) -> Vec<Lease> {
    self.retire()
}

fn lose(&mut self, holder: u32) -> Vec<Lease> {
    self.retire()
}
