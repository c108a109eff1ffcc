// Fixture: panic paths, a guard held across I/O, a lock order that
// worker.rs reverses, a badly named + undocumented metric, and an
// adapter that checks answers itself instead of through the lease
// ledger (no `leases.accept(`).

fn register(reg: &Registry) {
    let c = reg.counter("rck_bad_counter", "counter without the _total suffix");
    let d = reg.counter("rck_bad_counter", "and registered twice at that");
}

fn dispatch(&self) {
    let batch = self.queue.pop().unwrap();
    stats.on_batch_dispatched(batch.len());
    let w = self.writer.lock().unwrap();
    sock.write_all(&batch);
}

fn accept(&self) {
    if !answers_exactly(&batch.jobs, &outcomes) {
        stats.on_mismatched_result();
    }
    let aborted = false;
}

fn ordering(&self) {
    let a = self.alpha.lock().unwrap();
    let b = self.beta.lock().unwrap();
    drop(b);
    drop(a);
}
