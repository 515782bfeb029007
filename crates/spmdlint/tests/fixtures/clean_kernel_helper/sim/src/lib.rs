//! The simulator crate: a point-to-point post that parks its sender
//! (`post -> park -> block`, no collective) and a collective schedule
//! named `gather`. Never compiled — parsed by the corpus tests only.

/// Deposits a message for `dst`; meets nobody.
pub fn post(comm: &mut Comm, dst: usize, buf: &[f64]) {
    park(comm, dst, buf.len());
}

fn park(comm: &mut Comm, dst: usize, n: usize) {
    block(comm, dst, n);
}

fn block(comm: &mut Comm, dst: usize, n: usize) {
    comm.suspend(dst, n);
}

/// Every member meets, then the root holds every buffer.
pub fn gather(comm: &mut Comm, buf: &[f64]) -> Vec<f64> {
    comm.barrier();
    buf.to_vec()
}
