//! A rank body that posts point-to-point under a rank branch: no
//! collective, so no divergence, whatever the kernel crate names its
//! helpers. Never compiled — parsed by the corpus tests only.

pub fn hand_off(comm: &mut Comm, buf: &[f64]) {
    if comm.rank() == 0 {
        post(comm, 1, buf);
    }
}
