//! Known-bad: the helper that is clean on a split child still diverges
//! when it is called with the world under a rank-dependent branch.
//! Never compiled — parsed by the spmdlint corpus tests only.

/// Collectives on a parameter named like a world communicator.
fn seed_and_sync(comm: &mut Comm, buf: &mut [f64]) {
    comm.broadcast_f64s(0, buf);
    comm.barrier();
}

/// The world under a rank branch: only rank 0 enters the collectives.
pub fn world_under_rank_branch(comm: &mut Comm, buf: &mut [f64]) {
    if comm.rank() == 0 {
        seed_and_sync(comm, buf);
    }
}

/// The world after a secede, with the survivors' group at hand: the
/// culprit never reaches the world's collectives.
pub fn world_after_secede(comm: &mut Comm, culprit: usize, buf: &mut [f64]) {
    let secede = comm.rank() == culprit;
    let mut survivors = comm.split(|r| u32::from(r == culprit));
    if secede {
        return;
    }
    seed_and_sync(&mut survivors, buf);
    seed_and_sync(comm, buf);
}
