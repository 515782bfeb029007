//! Known-good: whether a helper's collectives synchronize the world or a
//! group is decided by the communicator passed at the call site, not by
//! the name of the helper's parameter. One helper, written once, runs on
//! the world and on the survivors' group after a rank-dependent secede.
//! Never compiled — parsed by the spmdlint corpus tests only.

/// Collectives on a parameter named like a world communicator.
fn seed_and_sync(comm: &mut Comm, buf: &mut [f64]) {
    comm.broadcast_f64s(0, buf);
    comm.barrier();
}

/// The helper on the world: every rank calls it.
pub fn on_the_world(comm: &mut Comm, buf: &mut [f64]) {
    seed_and_sync(comm, buf);
}

/// The helper on the survivors' group: only the survivors call it, and
/// only they are members.
pub fn on_the_survivors(comm: &mut Comm, culprit: usize, buf: &mut [f64]) {
    let secede = comm.rank() == culprit;
    let mut survivors = comm.split(|r| u32::from(r == culprit));
    if secede {
        return;
    }
    seed_and_sync(&mut survivors, buf);
}

/// The same through a `sub`-named parameter, one call further down.
fn survivors_sync(sub: &mut SubComm, buf: &mut [f64]) {
    seed_and_sync(sub, buf);
}

pub fn through_a_group_parameter(comm: &mut Comm, culprit: usize, buf: &mut [f64]) {
    let secede = comm.rank() == culprit;
    let mut survivors = comm.split(|r| u32::from(r == culprit));
    if secede {
        return;
    }
    survivors_sync(&mut survivors, buf);
}
