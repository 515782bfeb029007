//! Native sub-communicators: the `MPI_Comm_split` analogue on the
//! shared-memory backend. The split protocol, tag layout and group
//! collectives are [`mpsim::subcomm::Group`]'s, written once for both
//! backends; this module names its native instance.

use crate::comm::NativeComm;

/// A communicator over a subset of the native world's ranks.
pub type NativeSubComm<'a> = mpsim::subcomm::Group<'a, NativeComm>;

impl NativeComm {
    /// Split the world communicator by color: ranks passing equal colors
    /// form a group. Collective over the world communicator.
    pub fn split(&mut self, color: u32) -> NativeSubComm<'_> {
        mpsim::subcomm::split(self, color)
    }
}
