//! The [`Communicator`] implementation for the native backend: pure
//! delegation to the inherent methods, so generic SPMD drivers written
//! against `mpsim::traits` run here unchanged. Its groups are
//! [`mpsim::subcomm::Group`]s, whose one `GroupCommunicator` impl covers
//! both backends.

use mpsim::traits::Communicator;
use mpsim::{AllreduceAlgo, MachineSpec, ReduceOp};

use crate::comm::{NativeComm, NativeReq};
use crate::subcomm::NativeSubComm;

impl Communicator for NativeComm {
    type Req = NativeReq;
    type Group<'g> = NativeSubComm<'g>;

    fn rank(&self) -> usize {
        NativeComm::rank(self)
    }
    fn size(&self) -> usize {
        NativeComm::size(self)
    }
    fn machine(&self) -> &MachineSpec {
        NativeComm::machine(self)
    }
    fn now(&self) -> f64 {
        NativeComm::now(self)
    }
    fn work(&mut self, ops: u64) {
        NativeComm::work(self, ops);
    }
    fn enter_phase(&mut self, name: &str) {
        NativeComm::enter_phase(self, name);
    }
    fn exit_phase(&mut self) {
        NativeComm::exit_phase(self);
    }
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        NativeComm::send_f64s(self, dst, tag, values);
    }
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        NativeComm::recv_f64s(self, src, tag)
    }
    fn isend_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) -> NativeReq {
        NativeComm::isend_f64s(self, dst, tag, values)
    }
    fn irecv_f64s(&mut self, src: usize, tag: u64) -> NativeReq {
        NativeComm::irecv_f64s(self, src, tag)
    }
    fn wait(&mut self, req: &mut NativeReq) -> Option<Vec<f64>> {
        NativeComm::wait(self, req)
    }
    fn waitall(&mut self, reqs: &mut [NativeReq]) -> Vec<Option<Vec<f64>>> {
        NativeComm::waitall(self, reqs)
    }
    fn barrier(&mut self) {
        NativeComm::barrier(self);
    }
    fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        NativeComm::broadcast_f64s(self, root, buf);
    }
    fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        NativeComm::gather_f64s(self, root, mine)
    }
    fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        NativeComm::allreduce_f64s(self, buf, op);
    }
    fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        NativeComm::allreduce_f64s_with(self, buf, op, algo);
    }
    fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        NativeComm::allreduce_scalar(self, value, op)
    }
    fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> NativeReq {
        NativeComm::iallreduce_f64s(self, buf, op)
    }
    fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> NativeReq {
        NativeComm::iallreduce_f64s_with(self, buf, op, algo)
    }
    fn checks_replication(&self) -> bool {
        NativeComm::checks_replication(self)
    }
    fn verify_replicated(&mut self, label: &str, data: &[f64]) {
        NativeComm::verify_replicated(self, label, data);
    }
    fn split(&mut self, color: u32) -> NativeSubComm<'_> {
        NativeComm::split(self, color)
    }
}
