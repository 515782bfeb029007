//! CPU affinity of the benchmark's main thread, and so of every thread it
//! starts.
//!
//! The cooperative engine runs one rank thread at a time and hands the
//! baton through condition variables; on a shared two-vCPU host, handoffs
//! across CPUs made the same simulated op take anywhere from 2 s to 9 s,
//! while on one CPU it repeats within a few percent. So the simulated ops
//! run pinned to one CPU. The native ops run on every CPU the process was
//! given, because their ranks are meant to run in parallel.

#[cfg(target_os = "linux")]
mod imp {
    use std::sync::OnceLock;

    /// glibc's `cpu_set_t`: 1024 bits.
    type Mask = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The mask the process started with.
    static ORIGINAL: OnceLock<Option<Mask>> = OnceLock::new();

    fn set(mask: &Mask) {
        // SAFETY: `mask` is a live, initialized buffer of exactly
        // `cpusetsize` bytes, and pid 0 names the calling thread. A
        // failure leaves the affinity unchanged, which only costs
        // steadiness.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
        }
    }

    fn original() -> Option<Mask> {
        *ORIGINAL.get_or_init(|| {
            let mut mask: Mask = [0; 16];
            // SAFETY: as in `set`; the kernel writes at most `cpusetsize`
            // bytes into `mask`.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            (rc == 0).then_some(mask)
        })
    }

    pub fn pin_to_current_cpu() {
        original();
        // SAFETY: `sched_getcpu` takes no arguments and only reads the
        // scheduler's record of the calling thread.
        let Ok(cpu) = usize::try_from(unsafe { sched_getcpu() }) else { return };
        let mut mask: Mask = [0; 16];
        let Some(word) = mask.get_mut(cpu / 64) else { return };
        *word = 1 << (cpu % 64);
        set(&mask);
    }

    pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
        let Some(all) = original() else { return f() };
        set(&all);
        let out = f();
        pin_to_current_cpu();
        out
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_current_cpu() {}

    pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on. The first call records the original mask.
pub use imp::pin_to_current_cpu;

/// Run `f` with the calling thread on its original CPU mask, so threads
/// `f` starts may run in parallel; pin again to the current CPU after.
pub use imp::unpinned;
