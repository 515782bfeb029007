//! Stackful fibers: the execution contexts rank bodies run on.
//!
//! A [`Fiber`] owns a body and a stack of its own. [`Fiber::resume`] runs
//! the body until it calls [`suspend`] or returns, and then comes back to
//! its caller; the next `resume` continues where `suspend` left off. A
//! fiber is resumed only on the OS thread that created it, so a body
//! sees one thread for its whole run, as it would on a thread of its own.
//!
//! # Backings
//!
//! On x86_64 Linux a fiber is an `mmap`ed stack plus one register-save
//! stack switch (`switched`): resuming and suspending cost tens of
//! nanoseconds and no system call. A dropped fiber's stack goes back to a
//! process-wide pool of at most [`STACK_POOL_CAP`] stacks, still guarded,
//! and the next fiber made on any thread reuses it, so a launch of `P`
//! ranks maps nothing when `P` stacks are pooled; its touched pages stay
//! resident while it waits. Every other target uses a parked OS
//! thread per fiber and one condvar handing the turn back and forth
//! (`threaded`), as do ThreadSanitizer builds (`cfg(mpsim_tsan)`, set by
//! the build script), since TSan cannot follow an unannotated stack
//! switch. The two have the same interface and semantics, and the unit
//! tests run against both on x86_64.
//!
//! # Rules for the code that runs on a fiber
//!
//! * No switch while the thread is panicking. std keeps its panic count
//!   per OS thread, so a fiber that suspends mid-unwind would hand its
//!   count to the next fiber on the thread. [`suspend`] asserts this.
//! * No lock held across a switch. The next fiber on the same thread that
//!   takes it would block the thread for good.
//! * A body that unwinds out of its fiber aborts the process; catch its
//!   panics inside it.
//! * A fiber dropped before its body returns leaks what its suspended
//!   frames own, since they are never unwound. The engine runs every
//!   fiber to completion.

/// Stack reserved per fiber. The address space is only reserved, not
/// committed, so `P = 1024` costs 1 GiB of *virtual* memory, which is
/// cheap on any 64-bit host, and leaves room for the EM search's deepest
/// call chains.
pub(crate) const RANK_STACK_BYTES: usize = 1 << 20;

/// Most unused stacks the process keeps mapped for reuse: one launch of
/// 1024 ranks, the largest machine the workloads simulate. Stacks dropped
/// beyond it are unmapped.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan)))]
pub(crate) const STACK_POOL_CAP: usize = 1024;

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan)))]
pub(crate) use switched::{suspend, Fiber};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan))))]
pub(crate) use threaded::{suspend, Fiber};

/// Fibers as stacks of their own and a register-save switch between them.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan)))]
mod switched {
    use std::arch::{asm, naked_asm};
    use std::cell::Cell;
    use std::io;
    use std::ptr;
    use std::sync::{Mutex, PoisonError};

    use super::{RANK_STACK_BYTES, STACK_POOL_CAP};

    /// The C library's memory-mapping calls; std links the C library
    /// already.
    mod sys {
        extern "C" {
            pub fn mmap(
                addr: *mut u8,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                off: i64,
            ) -> *mut u8;
            pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
            pub fn munmap(addr: *mut u8, len: usize) -> i32;
            pub fn sysconf(name: i32) -> i64;
        }
        pub const PROT_NONE: i32 = 0;
        pub const PROT_READ: i32 = 1;
        pub const PROT_WRITE: i32 = 2;
        pub const MAP_PRIVATE: i32 = 0x02;
        pub const MAP_ANONYMOUS: i32 = 0x20;
        pub const MAP_NORESERVE: i32 = 0x4000;
        pub const MAP_STACK: i32 = 0x2_0000;
        pub const SC_PAGESIZE: i32 = 30;
    }

    /// `RANK_STACK_BYTES` of read-write memory above one `PROT_NONE`
    /// guard page, so running off the low end faults instead of writing
    /// over whatever lies below.
    struct Stack {
        base: *mut u8,
        len: usize,
    }

    // SAFETY: a `Stack` is the only handle to its mapping and carries no
    // state tied to a thread; it crosses threads only through `POOL`,
    // which holds stacks no fiber runs on.
    unsafe impl Send for Stack {}

    /// Stacks no fiber runs on, last dropped on top; at most
    /// `STACK_POOL_CAP`. A poisoned lock still guards whole stacks: a
    /// push or pop either happened or did not.
    static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

    impl Stack {
        /// The most recently pooled stack, or a newly mapped one.
        fn take() -> io::Result<Stack> {
            let pooled = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
            pooled.map_or_else(Stack::map, Ok)
        }

        /// Back to the pool, or unmapped when the pool is full. Only for a
        /// stack no fiber will run on again.
        fn recycle(self) {
            let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
            if pool.len() < STACK_POOL_CAP {
                pool.push(self);
            }
        }

        fn map() -> io::Result<Stack> {
            // SAFETY: `sysconf` only reads a constant of the system.
            let page = usize::try_from(unsafe { sys::sysconf(sys::SC_PAGESIZE) }).unwrap_or(4096);
            let len = RANK_STACK_BYTES + page;
            // SAFETY: a new private anonymous mapping at an address the
            // kernel picks overlaps no memory this program uses.
            let base = unsafe {
                sys::mmap(
                    ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK,
                    -1,
                    0,
                )
            };
            // `MAP_FAILED` is `(void *)-1`.
            if base as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            let stack = Stack { base, len };
            // SAFETY: the first page lies in the mapping made above, which
            // nothing references yet.
            if unsafe { sys::mprotect(base, page, sys::PROT_NONE) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(stack)
        }

        /// One past the highest usable byte; 16-aligned, as the mapping is
        /// page-aligned.
        fn top(&self) -> *mut u8 {
            self.base.wrapping_add(self.len)
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base..base + len` is exactly the mapping `map` made,
            // and no fiber runs on it any more: a `Stack` is dropped only
            // when `recycle` finds the pool full or `map` fails to guard
            // it, and is recycled only by its `Fiber`'s drop, which cannot
            // run while the fiber does. A failed unmap only leaks address
            // space.
            unsafe { sys::munmap(self.base, self.len) };
        }
    }

    /// The two stack pointers a switch saves and restores: where the fiber
    /// stopped, and where the code that resumed it waits.
    struct Regs {
        fiber_sp: Cell<*mut u8>,
        caller_sp: Cell<*mut u8>,
    }

    /// A fiber's bookkeeping, boxed so its address stays put while the
    /// fiber's stack refers to it.
    struct Context<'a> {
        regs: Regs,
        body: Cell<Option<Box<dyn FnOnce() + 'a>>>,
        done: Cell<bool>,
    }

    thread_local! {
        /// Registers of the fiber running on this thread, if any: what
        /// [`suspend`] switches away from. Only set inside
        /// [`Fiber::resume`], which also puts back the one it replaced, so
        /// fibers that resume fibers nest.
        static CURRENT: Cell<*const Regs> = const { Cell::new(ptr::null()) };
    }

    /// A body and the stack it runs on.
    pub(crate) struct Fiber<'a> {
        ctx: Box<Context<'a>>,
        /// Mapped for as long as the fiber lives; `Drop` takes it back to
        /// the pool, so it is `None` only there.
        stack: Option<Stack>,
    }

    impl<'a> Fiber<'a> {
        /// A fiber that runs `body` once first resumed, on a pooled stack
        /// or a newly mapped one. The stack starts with the creating
        /// thread's floating-point control state, as a new thread would.
        ///
        /// # Errors
        /// The OS error when no stack is pooled and a new one cannot be
        /// mapped or guarded.
        pub(crate) fn new(body: impl FnOnce() + Send + 'a) -> io::Result<Fiber<'a>> {
            let stack = Stack::take()?;
            let ctx = Box::new(Context {
                regs: Regs {
                    fiber_sp: Cell::new(ptr::null_mut()),
                    caller_sp: Cell::new(ptr::null_mut()),
                },
                body: Cell::new(Some(Box::new(body))),
                done: Cell::new(false),
            });
            let mut fp_control = 0u64;
            // SAFETY: stores MXCSR and the x87 control word into the low 6
            // bytes of a live local, and touches nothing else.
            unsafe {
                asm!(
                    "stmxcsr [{0}]",
                    "fnstcw [{0} + 4]",
                    in(reg) &raw mut fp_control,
                    options(nostack, preserves_flags),
                );
            }
            // What `switch` restores on the first resume, lowest address
            // first: the control words, r15, r14, r13, r12, rbx, rbp, and
            // the return address `switch`'s `ret` takes, which is `start`.
            // After that `ret` the stack pointer is the 16-aligned top,
            // where `start`'s call into `fiber_main` keeps the ABI's
            // alignment.
            let frame: [u64; 8] = [
                fp_control,
                0,
                0,
                0,
                ptr::from_ref::<Context<'_>>(&ctx) as u64,
                0,
                0,
                start as *const () as u64,
            ];
            let sp = stack.top().cast::<u64>().wrapping_sub(frame.len());
            // SAFETY: the stack's top 64 bytes are mapped, writable,
            // 8-aligned and unused, and `frame` is a separate local.
            unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
            ctx.regs.fiber_sp.set(sp.cast());
            Ok(Fiber { ctx, stack: Some(stack) })
        }

        /// Run the body until it next suspends or returns; `true` once it
        /// has returned.
        ///
        /// # Panics
        /// If the body has already returned.
        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.ctx.done.get(), "resumed a fiber whose body has returned");
            let regs = &self.ctx.regs;
            let outer = CURRENT.replace(regs);
            // SAFETY: `fiber_sp` holds a context in the layout `switch`
            // restores, saved by the fiber's last `suspend` or laid out by
            // `new`, on this fiber's stack, which `self.stack` keeps
            // mapped. The fiber resumes on the thread that created it and
            // runs only until it switches back here through `caller_sp`.
            unsafe { switch(regs.caller_sp.as_ptr(), regs.fiber_sp.get()) };
            CURRENT.set(outer);
            self.ctx.done.get()
        }
    }

    impl Drop for Fiber<'_> {
        /// Pool the stack: the fiber is not running, as `resume` holds
        /// `&mut self` for as long as it does, so nothing runs on the
        /// stack any more.
        fn drop(&mut self) {
            if let Some(stack) = self.stack.take() {
                stack.recycle();
            }
        }
    }

    /// Switch from the running fiber back to the code that resumed it,
    /// and return when the fiber is next resumed.
    ///
    /// # Panics
    /// If called outside a fiber or while the thread is panicking.
    pub(crate) fn suspend() {
        assert!(!std::thread::panicking(), "a fiber must not switch while unwinding");
        let regs = CURRENT.get();
        assert!(!regs.is_null(), "suspend called outside a fiber");
        // SAFETY: `CURRENT` is non-null only inside `Fiber::resume`, whose
        // `&mut Fiber` keeps the `Regs` alive and whose `switch` saved the
        // stack pointer it waits at in `caller_sp`. The fiber's own
        // context is saved in `fiber_sp` for the next resume.
        unsafe { switch((*regs).fiber_sp.as_ptr(), (*regs).caller_sp.get()) };
    }

    /// Save the callee-saved registers, MXCSR and the x87 control word on
    /// the current stack, store the stack pointer at `save`, load `to`
    /// and restore the same set from there.
    ///
    /// # Safety
    /// `save` must be valid for a pointer-sized write, and `to` must hold
    /// a context in the layout this function saves, on a stack that stays
    /// mapped and is not running elsewhere. Control returns from this call
    /// only when some later switch restores the context saved at `save`.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// The base frame of every fiber: `switch` returns here on the first
    /// resume with the context in r12. Its CFI marks the return address
    /// undefined, so a backtrace or unwinder stops here instead of reading
    /// past the top of the stack.
    #[unsafe(naked)]
    unsafe extern "C" fn start() {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call {main}",
            "ud2",
            ".cfi_endproc",
            main = sym fiber_main,
        )
    }

    /// Run the body and switch back for the last time. Never returns: the
    /// frame below it is `start`'s.
    extern "C" fn fiber_main(ctx: *const Context<'_>) -> ! {
        // SAFETY: `start` passes the pointer `Fiber::new` laid out, into
        // the boxed context that the resuming `Fiber` keeps alive.
        let ctx = unsafe { &*ctx };
        if let Some(body) = ctx.body.take() {
            body();
        }
        ctx.done.set(true);
        let mut dead = ptr::null_mut();
        // SAFETY: `caller_sp` holds the context the resume waiting for
        // this fiber saved. The context saved into `dead` is discarded:
        // a finished fiber is never resumed.
        unsafe { switch(&raw mut dead, ctx.regs.caller_sp.get()) };
        unreachable!("a finished fiber was resumed")
    }
}

/// Fibers as parked OS threads taking turns with their callers.
#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan)))))]
mod threaded {
    use std::cell::OnceCell;
    use std::io;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::thread::{self, JoinHandle};

    use super::RANK_STACK_BYTES;

    /// Whose turn it is to run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Caller,
        Fiber,
        Done,
    }

    /// The turn, and the one condvar both sides wait on for it. At most
    /// one side waits at a time, as each waits only while the other runs.
    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        fn give(&self, to: Turn) {
            *self.turn.lock().unwrap_or_else(PoisonError::into_inner) = to;
            self.cv.notify_one();
        }

        /// Wait until the turn is no longer `t`, and return it.
        fn wait_while(&self, t: Turn) -> Turn {
            let turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
            *self.cv.wait_while(turn, |now| *now == t).unwrap_or_else(PoisonError::into_inner)
        }
    }

    thread_local! {
        /// The baton of the fiber this thread carries, if it carries one.
        static CURRENT: OnceCell<Arc<Baton>> = const { OnceCell::new() };
    }

    /// A body and the thread it runs on, started at the first resume.
    pub(crate) struct Fiber<'a> {
        body: Option<Box<dyn FnOnce() + Send + 'a>>,
        baton: Arc<Baton>,
        thread: Option<JoinHandle<()>>,
        done: bool,
    }

    impl<'a> Fiber<'a> {
        /// Never fails: the thread starts at the first resume.
        pub(crate) fn new(body: impl FnOnce() + Send + 'a) -> io::Result<Fiber<'a>> {
            let baton = Arc::new(Baton { turn: Mutex::new(Turn::Caller), cv: Condvar::new() });
            Ok(Fiber { body: Some(Box::new(body)), baton, thread: None, done: false })
        }

        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.done, "resumed a fiber whose body has returned");
            if let Some(body) = self.body.take() {
                let baton = Arc::clone(&self.baton);
                let run = move || {
                    // A new thread's cell is empty, so `set` cannot fail.
                    CURRENT.with(|c| drop(c.set(Arc::clone(&baton))));
                    baton.wait_while(Turn::Caller);
                    if catch_unwind(AssertUnwindSafe(body)).is_err() {
                        std::process::abort();
                    }
                    baton.give(Turn::Done);
                };
                // SAFETY: the thread runs `body`, which may borrow for
                // `'a`, only while a `resume` of this `Fiber<'a>` waits for
                // it. Drop joins the thread once the body has returned; a
                // thread whose body is unfinished stays parked in
                // `suspend` for good and never touches its captures again.
                let spawned = unsafe {
                    thread::Builder::new().stack_size(RANK_STACK_BYTES).spawn_unchecked(run)
                };
                // lint:allow(unwrap): thread spawn only fails on resource exhaustion
                self.thread = Some(spawned.expect("spawn fiber thread"));
            }
            self.baton.give(Turn::Fiber);
            self.done = self.baton.wait_while(Turn::Fiber) == Turn::Done;
            self.done
        }
    }

    impl Drop for Fiber<'_> {
        fn drop(&mut self) {
            if let (true, Some(thread)) = (self.done, self.thread.take()) {
                // The body's panics abort, so the thread cannot fail.
                let _ = thread.join();
            }
        }
    }

    pub(crate) fn suspend() {
        assert!(!thread::panicking(), "a fiber must not switch while unwinding");
        let baton = CURRENT.with(|c| c.get().cloned());
        // lint:allow(unwrap): only a fiber's own thread sets CURRENT
        let baton = baton.expect("suspend called outside a fiber");
        baton.give(Turn::Caller);
        baton.wait_while(Turn::Caller);
    }
}

#[cfg(test)]
mod tests {
    /// The same tests against each backing compiled for the target: the
    /// switched one where it exists, and always the thread-backed one, so
    /// the portable baseline keeps working where it is not the default.
    macro_rules! backing_tests {
        ($backing:ident) => {
            mod $backing {
                use std::sync::{Arc, Mutex};

                use crate::fiber::$backing::{suspend, Fiber};

                #[test]
                fn a_body_that_never_suspends_finishes_on_the_first_resume() {
                    let ran = Mutex::new(false);
                    let mut fiber = Fiber::new(|| *ran.lock().unwrap() = true).unwrap();
                    assert!(fiber.resume());
                    assert!(*ran.lock().unwrap());
                }

                #[test]
                fn suspend_and_resume_take_turns() {
                    let log = Mutex::new(Vec::new());
                    let push = |step: u32| log.lock().unwrap().push(step);
                    let mut fiber = Fiber::new(|| {
                        push(1);
                        suspend();
                        push(3);
                        suspend();
                        push(5);
                    })
                    .unwrap();
                    push(0);
                    assert!(!fiber.resume());
                    push(2);
                    assert!(!fiber.resume());
                    push(4);
                    assert!(fiber.resume());
                    assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
                }

                #[test]
                fn each_fiber_keeps_its_own_stack() {
                    // Every fiber holds a running total in a local across
                    // its suspends while the others run.
                    let totals = Mutex::new(vec![0u64; 16]);
                    let mut fibers: Vec<Fiber<'_>> = (0..16u64)
                        .map(|i| {
                            let totals = &totals;
                            Fiber::new(move || {
                                let mut local = [0u64; 64];
                                for round in 0..10 {
                                    local[round % 64] += i + round as u64;
                                    suspend();
                                }
                                totals.lock().unwrap()[i as usize] = local.iter().sum();
                            })
                            .unwrap()
                        })
                        .collect();
                    for _ in 0..10 {
                        assert!(fibers.iter_mut().all(|f| !f.resume()));
                    }
                    assert!(fibers.iter_mut().all(|f| f.resume()));
                    let want: Vec<u64> = (0..16).map(|i| 10 * i + 45).collect();
                    assert_eq!(*totals.lock().unwrap(), want);
                }

                #[test]
                fn a_fiber_can_drive_fibers_of_its_own() {
                    let log = Mutex::new(Vec::new());
                    let push = |step: &'static str| log.lock().unwrap().push(step);
                    let mut outer = Fiber::new(|| {
                        let mut inner = Fiber::new(|| {
                            push("inner a");
                            suspend();
                            push("inner b");
                        })
                        .unwrap();
                        assert!(!inner.resume());
                        push("outer between");
                        suspend();
                        assert!(inner.resume());
                        push("outer end");
                    })
                    .unwrap();
                    assert!(!outer.resume());
                    push("caller");
                    assert!(outer.resume());
                    let want = ["inner a", "outer between", "caller", "inner b", "outer end"];
                    assert_eq!(*log.lock().unwrap(), want);
                }

                #[test]
                fn an_unstarted_fiber_drops_its_body() {
                    let token = Arc::new(());
                    let held = Arc::clone(&token);
                    drop(Fiber::new(move || drop(held)).unwrap());
                    assert_eq!(Arc::strong_count(&token), 1);
                }

                #[test]
                #[should_panic(expected = "suspend called outside a fiber")]
                fn suspend_outside_a_fiber_panics() {
                    suspend();
                }

                #[cfg(target_arch = "x86_64")]
                #[test]
                fn floating_point_control_is_per_fiber() {
                    fn mxcsr() -> u32 {
                        let mut v = 0u32;
                        // SAFETY: stores MXCSR into a live local.
                        unsafe {
                            std::arch::asm!("stmxcsr [{}]", in(reg) &raw mut v, options(nostack));
                        }
                        v
                    }
                    fn set_mxcsr(v: u32) {
                        // SAFETY: loads a valid MXCSR value (reserved bits
                        // clear) from a live local.
                        unsafe {
                            std::arch::asm!("ldmxcsr [{}]", in(reg) &raw const v, options(nostack));
                        }
                    }
                    const ROUND_TOWARD_ZERO: u32 = 0x6000;
                    let caller = mxcsr();
                    let mut fiber = Fiber::new(move || {
                        assert_eq!(mxcsr(), caller, "a fiber starts with its creator's MXCSR");
                        set_mxcsr(caller | ROUND_TOWARD_ZERO);
                        suspend();
                        assert_eq!(mxcsr(), caller | ROUND_TOWARD_ZERO);
                    })
                    .unwrap();
                    assert!(!fiber.resume());
                    assert_eq!(mxcsr(), caller, "the fiber's rounding mode leaked out");
                    assert!(fiber.resume());
                    assert_eq!(mxcsr(), caller);
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(mpsim_tsan)))]
    backing_tests!(switched);
    backing_tests!(threaded);
}
