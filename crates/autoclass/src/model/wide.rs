//! One kernel body, one compiled instance per x86 ISA level.
//!
//! The crate is built for baseline x86-64 (SSE2, two doubles per vector
//! register), and no global `target-cpu` is set: that would make binaries
//! host-specific. Instead the hot E/M kernels implement [`Wide`] with an
//! `#[inline(always)]` body, and [`run_wide`] runs that body through one of
//! three instances: the plain function, an AVX2 one and an AVX-512 one.
//! [`Isa::best`] picks the widest by runtime feature detection, which std
//! caches.
//!
//! Every instance performs the same IEEE operations in the same order:
//! `fma` is never enabled and nothing calls `mul_add`, so no multiply-add
//! is ever contracted, and no reduction chain is reassociated. Wider
//! registers only change how many independent lanes advance per
//! instruction, so every instance is bitwise identical to every other.

/// Classes advanced together by the class-blocked reduction chains (the
/// E-step's class weight sums and the statistics' carried chains): one
/// lane per class, eight lanes filling an AVX-512 register. Four lanes
/// leave the AVX-512 instance waiting on add latency; the chains take the
/// classes eight at a time, then a block of `LANES / 2`, then one at a
/// time, so every class count keeps most chains in wide blocks.
pub(crate) const LANES: usize = 8;

/// A kernel body compiled inside each instance. `run` must be
/// `#[inline(always)]`, as must everything on its hot path, or it is
/// compiled once at the baseline level and merely called from the wide
/// instances.
pub(crate) trait Wide {
    /// What the kernel returns.
    type Out;
    /// The kernel body.
    fn run(self) -> Self::Out;
}

/// An instruction-set level the kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The crate's build target (SSE2 on x86-64).
    Plain,
    /// 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors and mask registers.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every level compiled in, narrowest first.
    pub(crate) const ALL: &'static [Isa] = &[
        Isa::Plain,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether this CPU can run the instance.
    pub(crate) fn supported(self) -> bool {
        match self {
            Isa::Plain => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
        }
    }

    /// The widest level this CPU supports.
    pub(crate) fn best() -> Isa {
        // `ALL` starts with `Plain`, which is always supported.
        Isa::ALL.iter().rev().copied().find(|isa| isa.supported()).unwrap_or(Isa::Plain)
    }
}

fn run_plain<K: Wide>(k: K) -> K::Out {
    k.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Wide>(k: K) -> K::Out {
    k.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_avx512<K: Wide>(k: K) -> K::Out {
    k.run()
}

/// Run `k` on the instance compiled for `isa`; the kernels pass
/// [`Isa::best`], the instance tests every supported level.
///
/// # Panics
/// Panics if this CPU does not support `isa`.
pub(crate) fn run_wide<K: Wide>(isa: Isa, k: K) -> K::Out {
    assert!(isa.supported(), "this CPU cannot run the {isa:?} kernels");
    let instance: unsafe fn(K) -> K::Out = match isa {
        Isa::Plain => run_plain::<K>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => run_avx2::<K>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => run_avx512::<K>,
    };
    // SAFETY: the instance for `isa` only enables the target features that
    // `isa.supported()` has just confirmed with `is_x86_feature_detected!`
    // (the plain instance enables none), so this CPU can execute it.
    unsafe { instance(k) }
}
