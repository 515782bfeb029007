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
//!
//! Most of the kernels' arithmetic is elementwise over a column and the
//! compiler vectorizes it at each instance's width. A chain that adds a
//! class's items in order is not: the compiler keeps each class's chain in
//! a scalar register. The class-lane sweep ([`class_lanes`]) runs such
//! chains as real vector lanes, one class per lane, through the
//! instance's [`Lanes`] type: `ymm` for the AVX2 and AVX-512 instances,
//! SSE2's `xmm` for the plain x86-64 instance, and a scalar elsewhere.
//! The AVX-512 instance keeps `ymm` lanes: its elementwise loops run on
//! `zmm`, but `zmm` chains made the simulated workloads of short
//! partitions, whose ranks run a short kernel between stretches of
//! scalar engine code, slower end to end.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// The most lanes any instance has: four doubles fill a `ymm` register.
/// A class block hands the sweep this many column slices; an instance of
/// `W` lanes reads the first `W`.
pub(crate) const LANES: usize = 4;

/// A kernel body compiled inside each instance. `run` must be
/// `#[inline(always)]`, as must everything on its hot path, or it is
/// compiled once at the baseline level and merely called from the wide
/// instances.
pub(crate) trait Wide {
    /// What the kernel returns.
    type Out;
    /// The kernel body, given the instance's lane type.
    fn run<L: Lanes>(self, lanes: L) -> Self::Out;
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
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
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

#[cfg(target_arch = "x86_64")]
fn run_plain<K: Wide>(k: K) -> K::Out {
    k.run(Xmm(()))
}

#[cfg(not(target_arch = "x86_64"))]
fn run_plain<K: Wide>(k: K) -> K::Out {
    k.run(Scalar)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Wide>(k: K) -> K::Out {
    k.run(Ymm(()))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_avx512<K: Wide>(k: K) -> K::Out {
    k.run(Ymm(()))
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

/// One instance's vector of `W` doubles, one lane per class: the register
/// the class-lane sweep advances its chains in.
///
/// A value of an implementing type is a token. Only `run_wide` makes one
/// (and a wider token's `half`), inside an instance compiled for the
/// type's target features, after `Isa::supported` confirmed them; so the
/// methods may use those features' intrinsics. Each lane op is the IEEE op of the scalar code
/// it replaces, and none is fused.
pub(crate) trait Lanes: Copy {
    /// Lanes per vector.
    const W: usize;
    /// The vector.
    type V: Copy;
    /// The lanes of half the width (the narrowest x86 lanes and the
    /// scalar are their own half), for blocks of few classes.
    type Half: Lanes;
    /// The half-width lanes' token.
    fn half(self) -> Self::Half;
    /// Every lane `x`.
    fn splat(self, x: f64) -> Self::V;
    /// Lanes `0..W` from `a[..W]`.
    fn load(self, a: &[f64; LANES]) -> Self::V;
    /// The lanes, in `0..W` of the result (zero past them).
    fn store(self, v: Self::V) -> [f64; LANES];
    /// Lanewise `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a * b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// `acc + x`, or `acc` itself when `skip`: the bits of
    /// `acc + (-0.0)`, since `-0.0` is the exact additive identity (for
    /// every `acc` but a signalling NaN, which no chain holds).
    fn add_unless(self, acc: Self::V, x: Self::V, skip: bool) -> Self::V;
    /// Load items `t..t + n` (`1 ≤ n ≤ W`) of each column `cols[..W]` and
    /// transpose them in registers: call `f(k, v)` for `k` in `0..n`,
    /// ascending, where lane `l` of `v` is `cols[l][t + k]`.
    fn chunk(self, cols: &[&[f64]; LANES], t: usize, n: usize, f: impl FnMut(usize, Self::V));
}

/// The class-lane sweep: call `item(t, v)` for every item `t` of the
/// equally long class columns `cols[..W]`, in ascending order, where lane
/// `l` of `v` is `cols[l][t]`. It loads `W` items of each column and
/// transposes them in registers ([`Lanes::chunk`]), so a chain kept in a
/// vector advances `W` classes with one packed op per item, and each lane
/// still takes its class's items in order: the bits of one class at a
/// time. A ragged last chunk loads only the items it has.
#[inline(always)]
pub(crate) fn class_lanes<L: Lanes>(
    lanes: L,
    cols: &[&[f64]; LANES],
    mut item: impl FnMut(usize, L::V),
) {
    let len = cols[0].len();
    for col in &cols[..L::W] {
        assert_eq!(col.len(), len, "class columns of different lengths");
    }
    let mut t = 0;
    while t < len {
        let n = L::W.min(len - t);
        lanes.chunk(
            cols,
            t,
            n,
            #[inline(always)]
            |k, v| item(t + k, v),
        );
        t += n;
    }
}

/// The columns of the `k` classes `c0..c0 + k` (`1 ≤ k`) as one block of
/// lanes, `col(c)` giving class `c`'s: the lanes past `k` repeat the last
/// class, and their chains are discarded.
#[inline(always)]
pub(crate) fn class_block<'a>(
    c0: usize,
    k: usize,
    col: impl Fn(usize) -> &'a [f64],
) -> [&'a [f64]; LANES] {
    let mut cols = [col(c0 + k - 1); LANES];
    for (l, lane) in cols[..k - 1].iter_mut().enumerate() {
        *lane = col(c0 + l);
    }
    cols
}

/// A pass over the classes, one block of lanes at a time
/// ([`class_blocks`]).
pub(crate) trait ClassBlocks {
    /// Run the pass for the `k` classes `c0..c0 + k`, `1 ≤ k ≤ L::W`, on
    /// `lanes`.
    fn block<L: Lanes>(&mut self, lanes: L, c0: usize, k: usize);
}

/// The tile lengths the class-lane tests run: one item, ragged chunks and
/// chunk edges of every width, and a whole tile.
#[cfg(test)]
pub(crate) const TILE_LENGTHS: [usize; 10] = [1, 6, 7, 8, 9, 15, 16, 17, 255, 256];

/// Run `pass` over the classes `0..j` in blocks of `L::W`, then the last
/// `j mod W` on the narrowest of `L`, its half and its quarter that they
/// fill more than half of: on `ymm`, J = 7 runs as 4 + 3 classes and
/// J = 2 as one two-lane block, not as a four-lane block of two padding
/// lanes.
#[inline(always)]
pub(crate) fn class_blocks<L: Lanes>(lanes: L, j: usize, pass: &mut impl ClassBlocks) {
    let full = j - j % L::W;
    for c0 in (0..full).step_by(L::W) {
        pass.block(lanes, c0, L::W);
    }
    let k = j - full;
    if k > L::W / 2 {
        pass.block(lanes, full, k);
    } else if k > L::W / 4 {
        pass.block(lanes.half(), full, k);
    } else if k > 0 {
        pass.block(lanes.half().half(), full, k);
    }
}

/// SSE2's two-lane `xmm`, the plain x86-64 instance's lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Xmm(());

#[cfg(target_arch = "x86_64")]
impl Lanes for Xmm {
    const W: usize = 2;
    type V = __m128d;
    type Half = Xmm;

    #[inline(always)]
    fn half(self) -> Xmm {
        self
    }

    #[inline(always)]
    fn splat(self, x: f64) -> __m128d {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_set1_pd(x) }
    }

    #[inline(always)]
    fn load(self, a: &[f64; LANES]) -> __m128d {
        // SAFETY: reads `a[..2]`, in bounds; SSE2 is part of the x86-64
        // baseline.
        unsafe { _mm_loadu_pd(a.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, v: __m128d) -> [f64; LANES] {
        let mut a = [0.0; LANES];
        // SAFETY: writes `a[..2]`, in bounds; SSE2 is part of the x86-64
        // baseline.
        unsafe { _mm_storeu_pd(a.as_mut_ptr(), v) };
        a
    }

    #[inline(always)]
    fn add(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_add_pd(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m128d, b: __m128d) -> __m128d {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_mul_pd(a, b) }
    }

    #[inline(always)]
    fn add_unless(self, acc: __m128d, x: __m128d, skip: bool) -> __m128d {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            let keep_acc = _mm_castsi128_pd(_mm_set1_epi64x(-(skip as i64)));
            _mm_or_pd(_mm_and_pd(keep_acc, acc), _mm_andnot_pd(keep_acc, _mm_add_pd(acc, x)))
        }
    }

    #[inline(always)]
    fn chunk(self, cols: &[&[f64]; LANES], t: usize, n: usize, mut f: impl FnMut(usize, __m128d)) {
        // SAFETY: SSE2 is part of the x86-64 baseline, and each load reads
        // the two doubles of a slice just bounds-checked to hold them.
        unsafe {
            if n == 2 {
                let r0 = _mm_loadu_pd(cols[0][t..t + 2].as_ptr());
                let r1 = _mm_loadu_pd(cols[1][t..t + 2].as_ptr());
                f(0, _mm_unpacklo_pd(r0, r1));
                f(1, _mm_unpackhi_pd(r0, r1));
            } else {
                f(0, _mm_set_pd(cols[1][t], cols[0][t]));
            }
        }
    }
}

/// AVX's four-lane `ymm`, the AVX2 and AVX-512 instances' lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Ymm(());

#[cfg(target_arch = "x86_64")]
impl Lanes for Ymm {
    const W: usize = 4;
    type V = __m256d;
    type Half = Xmm;

    #[inline(always)]
    fn half(self) -> Xmm {
        Xmm(())
    }

    #[inline(always)]
    fn splat(self, x: f64) -> __m256d {
        // SAFETY: a `Ymm` exists only where AVX2 is confirmed (`Lanes`).
        unsafe { _mm256_set1_pd(x) }
    }

    #[inline(always)]
    fn load(self, a: &[f64; LANES]) -> __m256d {
        // SAFETY: reads `a[..4]`, in bounds; a `Ymm` exists only where AVX2
        // is confirmed (`Lanes`).
        unsafe { _mm256_loadu_pd(a.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, v: __m256d) -> [f64; LANES] {
        let mut a = [0.0; LANES];
        // SAFETY: writes `a[..4]`, in bounds; a `Ymm` exists only where
        // AVX2 is confirmed (`Lanes`).
        unsafe { _mm256_storeu_pd(a.as_mut_ptr(), v) };
        a
    }

    #[inline(always)]
    fn add(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: a `Ymm` exists only where AVX2 is confirmed (`Lanes`).
        unsafe { _mm256_add_pd(a, b) }
    }

    #[inline(always)]
    fn mul(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: a `Ymm` exists only where AVX2 is confirmed (`Lanes`).
        unsafe { _mm256_mul_pd(a, b) }
    }

    #[inline(always)]
    fn add_unless(self, acc: __m256d, x: __m256d, skip: bool) -> __m256d {
        // SAFETY: a `Ymm` exists only where AVX2 is confirmed (`Lanes`).
        unsafe {
            // `blendv` takes `acc` where the mask's sign bit is set.
            let keep_acc = _mm256_set1_pd(if skip { -0.0 } else { 0.0 });
            _mm256_blendv_pd(_mm256_add_pd(acc, x), acc, keep_acc)
        }
    }

    #[inline(always)]
    fn chunk(self, cols: &[&[f64]; LANES], t: usize, n: usize, mut f: impl FnMut(usize, __m256d)) {
        // SAFETY: a `Ymm` exists only where AVX2 is confirmed (`Lanes`).
        // Each load reads `n` doubles of a slice just bounds-checked to
        // hold them; `maskload` does not touch the masked-off lanes.
        unsafe {
            let (c0, c1, c2, c3) =
                (&cols[0][t..t + n], &cols[1][t..t + n], &cols[2][t..t + n], &cols[3][t..t + n]);
            let [r0, r1, r2, r3] = if n == 4 {
                [
                    _mm256_loadu_pd(c0.as_ptr()),
                    _mm256_loadu_pd(c1.as_ptr()),
                    _mm256_loadu_pd(c2.as_ptr()),
                    _mm256_loadu_pd(c3.as_ptr()),
                ]
            } else {
                let on = |lane: usize| -((n > lane) as i64);
                let mask = _mm256_set_epi64x(on(3), on(2), on(1), on(0));
                [
                    _mm256_maskload_pd(c0.as_ptr(), mask),
                    _mm256_maskload_pd(c1.as_ptr(), mask),
                    _mm256_maskload_pd(c2.as_ptr(), mask),
                    _mm256_maskload_pd(c3.as_ptr(), mask),
                ]
            };
            let t0 = _mm256_unpacklo_pd(r0, r1);
            let t1 = _mm256_unpackhi_pd(r0, r1);
            let t2 = _mm256_unpacklo_pd(r2, r3);
            let t3 = _mm256_unpackhi_pd(r2, r3);
            // The branches past the first are taken on every chunk but a
            // ragged last one.
            f(0, _mm256_permute2f128_pd::<0x20>(t0, t2));
            if n > 1 {
                f(1, _mm256_permute2f128_pd::<0x20>(t1, t3));
            }
            if n > 2 {
                f(2, _mm256_permute2f128_pd::<0x31>(t0, t2));
            }
            if n > 3 {
                f(3, _mm256_permute2f128_pd::<0x31>(t1, t3));
            }
        }
    }
}

/// One lane, for targets without the x86 instances (and for the sweep's
/// tests everywhere).
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy)]
pub(crate) struct Scalar;

#[cfg(any(test, not(target_arch = "x86_64")))]
impl Lanes for Scalar {
    const W: usize = 1;
    type V = f64;
    type Half = Scalar;

    #[inline(always)]
    fn half(self) -> Scalar {
        self
    }

    #[inline(always)]
    fn splat(self, x: f64) -> f64 {
        x
    }

    #[inline(always)]
    fn load(self, a: &[f64; LANES]) -> f64 {
        a[0]
    }

    #[inline(always)]
    fn store(self, v: f64) -> [f64; LANES] {
        let mut a = [0.0; LANES];
        a[0] = v;
        a
    }

    #[inline(always)]
    fn add(self, a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline(always)]
    fn mul(self, a: f64, b: f64) -> f64 {
        a * b
    }

    #[inline(always)]
    fn add_unless(self, acc: f64, x: f64, skip: bool) -> f64 {
        if skip {
            acc
        } else {
            acc + x
        }
    }

    #[inline(always)]
    fn chunk(self, cols: &[&[f64]; LANES], t: usize, _n: usize, mut f: impl FnMut(usize, f64)) {
        f(0, cols[0][t]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block `class_blocks` ran: its first class, its class count, its
    /// lane count, and each item the sweep handed over with its lanes.
    type Seen = (usize, usize, usize, Vec<(usize, [f64; LANES])>);

    /// A class-block pass that records what the sweep hands it.
    struct Record<'a> {
        cols: &'a [Vec<f64>],
        seen: Vec<Seen>,
    }

    impl ClassBlocks for Record<'_> {
        fn block<L: Lanes>(&mut self, lanes: L, c0: usize, k: usize) {
            let mut items = Vec::new();
            let cols = class_block(c0, k, |c| &self.cols[c][..]);
            class_lanes(lanes, &cols, |t, v| items.push((t, lanes.store(v))));
            self.seen.push((c0, k, L::W, items));
        }
    }

    /// `class_blocks` over `j` classes as a kernel: the instance's lane
    /// count and the blocks.
    struct Sweep<'a>(usize, Record<'a>);

    impl Wide for Sweep<'_> {
        type Out = (usize, Vec<Seen>);

        fn run<L: Lanes>(mut self, lanes: L) -> Self::Out {
            class_blocks(lanes, self.0, &mut self.1);
            (L::W, self.1.seen)
        }
    }

    /// Every class in exactly one block, the blocks in order, each as wide
    /// as `width` but the last, which runs on the narrowest lanes it
    /// fills more than half of; every item in order, each lane holding its
    /// class's weight, the padding lanes the block's last class, and the
    /// lanes past the block's width zero.
    fn check(width: usize, blocks: &[Seen], cols: &[Vec<f64>], what: &str) {
        let (j, len) = (cols.len(), cols[0].len());
        let mut next = 0;
        for (b, (c0, k, w, items)) in blocks.iter().enumerate() {
            let what = format!("{what}, block {b} ({c0}, {k} on {w} lanes)");
            assert_eq!(*c0, next, "{what}: blocks out of order");
            assert!(1 <= *k && k <= w, "{what}: class count");
            if b + 1 < blocks.len() {
                assert_eq!((*k, *w), (width, width), "{what}: a full block");
            } else {
                assert!(*w == width.min(2) || *k > w / 2, "{what}: lanes too wide");
                assert!(*w <= width, "{what}: lanes wider than the blocks");
            }
            next = c0 + k;
            let ts: Vec<usize> = items.iter().map(|(t, _)| *t).collect();
            assert_eq!(ts, (0..len).collect::<Vec<_>>(), "{what}: items");
            for (t, lanes) in items {
                for (l, &v) in lanes.iter().enumerate() {
                    let want = if l < *w { cols[c0 + l.min(k - 1)][*t] } else { 0.0 };
                    assert_eq!(v.to_bits(), want.to_bits(), "{what}: item {t}, lane {l}");
                }
            }
        }
        assert_eq!(next, j, "{what}: classes covered");
    }

    /// The class-lane sweep and its blocks on every instance this CPU
    /// supports, and on the scalar lanes: every class count up to eight
    /// blocks of four and one more, over columns of every ragged length.
    #[test]
    fn the_sweep_hands_every_item_in_order_on_every_instance() {
        for len in TILE_LENGTHS {
            for j in 1..=33 {
                let cols: Vec<Vec<f64>> =
                    (0..j).map(|c| (0..len).map(|t| (c * 1000 + t) as f64).collect()).collect();
                for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
                    let record = Record { cols: &cols, seen: Vec::new() };
                    let (width, blocks) = run_wide(isa, Sweep(j, record));
                    check(width, &blocks, &cols, &format!("{isa:?}, len {len}, J={j}"));
                }
                let mut record = Record { cols: &cols, seen: Vec::new() };
                class_blocks(Scalar, j, &mut record);
                check(1, &record.seen, &cols, &format!("scalar, len {len}, J={j}"));
            }
        }
    }

    /// `add_unless` on every lane type: the bits of `acc + x`, or of
    /// `acc + (-0.0)` when skipping, for signed zeros, infinities and NaN.
    #[test]
    fn add_unless_skips_with_the_bits_of_adding_negative_zero() {
        struct Adds;

        impl Wide for Adds {
            type Out = Vec<u64>;

            fn run<L: Lanes>(self, lanes: L) -> Vec<u64> {
                let vals = [0.0, -0.0, 1.5, -2.25, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                let mut bits = Vec::new();
                for acc in vals {
                    for x in vals {
                        for skip in [false, true] {
                            let (a, v) = (lanes.splat(acc), lanes.splat(x));
                            let sum = lanes.store(lanes.add_unless(a, v, skip))[0];
                            let want = acc + if skip { -0.0 } else { x };
                            assert_eq!(sum.to_bits(), want.to_bits(), "{acc} + {x}, skip {skip}");
                            bits.push(sum.to_bits());
                        }
                    }
                }
                bits
            }
        }

        let scalar = Adds.run(Scalar);
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            assert_eq!(run_wide(isa, Adds), scalar, "{isa:?}");
        }
    }
}
