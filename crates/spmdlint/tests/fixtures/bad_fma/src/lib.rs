//! Known-bad: fused multiply-adds in bitwise-pinned kernel code.
//! Never compiled — parsed by the spmdlint corpus tests only.

/// fma: a fused multiply-add method.
pub fn axpy(a: f64, x: f64, y: f64) -> f64 {
    a.mul_add(x, y)
}

/// fma: fused intrinsics, and an instance that enables the feature.
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    let d = _mm256_fmadd_pd(a, b, c);
    _mm256_fnmsub_pd(d, b, c)
}

/// Clean: the unfused pair, an instance without `fma`, and names that
/// only resemble the rule's (`fmax`, a string that mentions fma).
#[target_feature(enable = "avx2")]
unsafe fn unfused(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    let note = "no fma here";
    let _ = (note, f64::max(1.0, 2.0).fmax(3.0));
    _mm256_add_pd(_mm256_mul_pd(a, b), c)
}

/// Waived: a deliberate fused op, justified at its site.
pub fn waived(a: f64, x: f64, y: f64) -> f64 {
    a.mul_add(x, y) // lint:allow(fma): reference value for a tolerance test
}
