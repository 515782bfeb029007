//! Sets `cfg(mpsim_tsan)` in ThreadSanitizer builds, which selects the
//! thread-backed fiber (see `src/fiber.rs`): TSan cannot follow the
//! switched fiber's unannotated stack switches, and the thread backing
//! keeps real cross-thread handoffs for it to check.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(mpsim_tsan)");
    println!("cargo::rerun-if-changed=build.rs");
    println!("cargo::rerun-if-env-changed=RUSTFLAGS");
    println!("cargo::rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    // `-Zsanitizer=thread` arrives as one flag or as `-Z` `sanitizer=thread`.
    if flags.contains("sanitizer=thread") {
        println!("cargo::rustc-cfg=mpsim_tsan");
    }
}
