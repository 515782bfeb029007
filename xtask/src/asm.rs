//! `cargo xtask asm`: check the machine code of the E/M kernels' wide
//! instances, which no test can see.
//!
//! The kernels are compiled once per x86 ISA level
//! (`autoclass::model::wide`: `run_plain`, `run_avx2`, `run_avx512`, one
//! instance of each per kernel body) and must give the same bits on
//! every level, so a kernel that silently falls back to scalar code, or
//! calls an intrinsic it failed to inline, passes every test and every
//! golden hash and is only slower. This task builds the release
//! `autoclass-cli`, which runs every kernel entry (the parallel cycle's
//! tile-resident E+M pass, the sequential search's E-step and
//! statistics), disassembles it with `objdump`, and fails when
//!
//! * an instance of a kernel body is missing from the binary;
//! * an E-step instance of `run_avx2` or `run_avx512` has no packed
//!   `vmaxpd` (pass B's `fast_exp` clamp went scalar: `vmaxsd` alone);
//! * any instance calls, or loads the address of, an intrinsic
//!   (`core::core_arch`), `try_map` or a closure's `call_mut`: something
//!   around an intrinsic was not inlined and runs at the baseline level.
//!
//! Which body an instance compiles is read from the inlined-function
//! names of the release profile's line tables (`objdump -l`); a call
//! through the GOT is resolved through the binary's dynamic relocations
//! (`objdump -R`). The task is skipped, with a message and success, where
//! `objdump` is missing or the host is not x86_64.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The kernel instance functions, by ISA level.
const LEVELS: [&str; 3] = ["run_plain", "run_avx2", "run_avx512"];

/// The kernel bodies every level must compile: a marker among the
/// instance's inlined-function names, and what the body is. The first
/// marker that matches names the body: the E+M body's tile loop is the
/// E-step's too.
const BODIES: [(&str, &str); 3] = [
    ("StatsSink>", "E+M (estep_and_stats_into)"),
    ("update_wts_tiled<", "E-step (update_wts_into)"),
    ("suffstats::Accumulate", STATISTICS),
];

const STATISTICS: &str = "statistics (SuffStats::accumulate)";

/// Callee names an instance must not reach.
const FORBIDDEN: [&str; 3] = ["core_arch", "try_map", "call_mut"];

pub fn asm() -> ExitCode {
    if !cfg!(target_arch = "x86_64") {
        println!("xtask asm: skipped: the wide kernel instances exist on x86_64 only");
        return ExitCode::SUCCESS;
    }
    let has_objdump = Command::new("objdump")
        .arg("--version")
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !has_objdump {
        println!("xtask asm: skipped: objdump (binutils) is not installed");
        return ExitCode::SUCCESS;
    }
    let result = build_cli().and_then(|bin| {
        let listing = objdump(&bin, &["-d", "-l", "--no-show-raw-insn", "-C"])?;
        let relocs = objdump(&bin, &["-R"])?;
        Ok((bin, check_listing(&listing, &relocs)))
    });
    match result {
        Ok((bin, problems)) => {
            if problems.is_empty() {
                println!(
                    "xtask asm: ok: {} kernel instances in {}",
                    BODIES.len() * LEVELS.len(),
                    bin.display()
                );
                ExitCode::SUCCESS
            } else {
                for p in &problems {
                    println!("xtask asm: {p}");
                }
                println!("xtask asm: {} problem(s) in {}", problems.len(), bin.display());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask asm: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build the release `autoclass-cli` and return the path cargo reports
/// for it.
fn build_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(crate::repo_root())
        .args(["build", "--offline", "--release", "-p", "p-autoclass", "--bin", "autoclass-cli"])
        .arg("--message-format=json-render-diagnostics")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err("building autoclass-cli failed".into());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    const KEY: &str = "\"executable\":\"";
    stdout
        .lines()
        .filter_map(|l| l.split_once(KEY).map(|(_, rest)| rest))
        .filter_map(|rest| rest.split_once('"').map(|(path, _)| path))
        .find(|path| path.ends_with("autoclass-cli"))
        .map(PathBuf::from)
        .ok_or_else(|| "cargo reported no autoclass-cli executable".into())
}

fn objdump(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("objdump")
        .args(args)
        .arg(bin)
        .output()
        .map_err(|e| format!("cannot run objdump: {e}"))?;
    if !out.status.success() {
        return Err(format!("objdump {} failed", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One kernel instance: its level, its inlined-function names and its
/// instructions.
struct Instance<'a> {
    level: &'static str,
    names: Vec<&'a str>,
    insns: Vec<&'a str>,
}

impl Instance<'_> {
    /// What the instance compiles, from its inlined-function names.
    fn kernel(&self) -> Option<&'static str> {
        let has = |marker: &str| self.names.iter().any(|n| n.contains(marker));
        BODIES.iter().find(|(m, _)| has(m)).map(|&(_, what)| what)
    }

    fn mnemonics(&self) -> impl Iterator<Item = &str> {
        self.insns.iter().filter_map(|i| i.split_whitespace().next())
    }
}

/// Every problem the listing shows (see the module docs); `relocs` is
/// `objdump -R` of the same binary.
fn check_listing(listing: &str, relocs: &str) -> Vec<String> {
    let functions = function_starts(listing);
    let got = got_slots(relocs);
    let instances = instances(listing);
    let mut problems = Vec::new();
    let mut found = BTreeMap::new();
    for inst in &instances {
        let Some(body) = inst.kernel() else {
            problems.push(format!(
                "{}: an instance with no kernel body among its inlined functions \
                 (the release profile needs its line tables)",
                inst.level
            ));
            continue;
        };
        *found.entry((inst.level, body)).or_insert(0) += 1;
        let what = format!("{} {body}", inst.level);
        let e_step = body != STATISTICS;
        if e_step && inst.level != "run_plain" && !inst.mnemonics().any(|m| m == "vmaxpd") {
            let scalar = inst.mnemonics().filter(|&m| m == "vmaxsd").count();
            problems.push(format!(
                "{what}: no packed vmaxpd ({scalar} scalar vmaxsd): pass B's fast_exp went scalar"
            ));
        }
        for insn in &inst.insns {
            let Some(callee) = target(insn, &got, &functions) else { continue };
            if let Some(bad) = FORBIDDEN.iter().find(|f| callee.contains(*f)) {
                problems.push(format!("{what}: reaches {callee} ({bad} was not inlined)"));
            }
        }
    }
    for level in LEVELS {
        for (_, body) in BODIES {
            if !found.contains_key(&(level, body)) {
                problems.push(format!(
                    "{level} {body}: not in the binary (is it a release build that calls \
                     every kernel entry?)"
                ));
            }
        }
    }
    problems
}

/// Function start addresses and names, from the listing's headers
/// (`0000000000165730 <name>:`).
fn function_starts(listing: &str) -> BTreeMap<u64, &str> {
    listing
        .lines()
        .filter_map(|l| {
            let (addr, rest) = l.split_once(" <")?;
            let name = rest.strip_suffix(">:")?;
            Some((u64::from_str_radix(addr, 16).ok()?, name))
        })
        .collect()
}

/// GOT slot → target address, from `objdump -R`'s relative relocations
/// (`00000000001e4f38 R_X86_64_RELATIVE  *ABS*+0x00000000001d569f`).
fn got_slots(relocs: &str) -> BTreeMap<u64, u64> {
    relocs
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let slot = u64::from_str_radix(f.next()?, 16).ok()?;
            (f.next()? == "R_X86_64_RELATIVE").then_some(())?;
            let addend = f.next()?.strip_prefix("*ABS*+0x")?;
            Some((slot, u64::from_str_radix(addend, 16).ok()?))
        })
        .collect()
}

/// The `run_*` instances of the kernels' `wide` module: each header's
/// lines up to the blank line that ends the function. With `-l`, a line
/// ending in `():` names an inlined function and a `path:line` line a
/// source position; every other line is an instruction.
fn instances(listing: &str) -> Vec<Instance<'_>> {
    let mut out = Vec::new();
    let mut cur: Option<Instance<'_>> = None;
    for line in listing.lines() {
        if let Some(inst) = cur.as_mut() {
            if line.is_empty() {
                out.extend(cur.take());
            } else if let Some(name) = line.strip_suffix("():") {
                inst.names.push(name);
            } else if let Some((_, insn)) = line.split_once(":\t") {
                inst.insns.push(insn);
            }
            continue;
        }
        let Some((_, rest)) = line.split_once(" <autoclass::model::wide::") else { continue };
        if let Some(level) = LEVELS.into_iter().find(|l| rest == format!("{l}>:")) {
            cur = Some(Instance { level, names: Vec::new(), insns: Vec::new() });
        }
    }
    out.extend(cur);
    out
}

/// The function an instruction calls, jumps to or takes the address of:
/// the `ADDR <name>` it names, or the function a GOT slot it reads holds.
fn target<'a>(
    insn: &'a str,
    got: &BTreeMap<u64, u64>,
    functions: &BTreeMap<u64, &'a str>,
) -> Option<&'a str> {
    // `call 18f250 <name>`, or a `# 1e4f38 <...>` comment on a
    // RIP-relative operand: no operand before the name holds " <".
    let (before, _) = insn.split_once(" <")?;
    let addr = before.rsplit(|c: char| c.is_whitespace() || c == '#').next()?;
    let addr = u64::from_str_radix(addr, 16).ok()?;
    functions.get(got.get(&addr).unwrap_or(&addr)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A listing of one level's three instances, in `objdump -d -l -C`'s
    /// layout. The E+M instance takes `vmaxpd` from `e_step_max`; the
    /// statistics instance calls the function at GOT slot `0x3000`.
    fn listing(e_step_max: &str) -> String {
        let names = [
            "update_wts_tiled<Ymm, NoSink>",
            "update_wts_tiled<Ymm, StatsSink>",
            "class_blocks<Ymm, suffstats::Accumulate>",
        ];
        let mut s = String::new();
        for (i, name) in names.iter().enumerate() {
            for (l, level) in LEVELS.iter().enumerate() {
                let at = 0x1000 + 0x100 * i + 0x10 * l;
                s += &format!("{at:016x} <autoclass::model::wide::{level}>:\n{name}():\n");
                s += "/src/model/estep.rs:400\n";
                let max = if i == 1 { e_step_max } else { "vmaxpd %ymm1,%ymm2,%ymm3" };
                s += &format!("  {:x}:\t{max}\n", at + 4);
                if i == 2 {
                    s += &format!(
                        "  {:x}:\tcall   *0x10(%rip)        # 3000 <_DYNAMIC+0x8>\n",
                        at + 8
                    );
                }
                s += "\n";
            }
        }
        s += "0000000000002000 <core::core_arch::x86::avx::_mm256_add_pd>:\n  2000:\tret\n\n";
        s += "0000000000004000 <core::panicking::panic_bounds_check>:\n  4000:\tret\n\n";
        s
    }

    #[test]
    fn a_clean_listing_passes() {
        let relocs = "0000000000003000 R_X86_64_RELATIVE  *ABS*+0x0000000000004000\n";
        assert_eq!(
            check_listing(&listing("vmaxpd %ymm1,%ymm2,%ymm3"), relocs),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_scalar_clamp_and_an_outlined_intrinsic_fail() {
        let relocs = "0000000000003000 R_X86_64_RELATIVE  *ABS*+0x0000000000002000\n";
        let problems = check_listing(&listing("vmaxsd %xmm1,%xmm2,%xmm3"), relocs);
        let scalar = problems.iter().filter(|p| p.contains("went scalar")).count();
        let outlined = problems.iter().filter(|p| p.contains("_mm256_add_pd")).count();
        // The plain level has no packed clamp to lose; every level calls
        // the intrinsic.
        assert_eq!((scalar, outlined, problems.len()), (2, 3, 5), "{problems:#?}");
    }

    #[test]
    fn a_missing_instance_fails() {
        let text = listing("vmaxpd %ymm1,%ymm2,%ymm3");
        let cut = text.find("0000000000001220 <autoclass::model::wide::run_avx512>").unwrap();
        let end = cut + text[cut..].find("\n\n").unwrap() + 2;
        let problems = check_listing(&format!("{}{}", &text[..cut], &text[end..]), "");
        assert_eq!(problems.len(), 1, "{problems:#?}");
        assert!(problems[0].starts_with("run_avx512 statistics"), "{problems:#?}");
    }
}
