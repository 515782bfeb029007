//! Versioned, checksummed snapshots of the EM search state.
//!
//! A [`SearchCheckpoint`] captures everything the search's try loop
//! (`run.rs`) needs to resume a search mid-try: the position in the
//! `start_j_list × tries` schedule, the current try's EM state (class
//! parameters, previous log likelihood, cycle count), and the
//! classifications stored so far. Because the parallel search keeps this
//! state bitwise replicated on every rank, one checkpoint describes the
//! whole machine — and resuming from it reproduces the unfaulted run's
//! final classification bit for bit (see `recover.rs`). The fleet search's
//! round image (`crate::fleet`) is the same kind of machine-wide image and
//! travels in the same frame (`frame`/`unframe`) under its own magic,
//! so the supervisor stores, reloads, shards and checks both alike.
//!
//! The wire format is deliberately self-contained: a fixed header (magic,
//! version, payload length, FNV-1a checksum) followed by a flat sequence
//! of little-endian `u64` words, with every `f64` carried as its raw bit
//! pattern (`to_bits`/`from_bits` round-trips exactly — no text
//! round-off). Decoding never panics: truncation, corruption, or a
//! foreign file surface as a typed [`CheckpointError`].

use autoclass::model::Approximation;
use autoclass::search::Classification;
use mpsim::payload::checksum;

/// First eight bytes of every search checkpoint (`b"PACCKPT1"`).
pub const MAGIC: u64 = u64::from_le_bytes(*b"PACCKPT1");
/// Current format version. Bumped on any layout change; old versions are
/// rejected with [`CheckpointError::BadVersion`] rather than misread.
pub const VERSION: u64 = 1;

/// Header length in bytes: magic, version, payload length, checksum.
const HEADER_LEN: usize = 32;

/// First eight bytes of every checkpoint *shard* (`b"PACSHRD1"`).
pub const SHARD_MAGIC: u64 = u64::from_le_bytes(*b"PACSHRD1");

/// Shard header length in bytes: magic, owner rank, shard count, chunk
/// length, chunk checksum.
const SHARD_HEADER_LEN: usize = 40;

/// Why checkpoint bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Actual byte count.
        len: usize,
    },
    /// The magic number is wrong — not a checkpoint at all.
    BadMagic {
        /// The first eight bytes, read little-endian.
        found: u64,
    },
    /// A checkpoint, but from an incompatible format version.
    BadVersion {
        /// The version the header declares.
        found: u64,
    },
    /// The header's payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload bytes actually present.
        len: usize,
        /// Payload bytes the header declares.
        expected: usize,
    },
    /// The payload checksum does not match — the bytes were altered.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// A checkpoint shard's chunk checksum does not match — unlike
    /// [`CheckpointError::ChecksumMismatch`] this names the shard's owner,
    /// so a promotion supervisor can report *whose* state is damaged.
    ShardCorrupt {
        /// The logical rank that owns the corrupt shard.
        logical_rank: usize,
        /// Checksum stored in the shard header.
        expected: u64,
        /// Checksum of the chunk as read.
        found: u64,
    },
    /// Structurally invalid payload (a field ran off the end, or an
    /// enum-like field held an impossible value).
    Malformed {
        /// Which field failed to decode.
        what: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooShort { len } => {
                write!(f, "checkpoint too short: {len} bytes, header needs {HEADER_LEN}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad checkpoint magic {found:#018x}")
            }
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (expected {VERSION})")
            }
            CheckpointError::LengthMismatch { len, expected } => {
                write!(f, "checkpoint payload is {len} bytes but the header declares {expected}")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#018x}, payload hashes to \
                 {found:#018x}"
            ),
            CheckpointError::ShardCorrupt { logical_rank, expected, found } => write!(
                f,
                "checkpoint shard for logical rank {logical_rank} is corrupt: header says \
                 {expected:#018x}, chunk hashes to {found:#018x}"
            ),
            CheckpointError::Malformed { what } => {
                write!(f, "malformed checkpoint payload: bad {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One stored classification, flattened for the checkpoint payload.
///
/// Carries the [`Classification`] fields verbatim, with the class
/// parameters in their broadcast flat form; rebuilding against the
/// (replicated, deterministic) `Model` restores the original bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptClassification {
    /// The J the try started with.
    pub j_initial: usize,
    /// Final class count (class death may have shrunk J).
    pub j: usize,
    /// `[log_likelihood, complete_ll, complete_marginal, cs_score]`.
    pub approx: [f64; 4],
    /// Log prior density of the final parameters.
    pub log_prior: f64,
    /// EM cycles the try ran.
    pub cycles: usize,
    /// Whether the convergence criterion fired.
    pub converged: bool,
    /// The try's derived RNG seed.
    pub seed: u64,
    /// Flat class parameters (`classes_to_flat` layout).
    pub classes_flat: Vec<f64>,
}

impl CkptClassification {
    /// Flatten a stored classification for the payload.
    pub fn from_classification(c: &Classification) -> Self {
        CkptClassification {
            j_initial: c.j_initial,
            j: c.classes.len(),
            approx: approx_to(c.approx),
            log_prior: c.log_prior,
            cycles: c.cycles,
            converged: c.converged,
            seed: c.seed,
            classes_flat: autoclass::model::classes_to_flat(&c.classes),
        }
    }

    /// Rebuild the full classification against the model (replicated on
    /// every rank, so the restore is identical machine-wide).
    pub fn to_classification(&self, model: &autoclass::model::Model) -> Classification {
        Classification {
            classes: autoclass::model::classes_from_flat(model, self.j, &self.classes_flat),
            j_initial: self.j_initial,
            approx: approx_from(self.approx),
            log_prior: self.log_prior,
            cycles: self.cycles,
            converged: self.converged,
            seed: self.seed,
        }
    }
}

/// An [`Approximation`]'s scores in checkpoint order:
/// `[log_likelihood, complete_ll, complete_marginal, cs_score]`.
pub(crate) fn approx_to(a: Approximation) -> [f64; 4] {
    [a.log_likelihood, a.complete_ll, a.complete_marginal, a.cs_score]
}

/// The inverse of [`approx_to`].
pub(crate) fn approx_from(v: [f64; 4]) -> Approximation {
    Approximation {
        log_likelihood: v[0],
        complete_ll: v[1],
        complete_marginal: v[2],
        cs_score: v[3],
    }
}

/// A resumable snapshot of the parallel search, taken at an EM cycle
/// boundary (every state below is bitwise replicated across ranks there).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// Index into `start_j_list` of the try in progress.
    pub ji: usize,
    /// Restart index within that J.
    pub try_idx: usize,
    /// EM cycles the current try has completed.
    pub cycle: usize,
    /// Current class count (after any class death).
    pub j_current: usize,
    /// The current try's derived RNG seed. Recomputable from the search
    /// config, but stored so a checkpoint is self-describing.
    pub seed: u64,
    /// Previous cycle's log likelihood (the convergence reference;
    /// `-inf` right after init or class death).
    pub prev_ll: f64,
    /// `[log_likelihood, complete_ll, complete_marginal, cs_score]` of the
    /// last completed cycle.
    pub approx: [f64; 4],
    /// EM cycles completed by earlier (finished) tries.
    pub total_cycles: usize,
    /// Current class parameters, flat (`classes_to_flat` layout).
    pub classes_flat: Vec<f64>,
    /// Classifications stored by finished tries, flattened.
    pub best: Vec<CkptClassification>,
}

impl SearchCheckpoint {
    /// Serialize to the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.ji as u64);
        put_u64(&mut payload, self.try_idx as u64);
        put_u64(&mut payload, self.cycle as u64);
        put_u64(&mut payload, self.j_current as u64);
        put_u64(&mut payload, self.seed);
        put_f64(&mut payload, self.prev_ll);
        for v in self.approx {
            put_f64(&mut payload, v);
        }
        put_u64(&mut payload, self.total_cycles as u64);
        put_f64s(&mut payload, &self.classes_flat);
        put_u64(&mut payload, self.best.len() as u64);
        for b in &self.best {
            put_u64(&mut payload, b.j_initial as u64);
            put_u64(&mut payload, b.j as u64);
            for v in b.approx {
                put_f64(&mut payload, v);
            }
            put_f64(&mut payload, b.log_prior);
            put_u64(&mut payload, b.cycles as u64);
            put_u64(&mut payload, u64::from(b.converged));
            put_u64(&mut payload, b.seed);
            put_f64s(&mut payload, &b.classes_flat);
        }
        frame(MAGIC, &payload)
    }

    /// Decode and validate checkpoint bytes.
    ///
    /// # Errors
    /// Every way the bytes can be wrong is a distinct [`CheckpointError`];
    /// no input, however mangled, panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = unframe(bytes, MAGIC)?;
        let ji = r.u64("ji")? as usize;
        let try_idx = r.u64("try index")? as usize;
        let cycle = r.u64("cycle")? as usize;
        let j_current = r.u64("class count")? as usize;
        let seed = r.u64("seed")?;
        let prev_ll = r.f64("prev_ll")?;
        let approx = r.f64x4("approximation")?;
        let total_cycles = r.u64("total cycles")? as usize;
        let classes_flat = r.f64s("class parameters")?;
        let n_best = r.u64("stored count")? as usize;
        let mut best = Vec::new();
        for _ in 0..n_best {
            let j_initial = r.u64("stored j_initial")? as usize;
            let j = r.u64("stored class count")? as usize;
            let approx = r.f64x4("stored approximation")?;
            let log_prior = r.f64("stored log prior")?;
            let cycles = r.u64("stored cycles")? as usize;
            let converged = match r.u64("stored converged flag")? {
                0 => false,
                1 => true,
                _ => return Err(CheckpointError::Malformed { what: "stored converged flag" }),
            };
            let seed = r.u64("stored seed")?;
            let classes_flat = r.f64s("stored class parameters")?;
            best.push(CkptClassification {
                j_initial,
                j,
                approx,
                log_prior,
                cycles,
                converged,
                seed,
                classes_flat,
            });
        }
        r.done()?;
        Ok(SearchCheckpoint {
            ji,
            try_idx,
            cycle,
            j_current,
            seed,
            prev_ll,
            approx,
            total_cycles,
            classes_flat,
            best,
        })
    }
}

/// Wrap a checkpoint payload in the fixed header: `magic`, [`VERSION`],
/// payload length and the payload's FNV-1a checksum.
pub(crate) fn frame(magic: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u64(&mut out, magic);
    put_u64(&mut out, VERSION);
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Check the header [`frame`] wrote and return a reader over the payload
/// it covers.
pub(crate) fn unframe(bytes: &[u8], magic: u64) -> Result<Reader<'_>, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    let mut r = Reader { bytes, pos: 0 };
    let found = r.u64("magic")?;
    if found != magic {
        return Err(CheckpointError::BadMagic { found });
    }
    let version = r.u64("version")?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let declared = r.u64("payload length")? as usize;
    let sum = r.u64("checksum")?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != declared {
        return Err(CheckpointError::LengthMismatch { len: payload.len(), expected: declared });
    }
    let found = checksum(payload);
    if found != sum {
        return Err(CheckpointError::ChecksumMismatch { expected: sum, found });
    }
    Ok(Reader { bytes: payload, pos: 0 })
}

/// Split serialized checkpoint bytes into `p` framed shards, one per
/// logical rank — contiguous chunks whose sizes differ by at most one
/// byte. Each shard is independently verifiable: a fixed header (shard
/// magic, owner rank, shard count, chunk length, FNV-1a chunk checksum)
/// followed by the chunk bytes. A promoted spare loads only the culprit's
/// shard; the per-shard checksum turns silent storage corruption into a
/// typed [`CheckpointError::ShardCorrupt`] *naming the owner*, so the
/// supervisor can fall back to a full restart from the intact copy.
///
/// # Panics
/// Panics if `p == 0`.
pub fn to_shards(bytes: &[u8], p: usize) -> Vec<Vec<u8>> {
    assert!(p > 0, "need at least one shard");
    autoclass::data::block_partition(bytes.len(), p)
        .into_iter()
        .enumerate()
        .map(|(rank, range)| {
            let chunk = &bytes[range];
            let mut out = Vec::with_capacity(SHARD_HEADER_LEN + chunk.len());
            put_u64(&mut out, SHARD_MAGIC);
            put_u64(&mut out, rank as u64);
            put_u64(&mut out, p as u64);
            put_u64(&mut out, chunk.len() as u64);
            put_u64(&mut out, checksum(chunk));
            out.extend_from_slice(chunk);
            out
        })
        .collect()
}

/// Deterministically damage one chunk byte of a framed shard — the
/// shard-level fault injector behind [`crate::ShardFault`]. The offset is
/// taken modulo the chunk length and the mask is forced non-zero, so the
/// flip always lands inside the chunk and always changes it. No-op on an
/// empty chunk (there is nothing to damage).
pub fn corrupt_shard(shard: &mut [u8], byte: usize, mask: u8) {
    let chunk_len = shard.len().saturating_sub(SHARD_HEADER_LEN);
    if chunk_len == 0 {
        return;
    }
    shard[SHARD_HEADER_LEN + byte % chunk_len] ^= mask | 1;
}

/// Decode one framed shard into `(owner logical rank, shard count, chunk)`.
///
/// # Errors
/// Truncation, a foreign magic, a length disagreement, an impossible owner
/// rank, and a chunk-checksum mismatch each surface as their own
/// [`CheckpointError`]; corruption names the owner via
/// [`CheckpointError::ShardCorrupt`].
pub fn decode_shard(bytes: &[u8]) -> Result<(usize, usize, Vec<u8>), CheckpointError> {
    if bytes.len() < SHARD_HEADER_LEN {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.u64("shard magic")?;
    if magic != SHARD_MAGIC {
        return Err(CheckpointError::BadMagic { found: magic });
    }
    let logical_rank = r.u64("shard owner rank")? as usize;
    let total = r.u64("shard count")? as usize;
    let declared = r.u64("shard chunk length")? as usize;
    let sum = r.u64("shard checksum")?;
    if total == 0 || logical_rank >= total {
        return Err(CheckpointError::Malformed { what: "shard owner rank" });
    }
    let chunk = &bytes[SHARD_HEADER_LEN..];
    if chunk.len() != declared {
        return Err(CheckpointError::LengthMismatch { len: chunk.len(), expected: declared });
    }
    let found = checksum(chunk);
    if found != sum {
        return Err(CheckpointError::ShardCorrupt { logical_rank, expected: sum, found });
    }
    Ok((logical_rank, total, chunk.to_vec()))
}

/// Reassemble full checkpoint bytes from the complete shard set, in owner
/// order (shard `i` must belong to logical rank `i`).
///
/// # Errors
/// Propagates per-shard decode errors; a wrong shard count, an
/// out-of-order owner, or an empty set are [`CheckpointError::Malformed`].
pub fn from_shards(shards: &[Vec<u8>]) -> Result<Vec<u8>, CheckpointError> {
    if shards.is_empty() {
        return Err(CheckpointError::Malformed { what: "empty shard set" });
    }
    let mut out = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let (rank, total, chunk) = decode_shard(shard)?;
        if total != shards.len() {
            return Err(CheckpointError::Malformed { what: "shard count" });
        }
        if rank != i {
            return Err(CheckpointError::Malformed { what: "shard order" });
        }
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f64(out, v);
    }
}

/// Bounds-checked little-endian word reader; overruns become
/// [`CheckpointError::Malformed`] naming the field.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CheckpointError::Malformed { what });
        };
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(w))
    }

    pub(crate) fn usize(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        Ok(self.u64(what)? as usize)
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn f64x4(&mut self, what: &'static str) -> Result<[f64; 4], CheckpointError> {
        Ok([self.f64(what)?, self.f64(what)?, self.f64(what)?, self.f64(what)?])
    }

    pub(crate) fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, CheckpointError> {
        let n = self.u64(what)? as usize;
        // A corrupt length that slipped past the checksum must not drive a
        // huge allocation; the remaining bytes bound the element count.
        if n > (self.bytes.len() - self.pos) / 8 {
            return Err(CheckpointError::Malformed { what });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// Require that every payload byte was read.
    pub(crate) fn done(self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Malformed { what: "trailing bytes" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchCheckpoint {
        SearchCheckpoint {
            ji: 1,
            try_idx: 2,
            cycle: 7,
            j_current: 3,
            seed: 0xDEAD_BEEF,
            prev_ll: -1234.5678,
            approx: [-1200.0, -1300.0, -1350.5, -1400.25],
            total_cycles: 19,
            classes_flat: vec![1.5, -2.5, f64::NEG_INFINITY, 0.0, 3.25e-300],
            best: vec![CkptClassification {
                j_initial: 4,
                j: 3,
                approx: [-1.0, -2.0, -3.0, -4.0],
                log_prior: -55.5,
                cycles: 12,
                converged: true,
                seed: 42,
                classes_flat: vec![0.125, 7.75],
            }],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = SearchCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        // Special values survive as bit patterns, not text.
        assert_eq!(back.classes_flat[2].to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        assert_eq!(
            SearchCheckpoint::from_bytes(&bytes[..HEADER_LEN - 1]),
            Err(CheckpointError::TooShort { len: HEADER_LEN - 1 })
        );
        // Cut inside the payload: the declared length no longer matches.
        let cut = &bytes[..bytes.len() - 9];
        assert!(matches!(
            SearchCheckpoint::from_bytes(cut),
            Err(CheckpointError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn any_payload_byte_flip_is_a_checksum_error() {
        let bytes = sample().to_bytes();
        for pos in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    SearchCheckpoint::from_bytes(&bad),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "flip at {pos} not caught"
            );
        }
    }

    #[test]
    fn foreign_bytes_are_rejected_by_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SearchCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert_eq!(
            SearchCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadVersion { found: 99 })
        );
        assert!(matches!(
            SearchCheckpoint::from_bytes(&[0u8; 4]),
            Err(CheckpointError::TooShort { len: 4 })
        ));
    }

    #[test]
    fn shards_round_trip_for_every_machine_size() {
        let bytes = sample().to_bytes();
        for p in 1..=7 {
            let shards = to_shards(&bytes, p);
            assert_eq!(shards.len(), p);
            let back = from_shards(&shards).unwrap();
            assert_eq!(back, bytes, "p = {p}");
            assert_eq!(SearchCheckpoint::from_bytes(&back).unwrap(), sample());
        }
    }

    #[test]
    fn a_flipped_chunk_byte_names_the_shard_owner() {
        let bytes = sample().to_bytes();
        let shards = to_shards(&bytes, 4);
        for (rank, shard) in shards.iter().enumerate() {
            if shard.len() == SHARD_HEADER_LEN {
                continue; // empty chunk: nothing to flip
            }
            let mut bad = shard.clone();
            let mid = SHARD_HEADER_LEN + (bad.len() - SHARD_HEADER_LEN) / 2;
            bad[mid] ^= 0x04;
            match decode_shard(&bad) {
                Err(CheckpointError::ShardCorrupt { logical_rank, .. }) => {
                    assert_eq!(logical_rank, rank);
                }
                other => panic!("expected ShardCorrupt for rank {rank}, got {other:?}"),
            }
        }
    }

    #[test]
    fn shard_reassembly_rejects_wrong_sets() {
        let bytes = sample().to_bytes();
        let mut shards = to_shards(&bytes, 3);
        shards.swap(0, 1);
        assert_eq!(from_shards(&shards), Err(CheckpointError::Malformed { what: "shard order" }));
        let shards = to_shards(&bytes, 3);
        assert_eq!(
            from_shards(&shards[..2]),
            Err(CheckpointError::Malformed { what: "shard count" })
        );
        assert_eq!(from_shards(&[]), Err(CheckpointError::Malformed { what: "empty shard set" }));
    }

    #[test]
    fn foreign_shard_bytes_are_typed() {
        let bytes = sample().to_bytes();
        let mut shard = to_shards(&bytes, 2).swap_remove(0);
        shard[0] ^= 0xFF;
        assert!(matches!(decode_shard(&shard), Err(CheckpointError::BadMagic { .. })));
        assert!(matches!(
            decode_shard(&[0u8; SHARD_HEADER_LEN - 1]),
            Err(CheckpointError::TooShort { .. })
        ));
        // A full-checkpoint header is not a shard.
        assert!(matches!(decode_shard(&bytes), Err(CheckpointError::BadMagic { .. })));
    }

    #[test]
    fn errors_display_their_coordinates() {
        let e = CheckpointError::ChecksumMismatch { expected: 1, found: 2 };
        let s = e.to_string();
        assert!(s.contains("checksum"), "{s}");
        assert!(
            CheckpointError::Malformed { what: "seed" }.to_string().contains("seed"),
            "field name missing"
        );
    }
}
