//! Shared on-disk codec: the length-prefixed envelope, the payload
//! encoder/decoder, stable enum tag tables, and aligned little-endian
//! column views.
//!
//! Two file families share one envelope — corpus segments (`OFFNSSEG`)
//! and study artifacts (`OFFNARTF`): `magic · version · fingerprint ·
//! length-prefixed payload · SHA-256(payload)`. [`read_envelope`]
//! validates the fixed-size header (magic, version, and the declared
//! length against the file's actual size) *before* the payload is read,
//! so a corrupt length field can never drive a giant allocation — the
//! payload buffer is bounded by what is really on disk. Callers map
//! [`EnvelopeIssue`] onto their own typed error enums so each family keeps
//! its own variants and remedy strings.
//!
//! Payloads are hand-rolled little-endian encodings ([`Enc`]/[`Dec`]) with
//! *stable tag tables* for every enum — map iteration orders are
//! canonicalized at encode time — so a file's bytes are a pure function of
//! its contents.
//!
//! The column views ([`U32Col`], [`U64Col`]) are the segment format's
//! zero-copy primitive: a sorted integer column is written as a count
//! followed by padding to the element's natural alignment and the raw
//! little-endian words, and is *read* as a borrowed slice of the one
//! loaded payload buffer. Consumers iterate `from_le_bytes` over the
//! slice — no per-column `Vec` materialization on the warm-admission
//! path. (Alignment is relative to the payload start; decoding is safe
//! Rust either way, the padding just keeps the format mmap-friendly.)

use crate::checkpoint::CheckpointError;
use crate::errors::RecordError;
use crate::study::StudyConfig;
use crate::validate::{InvalidReason, ValidationStats};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use scanner::{ScanEngine, ScanHealth, TransientClass};
use sha2sim::Sha256;
use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use x509::ChainError;

/// Fixed envelope header: 8-byte magic, u32 version, u64 fingerprint,
/// u64 payload length.
pub(crate) const ENVELOPE_HEADER: usize = 8 + 4 + 8 + 8;

/// What went wrong while opening an envelope, before family-specific
/// error mapping.
pub(crate) enum EnvelopeIssue {
    Io(PathBuf, std::io::Error),
    /// Missing/wrong magic — including files shorter than the header.
    BadMagic,
    BadVersion {
        found: u32,
    },
    Corrupt(String),
}

/// Validate the header of `path` against `magic`/`version`, check the
/// declared payload length against the file size, then read and
/// checksum-verify the payload. Returns the stored fingerprint (callers
/// compare it themselves — mismatch severity differs per family) and the
/// payload bytes.
pub(crate) fn read_envelope(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
) -> Result<(u64, Vec<u8>), EnvelopeIssue> {
    let mut f = std::fs::File::open(path).map_err(|e| EnvelopeIssue::Io(path.to_path_buf(), e))?;
    let file_len = f
        .metadata()
        .map_err(|e| EnvelopeIssue::Io(path.to_path_buf(), e))?
        .len();
    let mut header = [0u8; ENVELOPE_HEADER];
    if let Err(e) = f.read_exact(&mut header) {
        // A file shorter than the header can't carry the magic.
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EnvelopeIssue::BadMagic
        } else {
            EnvelopeIssue::Io(path.to_path_buf(), e)
        });
    }
    if &header[..8] != magic {
        return Err(EnvelopeIssue::BadMagic);
    }
    let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(EnvelopeIssue::BadVersion { found });
    }
    let fingerprint = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    let len = usize::try_from(declared)
        .map_err(|_| EnvelopeIssue::Corrupt(format!("oversized payload length {declared}")))?;
    // Header-first length check: reject before allocating anything
    // payload-sized, so the allocation below is bounded by the real file.
    let rest = (file_len as usize).saturating_sub(ENVELOPE_HEADER);
    if len.checked_add(32) != Some(rest) {
        return Err(EnvelopeIssue::Corrupt(format!(
            "payload length {rest} != declared {len} + 32"
        )));
    }
    let mut body = vec![0u8; rest];
    if let Err(e) = f.read_exact(&mut body) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EnvelopeIssue::Corrupt("file shrank while reading".to_owned())
        } else {
            EnvelopeIssue::Io(path.to_path_buf(), e)
        });
    }
    {
        let (payload, checksum) = body.split_at(len);
        if Sha256::digest(payload) != checksum[..32] {
            return Err(EnvelopeIssue::Corrupt("checksum mismatch".to_owned()));
        }
    }
    body.truncate(len);
    Ok((fingerprint, body))
}

/// Atomically write one envelope file (temp + rename). Returns the path
/// that failed with the error, for family-specific wrapping.
pub(crate) fn write_envelope(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    fingerprint: u64,
    payload: &[u8],
) -> Result<(), (PathBuf, std::io::Error)> {
    let mut file = Vec::with_capacity(payload.len() + ENVELOPE_HEADER + 32);
    file.extend_from_slice(magic);
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&fingerprint.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file.extend_from_slice(&Sha256::digest(payload));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &file).map_err(|e| (tmp.clone(), e))?;
    std::fs::rename(&tmp, path).map_err(|e| (path.to_path_buf(), e))
}

// ---------------------------------------------------------------------------
// Study fingerprint.
// ---------------------------------------------------------------------------

/// Format constant mixed into [`fingerprint_with_tag`]. Changing it
/// changes every artifact fingerprint.
const FINGERPRINT_FORMAT: u64 = 1;

/// The fingerprint chain behind [`crate::artifact::artifact_fingerprint`]:
/// everything that shapes study output — the world scenario, the engine
/// (identity, coverage windows, attached fault and transient plans) and
/// the pipeline knobs — salted with a caller-chosen tag. The snapshot
/// range is deliberately excluded so a study can be extended under a
/// longer range.
pub(crate) fn fingerprint_with_tag(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
    driver_tag: u64,
) -> u64 {
    let sc = world.config();
    let mut h = mix(0x0ff5_e7c4_ecb9_0a17);
    h = mix(h ^ FINGERPRINT_FORMAT);
    h = mix(h ^ driver_tag);
    // World.
    h = mix(h ^ sc.seed);
    h = mix(h ^ sc.footprint_scale.to_bits());
    h = mix(h ^ sc.ip_scale.to_bits());
    h = mix(h ^ sc.background_ips.0 ^ sc.background_ips.1.rotate_left(32));
    h = mix(h ^ sc.countermeasures.len() as u64);
    h = mix(h ^ world.n_snapshots() as u64);
    // Engine.
    h = mix(h ^ engine_tag(engine));
    h = mix(h ^ engine.active_since as u64);
    h = mix(h ^ engine.https_headers_since.map_or(u64::MAX, |s| s as u64));
    h = mix(h ^ engine.faults.as_ref().map_or(0, |p| p.fingerprint()));
    h = mix(h ^ engine.transients.as_ref().map_or(0, |p| p.fingerprint()));
    // Pipeline knobs.
    h = mix(h ^ config.header_reference_snapshot as u64);
    h = mix(h ^ confirm_tag(config) ^ candidate_bits(config) << 8);
    h
}

pub(crate) fn engine_tag(engine: &ScanEngine) -> u64 {
    match engine.id {
        scanner::EngineId::Rapid7 => 1,
        scanner::EngineId::Censys => 2,
        scanner::EngineId::Certigo => 3,
    }
}

fn confirm_tag(config: &StudyConfig) -> u64 {
    match config.confirm_mode {
        crate::confirm::ConfirmMode::HttpOrHttps => 1,
        crate::confirm::ConfirmMode::HttpAndHttps => 2,
    }
}

fn candidate_bits(config: &StudyConfig) -> u64 {
    u64::from(config.candidate_options.require_san_subset)
        | u64::from(config.candidate_options.cloudflare_filter) << 1
}

/// splitmix64 — the repo-wide seeded-hash primitive.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Stable enum tag tables. Append-only: reordering or inserting in the middle
// is a format break (bump the file format versions instead of renumbering).
// ---------------------------------------------------------------------------

pub(crate) const CHAIN_ERRORS: [ChainError; 9] = [
    ChainError::Empty,
    ChainError::Expired,
    ChainError::NotYetValid,
    ChainError::SelfSignedEndEntity,
    ChainError::IntermediateExpired,
    ChainError::IntermediateNotCa,
    ChainError::BadSignature,
    ChainError::UntrustedRoot,
    ChainError::TooLong,
];

pub(crate) const RECORD_ERRORS: [RecordError; 11] = [
    RecordError::MalformedDer,
    RecordError::DuplicateIp,
    RecordError::Expired,
    RecordError::NotYetValid,
    RecordError::SelfSignedEndEntity,
    RecordError::UntrustedChain,
    RecordError::BadSignature,
    RecordError::ChainTooLong,
    RecordError::OtherChain,
    RecordError::HeaderOversized,
    RecordError::HeaderMojibake,
];

pub(crate) fn invalid_reason_tag(r: InvalidReason) -> u8 {
    match r {
        InvalidReason::Malformed => 0,
        InvalidReason::DuplicateIp => 1,
        InvalidReason::Chain(e) => {
            2 + CHAIN_ERRORS
                .iter()
                .position(|&c| c == e)
                .expect("chain error in tag table") as u8
        }
    }
}

pub(crate) fn invalid_reason_from_tag(tag: u8) -> Option<InvalidReason> {
    match tag {
        0 => Some(InvalidReason::Malformed),
        1 => Some(InvalidReason::DuplicateIp),
        t => CHAIN_ERRORS
            .get(t as usize - 2)
            .map(|&e| InvalidReason::Chain(e)),
    }
}

pub(crate) fn record_error_tag(r: RecordError) -> u8 {
    RECORD_ERRORS
        .iter()
        .position(|&e| e == r)
        .expect("record error in tag table") as u8
}

pub(crate) fn transient_tag(c: TransientClass) -> u8 {
    TransientClass::ALL
        .iter()
        .position(|&t| t == c)
        .expect("transient class in tag table") as u8
}

pub(crate) fn hg_tag(hg: Hg) -> u8 {
    ALL_HGS
        .iter()
        .position(|&h| h == hg)
        .expect("hg in ALL_HGS") as u8
}

// ---------------------------------------------------------------------------
// Encoder / decoder.
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
    pub(crate) fn rows(&mut self, rows: &[(u32, u64)]) {
        self.usize(rows.len());
        for &(ip, dg) in rows {
            self.u32(ip);
            self.u64(dg);
        }
    }
    pub(crate) fn as_set(&mut self, set: &BTreeSet<AsId>) {
        self.usize(set.len());
        for a in set {
            self.u32(a.0);
        }
    }
}

pub(crate) struct Dec<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) path: &'a Path,
}

impl<'a> Dec<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CheckpointError::corrupt(self.path, "payload overrun"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::corrupt(self.path, format!("bad bool {v}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::corrupt(self.path, format!("oversized count {v}")))
    }
    /// A count that will allocate: bound it by the bytes that could
    /// plausibly remain, so a corrupt length can't trigger a huge alloc.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(CheckpointError::corrupt(
                self.path,
                format!("count {n} exceeds remaining payload"),
            ));
        }
        Ok(n)
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::corrupt(self.path, "non-UTF-8 string"))
    }
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }
    pub(crate) fn rows(&mut self) -> Result<Vec<(u32, u64)>, CheckpointError> {
        let n = self.count(12)?;
        (0..n).map(|_| Ok((self.u32()?, self.u64()?))).collect()
    }
    pub(crate) fn as_set(&mut self) -> Result<BTreeSet<AsId>, CheckpointError> {
        let n = self.count(4)?;
        (0..n).map(|_| Ok(AsId(self.u32()?))).collect()
    }
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::corrupt(
                self.path,
                format!("{} trailing bytes", self.buf.len() - self.pos),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Shared record codecs: §4.1 validation stats and scan health.
// ---------------------------------------------------------------------------

pub(crate) fn encode_validation(e: &mut Enc, v: &ValidationStats) {
    e.usize(v.total_records);
    e.usize(v.valid);
    // HashMap: canonicalize by stable tag.
    let mut entries: Vec<(u8, usize)> = v
        .invalid
        .iter()
        .map(|(&r, &n)| (invalid_reason_tag(r), n))
        .collect();
    entries.sort_unstable();
    e.usize(entries.len());
    for (tag, n) in entries {
        e.u8(tag);
        e.usize(n);
    }
}

pub(crate) fn decode_validation(d: &mut Dec) -> Result<ValidationStats, CheckpointError> {
    let total_records = d.usize()?;
    let valid = d.usize()?;
    let n = d.count(9)?;
    let mut invalid = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        let tag = d.u8()?;
        let reason = invalid_reason_from_tag(tag).ok_or_else(|| {
            CheckpointError::corrupt(d.path, format!("bad invalid-reason tag {tag}"))
        })?;
        invalid.insert(reason, d.usize()?);
    }
    Ok(ValidationStats {
        total_records,
        valid,
        invalid,
    })
}

pub(crate) fn encode_health(e: &mut Enc, h: &ScanHealth) {
    e.usize(h.targets);
    e.usize(h.attempts);
    e.usize(h.retries);
    e.usize(h.recovered);
    for map in [&h.base_lost, &h.gave_up] {
        e.usize(map.len());
        for (&class, &n) in map {
            e.u8(transient_tag(class));
            e.usize(n);
        }
    }
    e.usize(h.breaker_opens);
    e.usize(h.unreachable);
    e.u64(h.backoff_wait_s);
}

pub(crate) fn decode_health(d: &mut Dec) -> Result<ScanHealth, CheckpointError> {
    let mut h = ScanHealth {
        targets: d.usize()?,
        attempts: d.usize()?,
        retries: d.usize()?,
        recovered: d.usize()?,
        ..Default::default()
    };
    for which in 0..2 {
        for _ in 0..d.count(9)? {
            let tag = d.u8()?;
            let class = *TransientClass::ALL.get(tag as usize).ok_or_else(|| {
                CheckpointError::corrupt(d.path, format!("bad transient tag {tag}"))
            })?;
            let n = d.usize()?;
            let map = if which == 0 {
                &mut h.base_lost
            } else {
                &mut h.gave_up
            };
            map.insert(class, n);
        }
    }
    h.breaker_opens = d.usize()?;
    h.unreachable = d.usize()?;
    h.backoff_wait_s = d.u64()?;
    Ok(h)
}

// ---------------------------------------------------------------------------
// Aligned LE integer columns: borrowed views over one loaded buffer.
// ---------------------------------------------------------------------------

/// A borrowed `u32` column: raw little-endian words inside the payload.
#[derive(Clone, Copy)]
pub(crate) struct U32Col<'a>(&'a [u8]);

impl<'a> U32Col<'a> {
    pub(crate) fn len(&self) -> usize {
        self.0.len() / 4
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.0
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }
}

/// A borrowed `u64` column.
#[derive(Clone, Copy)]
pub(crate) struct U64Col<'a>(&'a [u8]);

impl<'a> U64Col<'a> {
    pub(crate) fn len(&self) -> usize {
        self.0.len() / 8
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.0
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
    }
}

/// Zero-pad the encoder to an `n`-byte boundary (relative to the payload
/// start).
pub(crate) fn enc_align(e: &mut Enc, n: usize) {
    while !e.buf.len().is_multiple_of(n) {
        e.buf.push(0);
    }
}

/// Write a `u32` column: count, alignment padding, raw LE words.
pub(crate) fn enc_u32_col(e: &mut Enc, len: usize, vals: impl IntoIterator<Item = u32>) {
    e.usize(len);
    enc_align(e, 4);
    let mut written = 0usize;
    for v in vals {
        e.u32(v);
        written += 1;
    }
    debug_assert_eq!(written, len, "u32 column length mismatch");
}

/// Write a `u64` column: count, alignment padding, raw LE words.
pub(crate) fn enc_u64_col(e: &mut Enc, len: usize, vals: impl IntoIterator<Item = u64>) {
    e.usize(len);
    enc_align(e, 8);
    let mut written = 0usize;
    for v in vals {
        e.u64(v);
        written += 1;
    }
    debug_assert_eq!(written, len, "u64 column length mismatch");
}

fn dec_align(d: &mut Dec<'_>, n: usize) -> Result<(), CheckpointError> {
    let pad = (n - d.pos % n) % n;
    d.take(pad)?;
    Ok(())
}

/// Read a `u32` column as a borrowed view (no element decode, no `Vec`).
pub(crate) fn dec_u32_col<'a>(d: &mut Dec<'a>) -> Result<U32Col<'a>, CheckpointError> {
    let n = d.count(4)?;
    dec_align(d, 4)?;
    Ok(U32Col(d.take(n * 4)?))
}

/// Read a `u64` column as a borrowed view.
pub(crate) fn dec_u64_col<'a>(d: &mut Dec<'a>) -> Result<U64Col<'a>, CheckpointError> {
    let n = d.count(8)?;
    dec_align(d, 8)?;
    Ok(U64Col(d.take(n * 8)?))
}

/// Read a length-prefixed string as a borrowed `&str`.
pub(crate) fn dec_str_ref<'a>(d: &mut Dec<'a>) -> Result<&'a str, CheckpointError> {
    let n = d.count(1)?;
    let path = d.path;
    let bytes = d.take(n)?;
    std::str::from_utf8(bytes).map_err(|_| CheckpointError::corrupt(path, "non-UTF-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::REMEDY;

    #[test]
    fn columns_round_trip_with_alignment() {
        let magic = b"OFFNTEST";
        let mut e = Enc::default();
        e.u8(7); // deliberately misalign
        enc_u32_col(&mut e, 3, [1u32, 2, 3]);
        enc_u64_col(&mut e, 2, [u64::MAX, 42]);
        enc_u32_col(&mut e, 0, []);
        let dir = std::env::temp_dir().join(format!("offnet-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        write_envelope(&path, magic, 9, 0xfeed, &e.buf).unwrap();

        let (fp, payload) = match read_envelope(&path, magic, 9) {
            Ok(v) => v,
            Err(_) => panic!("envelope should read back"),
        };
        assert_eq!(fp, 0xfeed);
        let mut d = Dec {
            buf: &payload,
            pos: 0,
            path: &path,
        };
        assert_eq!(d.u8().unwrap(), 7);
        let c32 = dec_u32_col(&mut d).unwrap();
        assert_eq!(c32.len(), 3);
        assert_eq!(c32.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let c64 = dec_u64_col(&mut d).unwrap();
        assert_eq!(c64.iter().collect::<Vec<_>>(), vec![u64::MAX, 42]);
        assert_eq!(dec_u32_col(&mut d).unwrap().len(), 0);
        d.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_length_is_rejected_before_payload_read() {
        let magic = b"OFFNTEST";
        let dir = std::env::temp_dir().join(format!("offnet-codec-len-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.bin");
        write_envelope(&path, magic, 1, 1, b"payload").unwrap();
        // Patch the declared length to a preposterous value: the loader
        // must reject on the header check, not attempt the allocation.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_envelope(&path, magic, 1) {
            Err(EnvelopeIssue::Corrupt(d)) => assert!(d.contains("length"), "{d}"),
            _ => panic!("corrupt length must be typed Corrupt"),
        }
        // Short files are BadMagic, matching the historical loaders.
        std::fs::write(&path, b"OFF").unwrap();
        assert!(matches!(
            read_envelope(&path, magic, 1),
            Err(EnvelopeIssue::BadMagic)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_counts_cannot_trigger_huge_allocations() {
        // A payload whose first vector claims u64::MAX entries: every
        // allocating reader must refuse before allocating.
        let payload = u64::MAX.to_le_bytes();
        let path = Path::new("oversized.bin");
        let dec = || Dec {
            buf: &payload,
            pos: 0,
            path,
        };
        assert!(matches!(dec().u32s(), Err(CheckpointError::Corrupt { .. })));
        assert!(matches!(dec().rows(), Err(CheckpointError::Corrupt { .. })));
        assert!(matches!(dec().str(), Err(CheckpointError::Corrupt { .. })));
        assert!(matches!(
            dec().as_set(),
            Err(CheckpointError::Corrupt { .. })
        ));
        let err = dec().bytes().unwrap_err();
        assert!(err.to_string().ends_with(REMEDY), "{err}");
    }

    #[test]
    fn tag_tables_are_total_and_stable() {
        for (i, &e) in RECORD_ERRORS.iter().enumerate() {
            assert_eq!(record_error_tag(e) as usize, i);
        }
        for (i, &c) in CHAIN_ERRORS.iter().enumerate() {
            assert_eq!(invalid_reason_tag(InvalidReason::Chain(c)) as usize, i + 2);
            assert_eq!(
                invalid_reason_from_tag((i + 2) as u8),
                Some(InvalidReason::Chain(c))
            );
        }
        assert!(invalid_reason_from_tag(2 + CHAIN_ERRORS.len() as u8).is_none());
        for (i, &hg) in ALL_HGS.iter().enumerate() {
            assert_eq!(hg_tag(hg) as usize, i);
        }
        for (i, &t) in TransientClass::ALL.iter().enumerate() {
            assert_eq!(transient_tag(t) as usize, i);
        }
    }
}
