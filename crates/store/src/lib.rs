//! # lpo-store
//!
//! A durable, crash-safe store for Stage-3 verdicts and per-case completion
//! records: the persistence layer underneath fault-tolerant discovery runs
//! (and, eventually, the LPO-as-a-service daemon of ROADMAP item 1).
//!
//! ## What it stores
//!
//! Two record namespaces share one append-only log file:
//!
//! * **verdict records** — the outcome of one Stage-3 refinement check, keyed
//!   by a `(source digest, candidate digest)` pair (the pipeline uses
//!   `lpo_ir::hash::hash_function_named`) and versioned by a caller-supplied
//!   version string (the pipeline revision). A verdict is verified once
//!   *ever*: later runs replay the stored verdict instead of re-sweeping.
//! * **case records** — one opaque per-case completion blob keyed by
//!   `(run key, case key)`. Drivers checkpoint each finished case here so a
//!   killed run can `--resume` instead of restarting.
//!
//! The store does not interpret blobs; serialization lives with the callers
//! (`lpo-core` for both namespaces), keeping this crate dependency-free.
//!
//! ## Crash safety
//!
//! The log is a sequence of self-delimiting records:
//!
//! ```text
//! "LPOR" (4 bytes) | payload length (u32 LE) | FNV-1a 64 checksum (u64 LE) | payload
//! ```
//!
//! A record is trusted only when its magic, length, checksum and payload
//! syntax all validate. A process killed mid-append leaves a torn tail that
//! fails one of those checks; the next [`VerdictStore::open`] detects it,
//! keeps the valid prefix, logs a warning, and rewrites the truncated file
//! via write-temp-then-rename — so the recovery itself is atomic and a crash
//! *during recovery* still leaves either the old or the new file, never a
//! half-written one. Corrupt bytes are never trusted, and nothing after the
//! first bad record is (append order means later records may depend on the
//! torn one being absent).
//!
//! Within one log, the latest record for a key wins, so re-recording a key is
//! an append, not a rewrite. Re-recording a key with the blob it already
//! holds appends nothing: a resubmitted run that settles every case as
//! before leaves the log as it was.
//!
//! ## The verdict table
//!
//! The in-memory verdict map is the pipeline's verdict table: one
//! [`verdict_or_record`](VerdictStore::verdict_or_record) call per Stage-3
//! lookup, single-flight per key, so every pair is verified once however
//! many workers ask for it at once. A durable store only adds the log
//! behind it. The map holds at most [`VERDICT_CAPACITY`] verdicts; past
//! that, new verdicts still append to the log but are not kept in memory.
//!
//! ## Single-writer locking
//!
//! One process owns a store file at a time, enforced by a sibling
//! `<file>.lock` containing the owner's PID. A conflicting open fails with
//! [`StoreError::Locked`] instead of corrupting the log. A lock whose owner
//! is no longer alive (the SIGKILL'd run the store exists to survive) is
//! detected via `/proc/<pid>` and stolen with a logged warning.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Most verdicts a store keeps in memory. A blob is a verdict's rendered
/// text, at most a few hundred bytes, so a full table stays in the tens of
/// megabytes; a Table 2 run settles under two hundred distinct pairs and a
/// corpus-discover pass a few dozen, far below it.
pub const VERDICT_CAPACITY: usize = 1 << 16;

/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"LPOR";

/// Per-record header size: magic + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Hard cap on a single record payload — anything larger is treated as a
/// corrupt length field rather than an allocation request.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Why a store could not be opened.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (open, read, rename, ...).
    Io(std::io::Error),
    /// Another live process holds the store's lock file.
    Locked {
        /// The PID recorded in the lock file, when it parsed.
        owner_pid: Option<u32>,
        /// The lock file path, for the error message.
        lock_path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "verdict store I/O error: {e}"),
            StoreError::Locked { owner_pid, lock_path } => match owner_pid {
                Some(pid) => write!(
                    f,
                    "verdict store is locked by live process {pid} ({}); \
                     a store file has exactly one writer",
                    lock_path.display()
                ),
                None => write!(
                    f,
                    "verdict store is locked ({}); a store file has exactly one writer",
                    lock_path.display()
                ),
            },
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Hit/replay accounting for one store handle. Snapshot with
/// [`VerdictStore::stats`]; drivers report the before/after delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Verdict lookups answered from the store (Stage 3 skipped entirely).
    pub verdict_hits: usize,
    /// Verdict lookups that missed (verified fresh, then recorded).
    pub verdict_misses: usize,
    /// Completed cases replayed from checkpoint records on `--resume`.
    pub case_replays: usize,
}

impl StoreStats {
    /// The counters accumulated since `earlier` was taken.
    pub fn since(self, earlier: StoreStats) -> StoreStats {
        StoreStats {
            verdict_hits: self.verdict_hits - earlier.verdict_hits,
            verdict_misses: self.verdict_misses - earlier.verdict_misses,
            case_replays: self.case_replays - earlier.case_replays,
        }
    }

    /// Folds another snapshot's counts into this one.
    pub fn absorb(&mut self, other: StoreStats) {
        self.verdict_hits += other.verdict_hits;
        self.verdict_misses += other.verdict_misses;
        self.case_replays += other.case_replays;
    }

    /// True when every counter is zero (nothing to report).
    pub fn is_empty(&self) -> bool {
        *self == StoreStats::default()
    }

    /// Fraction of verdict lookups answered from the store, in `0.0..=1.0`
    /// (`0.0` when there were no lookups at all). This is the cache-hit rate
    /// the serving layer reports and `BENCH_baseline.json` gates.
    pub fn verdict_hit_rate(&self) -> f64 {
        let lookups = self.verdict_hits + self.verdict_misses;
        if lookups == 0 {
            0.0
        } else {
            self.verdict_hits as f64 / lookups as f64
        }
    }
}

/// One parsed log record.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Record {
    Verdict { version: String, src: u64, tgt: u64, blob: String },
    Case { run_key: String, case_key: String, blob: String },
}

struct Inner {
    /// Open append handle, created lazily by the first append so an untouched
    /// store never leaves a zero-length file behind. `None` before that, for
    /// in-memory stores, and after an append error degraded the store to
    /// memory-only.
    file: Option<File>,
    /// Where the lazy append handle opens; `None` = in-memory / degraded.
    append_path: Option<PathBuf>,
    verdicts: HashMap<(String, u64, u64), String>,
    /// Verdict keys some thread is verifying right now (single flight).
    pending: HashSet<(String, u64, u64)>,
    cases: HashMap<(String, String), String>,
}

impl Inner {
    fn new(append_path: Option<PathBuf>) -> Self {
        Self {
            file: None,
            append_path,
            verdicts: HashMap::new(),
            pending: HashSet::new(),
            cases: HashMap::new(),
        }
    }

    /// Keeps `blob` under `key` unless the table is full of other keys.
    fn remember_verdict(&mut self, key: (String, u64, u64), blob: String) {
        if self.verdicts.len() < VERDICT_CAPACITY || self.verdicts.contains_key(&key) {
            self.verdicts.insert(key, blob);
        }
    }
}

/// The durable verdict + checkpoint store. See the crate docs for the format
/// and crash-safety argument.
pub struct VerdictStore {
    path: Option<PathBuf>,
    lock_path: Option<PathBuf>,
    inner: Mutex<Inner>,
    /// Signalled whenever a pending verdict key settles.
    settled: Condvar,
    verdict_hits: AtomicUsize,
    verdict_misses: AtomicUsize,
    case_replays: AtomicUsize,
    warnings: Mutex<Vec<String>>,
}

impl fmt::Debug for VerdictStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (verdicts, cases) = self.counts();
        f.debug_struct("VerdictStore")
            .field("path", &self.path)
            .field("verdicts", &verdicts)
            .field("cases", &cases)
            .finish()
    }
}

impl VerdictStore {
    /// Opens (creating if missing) the store at `path`, acquiring its writer
    /// lock and recovering from any torn tail left by a crashed writer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }

        let mut warnings = Vec::new();
        let lock_path = acquire_lock(&path, &mut warnings)?;

        let mut store = Self {
            path: Some(path.clone()),
            lock_path: Some(lock_path),
            inner: Mutex::new(Inner::new(Some(path.clone()))),
            settled: Condvar::new(),
            verdict_hits: AtomicUsize::new(0),
            verdict_misses: AtomicUsize::new(0),
            case_replays: AtomicUsize::new(0),
            warnings: Mutex::new(warnings),
        };
        store.load(&path)?;
        Ok(store)
    }

    /// A store with no backing file: same semantics, nothing durable. It is
    /// the verdict table of every pipeline run without `--store`.
    pub fn in_memory() -> Self {
        Self {
            path: None,
            lock_path: None,
            inner: Mutex::new(Inner::new(None)),
            settled: Condvar::new(),
            verdict_hits: AtomicUsize::new(0),
            verdict_misses: AtomicUsize::new(0),
            case_replays: AtomicUsize::new(0),
            warnings: Mutex::new(Vec::new()),
        }
    }

    /// The backing file, when there is one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Replays the log at `path` into the in-memory maps, truncating (via
    /// write-temp-then-rename) at the first corrupt or torn record.
    fn load(&mut self, path: &Path) -> Result<(), StoreError> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        }
        if bytes.is_empty() {
            // A zero-length file is what `creat()` + crash-before-append
            // leaves behind: a valid, empty log.
            self.warn(format!("store {}: empty file, starting fresh", path.display()));
            return Ok(());
        }

        let mut offset = 0usize;
        let mut bad: Option<String> = None;
        let mut kept = 0usize;
        {
            let inner = self.inner.get_mut().expect("store lock poisoned");
            while offset < bytes.len() {
                match decode_record(&bytes[offset..]) {
                    Ok((record, consumed)) => {
                        match record {
                            Record::Verdict { version, src, tgt, blob } => {
                                inner.remember_verdict((version, src, tgt), blob);
                            }
                            Record::Case { run_key, case_key, blob } => {
                                inner.cases.insert((run_key, case_key), blob);
                            }
                        }
                        offset += consumed;
                        kept += 1;
                    }
                    Err(reason) => {
                        bad = Some(reason);
                        break;
                    }
                }
            }
        }

        if let Some(reason) = bad {
            let dropped = bytes.len() - offset;
            self.warn(format!(
                "store {}: {reason} at offset {offset}; dropping {dropped} trailing byte(s) \
                 and keeping the {kept} valid record(s) before it",
                path.display(),
            ));
            // Atomic truncation: never shorten the live file in place.
            let tmp = temp_sibling(path);
            {
                let mut f = File::create(&tmp)?;
                f.write_all(&bytes[..offset])?;
                f.sync_all().ok();
            }
            fs::rename(&tmp, path)?;
        }
        Ok(())
    }

    /// Looks up the stored verdict for a `(source, candidate)` digest pair
    /// under `version`, counting the hit or miss.
    pub fn verdict(&self, version: &str, src: u64, tgt: u64) -> Option<String> {
        let inner = self.inner.lock().expect("store lock poisoned");
        let found = inner.verdicts.get(&(version.to_string(), src, tgt)).cloned();
        drop(inner);
        match &found {
            Some(_) => self.verdict_hits.fetch_add(1, Ordering::Relaxed),
            None => self.verdict_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Records (and durably appends, for on-disk stores) one verdict.
    pub fn record_verdict(&self, version: &str, src: u64, tgt: u64, blob: &str) {
        let record = Record::Verdict {
            version: version.to_string(),
            src,
            tgt,
            blob: blob.to_string(),
        };
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.append(&mut inner, &record);
        inner.remember_verdict((version.to_string(), src, tgt), blob.to_string());
    }

    /// The verdict for a `(source, candidate)` digest pair under `version`:
    /// the stored blob on a hit, else the blob `verify` computes, recorded
    /// before it is returned. The second half says whether it was a hit.
    ///
    /// Single flight: while one caller verifies a key, every other caller
    /// of the same key waits for that result and counts a hit, so the
    /// misses of a batch are its distinct pairs whatever the worker count.
    /// A `verify` that unwinds releases the key, and the next waiter
    /// verifies it instead.
    pub fn verdict_or_record(
        &self,
        version: &str,
        src: u64,
        tgt: u64,
        verify: impl FnOnce() -> String,
    ) -> (String, bool) {
        let key = (version.to_string(), src, tgt);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        loop {
            if let Some(blob) = inner.verdicts.get(&key) {
                let blob = blob.clone();
                drop(inner);
                self.verdict_hits.fetch_add(1, Ordering::Relaxed);
                return (blob, true);
            }
            if !inner.pending.contains(&key) {
                break;
            }
            inner = self.settled.wait(inner).expect("store lock poisoned");
        }
        inner.pending.insert(key.clone());
        drop(inner);
        self.verdict_misses.fetch_add(1, Ordering::Relaxed);
        let claim = Claim { store: self, key };
        let blob = verify();
        self.record_verdict(version, src, tgt, &blob);
        drop(claim);
        (blob, false)
    }

    /// Looks up the checkpointed completion blob for one case of one run,
    /// counting a replay on hit.
    pub fn case(&self, run_key: &str, case_key: &str) -> Option<String> {
        let inner = self.inner.lock().expect("store lock poisoned");
        let found = inner.cases.get(&(run_key.to_string(), case_key.to_string())).cloned();
        drop(inner);
        if found.is_some() {
            self.case_replays.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records (and durably appends) one completed case. A key that already
    /// holds this exact blob is left alone: nothing is appended.
    pub fn record_case(&self, run_key: &str, case_key: &str, blob: &str) {
        let key = (run_key.to_string(), case_key.to_string());
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if inner.cases.get(&key).is_some_and(|held| held == blob) {
            return;
        }
        let record = Record::Case {
            run_key: key.0.clone(),
            case_key: key.1.clone(),
            blob: blob.to_string(),
        };
        self.append(&mut inner, &record);
        inner.cases.insert(key, blob.to_string());
    }

    fn append(&self, inner: &mut Inner, record: &Record) {
        if inner.file.is_none() {
            let Some(path) = inner.append_path.clone() else { return };
            match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(f) => inner.file = Some(f),
                Err(e) => {
                    self.warn(format!("store append open failed ({e}); running memory-only"));
                    inner.append_path = None;
                    return;
                }
            }
        }
        let Some(file) = inner.file.as_mut() else { return };
        let framed = encode_record(record);
        // An append interrupted by a crash leaves a torn tail; the next
        // open's checksum scan drops it. An append error (disk full, ...)
        // degrades the store to lossy-but-correct: the in-memory map still
        // serves this run, later runs just recompute.
        if let Err(e) = file.write_all(&framed).and_then(|()| file.flush()) {
            self.warn(format!("store append failed ({e}); record kept in memory only"));
            inner.file = None;
            inner.append_path = None;
        }
    }

    /// `(verdict, case)` record counts currently loaded.
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("store lock poisoned");
        (inner.verdicts.len(), inner.cases.len())
    }

    /// Hit/replay accounting for this handle's lifetime.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            verdict_misses: self.verdict_misses.load(Ordering::Relaxed),
            case_replays: self.case_replays.load(Ordering::Relaxed),
        }
    }

    /// Recovery/degradation warnings accumulated so far (also printed to
    /// stderr as they happen).
    pub fn warnings(&self) -> Vec<String> {
        self.warnings.lock().expect("warnings lock poisoned").clone()
    }

    fn warn(&self, message: String) {
        eprintln!("[lpo-store] {message}");
        self.warnings.lock().expect("warnings lock poisoned").push(message);
    }
}

/// A verdict key one caller is verifying. Dropping it — after the verdict
/// is recorded, or while `verify` unwinds — releases the key and wakes the
/// callers waiting on it.
struct Claim<'a> {
    store: &'a VerdictStore,
    key: (String, u64, u64),
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut inner = self.store.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        inner.pending.remove(&self.key);
        drop(inner);
        self.store.settled.notify_all();
    }
}

impl Drop for VerdictStore {
    fn drop(&mut self) {
        if let Some(lock) = &self.lock_path {
            // Best-effort: a failed remove degrades to the stale-lock path
            // (PID no longer alive) on the next open.
            let _ = fs::remove_file(lock);
        }
    }
}

/// FNV-1a 64, the same cheap checksum family the IR hasher uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_record(record: &Record) -> Vec<u8> {
    let payload = match record {
        Record::Verdict { version, src, tgt, blob } => format!(
            "V\t{}\t{src:016x}\t{tgt:016x}\t{}",
            escape(version),
            escape(blob)
        ),
        Record::Case { run_key, case_key, blob } => {
            format!("C\t{}\t{}\t{}", escape(run_key), escape(case_key), escape(blob))
        }
    };
    let payload = payload.into_bytes();
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
    framed.extend_from_slice(&RECORD_MAGIC);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

/// Decodes one record from the front of `bytes`, returning it and the bytes
/// consumed, or the reason the front is not a trustworthy record.
fn decode_record(bytes: &[u8]) -> Result<(Record, usize), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("torn record header ({} byte(s) left)", bytes.len()));
    }
    if bytes[..4] != RECORD_MAGIC {
        return Err("bad record magic".to_string());
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(format!("implausible payload length {len}"));
    }
    let len = len as usize;
    if bytes.len() < HEADER_LEN + len {
        return Err(format!(
            "torn record payload ({} of {len} byte(s) present)",
            bytes.len() - HEADER_LEN
        ));
    }
    let checksum = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
    if fnv1a(payload) != checksum {
        return Err("record checksum mismatch".to_string());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "record payload is not UTF-8")?;
    let record = parse_payload(payload).ok_or_else(|| "unparseable record payload".to_string())?;
    Ok((record, HEADER_LEN + len))
}

fn parse_payload(payload: &str) -> Option<Record> {
    let mut fields = payload.split('\t');
    match fields.next()? {
        "V" => {
            let version = unescape(fields.next()?)?;
            let src = u64::from_str_radix(fields.next()?, 16).ok()?;
            let tgt = u64::from_str_radix(fields.next()?, 16).ok()?;
            let blob = unescape(fields.next()?)?;
            fields.next().is_none().then_some(Record::Verdict { version, src, tgt, blob })
        }
        "C" => {
            let run_key = unescape(fields.next()?)?;
            let case_key = unescape(fields.next()?)?;
            let blob = unescape(fields.next()?)?;
            fields.next().is_none().then_some(Record::Case { run_key, case_key, blob })
        }
        _ => None,
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

fn lock_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".lock");
    path.with_file_name(name)
}

/// Creates `<path>.lock` exclusively, stealing a stale lock whose recorded
/// owner is no longer alive (the crashed run this store exists to survive).
fn acquire_lock(path: &Path, warnings: &mut Vec<String>) -> Result<PathBuf, StoreError> {
    let lock_path = lock_sibling(path);
    for attempt in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&lock_path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                return Ok(lock_path);
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let owner_pid = fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = match owner_pid {
                    Some(pid) => pid != std::process::id() && !process_alive(pid),
                    None => true, // unreadable/garbled lock: treat as stale
                };
                if stale && attempt == 0 {
                    let message = format!(
                        "stale lock {} (owner {:?} not alive); stealing it",
                        lock_path.display(),
                        owner_pid
                    );
                    eprintln!("[lpo-store] {message}");
                    warnings.push(message);
                    let _ = fs::remove_file(&lock_path);
                    continue;
                }
                return Err(StoreError::Locked { owner_pid, lock_path });
            }
            Err(e) => return Err(e.into()),
        }
    }
    unreachable!("lock acquisition loops at most twice")
}

/// Whether a PID names a live process. On non-Linux platforms we cannot
/// cheaply tell, so every foreign lock is treated as live (the conservative
/// answer: never steal what might be held).
fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp path per test (no tempfile crate in the offline build).
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lpo-store-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.log"))
    }

    fn clean(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(lock_sibling(path));
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = scratch("roundtrip");
        clean(&path);
        {
            let store = VerdictStore::open(&path).unwrap();
            store.record_verdict("r1/model", 0xabc, 0xdef, "correct;17;false");
            store.record_verdict("r1/model", 0xabc, 0x123, "incorrect\twith\ntabs\\and newlines");
            store.record_case("run-a", "case-0", "blob zero");
            store.record_case("run-a", "case-0", "blob zero, rewritten");
            assert_eq!(store.verdict("r1/model", 0xabc, 0xdef).as_deref(), Some("correct;17;false"));
            assert_eq!(store.verdict("r1/other", 0xabc, 0xdef), None, "version is part of the key");
            assert_eq!(store.stats().verdict_hits, 1);
            assert_eq!(store.stats().verdict_misses, 1);
        }
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.counts(), (2, 1));
        assert_eq!(
            store.verdict("r1/model", 0xabc, 0x123).as_deref(),
            Some("incorrect\twith\ntabs\\and newlines"),
            "escaping round-trips through the log"
        );
        assert_eq!(store.case("run-a", "case-0").as_deref(), Some("blob zero, rewritten"));
        assert_eq!(store.stats().case_replays, 1);
        clean(&path);
    }

    #[test]
    fn torn_tail_is_truncated_with_a_warning() {
        let path = scratch("torn-tail");
        clean(&path);
        {
            let store = VerdictStore::open(&path).unwrap();
            store.record_verdict("v", 1, 2, "first");
            store.record_verdict("v", 3, 4, "second");
        }
        // Simulate a crash mid-append: chop bytes off the tail record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.verdict("v", 1, 2).as_deref(), Some("first"));
        assert_eq!(store.verdict("v", 3, 4), None, "the torn record is never trusted");
        assert!(
            store.warnings().iter().any(|w| w.contains("torn")),
            "warnings: {:?}",
            store.warnings()
        );
        // The truncation was rewritten to disk: a re-open is clean.
        drop(store);
        let store = VerdictStore::open(&path).unwrap();
        assert!(store.warnings().is_empty(), "warnings: {:?}", store.warnings());
        assert_eq!(store.counts(), (1, 0));
        clean(&path);
    }

    #[test]
    fn flipped_checksum_byte_drops_the_record_and_its_suffix() {
        let path = scratch("flipped-byte");
        clean(&path);
        {
            let store = VerdictStore::open(&path).unwrap();
            store.record_verdict("v", 1, 1, "keep");
            store.record_verdict("v", 2, 2, "corrupt me");
            store.record_verdict("v", 3, 3, "after the corruption");
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte inside the *second* record.
        let first_len = {
            let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
            HEADER_LEN + len
        };
        bytes[first_len + HEADER_LEN] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.verdict("v", 1, 1).as_deref(), Some("keep"));
        assert_eq!(store.verdict("v", 2, 2), None);
        assert_eq!(
            store.verdict("v", 3, 3),
            None,
            "nothing after the first bad record is trusted"
        );
        assert!(
            store.warnings().iter().any(|w| w.contains("checksum")),
            "warnings: {:?}",
            store.warnings()
        );
        clean(&path);
    }

    #[test]
    fn empty_file_recovers_to_an_empty_store() {
        let path = scratch("empty");
        clean(&path);
        fs::write(&path, b"").unwrap();
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.counts(), (0, 0));
        assert!(
            store.warnings().iter().any(|w| w.contains("empty")),
            "warnings: {:?}",
            store.warnings()
        );
        store.record_case("r", "c", "works after recovery");
        drop(store);
        assert_eq!(VerdictStore::open(&path).unwrap().counts(), (0, 1));
        clean(&path);
    }

    #[test]
    fn garbage_prefix_means_a_fresh_store() {
        let path = scratch("garbage");
        clean(&path);
        fs::write(&path, b"this was never a store file").unwrap();
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.counts(), (0, 0));
        assert!(store.warnings().iter().any(|w| w.contains("magic")));
        clean(&path);
    }

    #[test]
    fn concurrent_writer_is_rejected_and_lock_is_released_on_drop() {
        let path = scratch("locking");
        clean(&path);
        let first = VerdictStore::open(&path).unwrap();
        match VerdictStore::open(&path) {
            Err(StoreError::Locked { owner_pid, .. }) => {
                assert_eq!(owner_pid, Some(std::process::id()));
            }
            other => panic!("second open must fail with Locked, got {other:?}"),
        }
        drop(first);
        // The lock dies with its owner; reopening succeeds.
        let again = VerdictStore::open(&path).unwrap();
        assert!(again.warnings().is_empty(), "warnings: {:?}", again.warnings());
        clean(&path);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_lock_from_a_dead_process_is_stolen_with_a_warning() {
        let path = scratch("stale-lock");
        clean(&path);
        // No PID this large exists (kernel pid_max caps at 2^22).
        fs::write(lock_sibling(&path), "4000000000\n").unwrap();
        let store = VerdictStore::open(&path).unwrap();
        assert!(
            store.warnings().iter().any(|w| w.contains("stale lock")),
            "warnings: {:?}",
            store.warnings()
        );
        clean(&path);
    }

    #[test]
    fn in_memory_store_has_store_semantics_without_a_file() {
        let store = VerdictStore::in_memory();
        assert!(store.path().is_none());
        store.record_verdict("v", 9, 9, "blob");
        assert_eq!(store.verdict("v", 9, 9).as_deref(), Some("blob"));
        assert_eq!(store.stats(), StoreStats {
            verdict_hits: 1,
            verdict_misses: 0,
            case_replays: 0
        });
    }

    #[test]
    fn rerecording_a_case_with_its_blob_appends_nothing() {
        let path = scratch("case-dedup");
        clean(&path);
        let store = VerdictStore::open(&path).unwrap();
        store.record_case("run", "case-0", "settled");
        let once = fs::metadata(&path).unwrap().len();
        store.record_case("run", "case-0", "settled");
        assert_eq!(fs::metadata(&path).unwrap().len(), once, "the same blob appended again");
        // A changed blob still appends, and the latest one wins on reopen.
        store.record_case("run", "case-0", "settled differently");
        assert!(fs::metadata(&path).unwrap().len() > once);
        drop(store);
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.case("run", "case-0").as_deref(), Some("settled differently"));
        clean(&path);
    }

    #[test]
    fn verdict_or_record_verifies_each_key_once() {
        use std::sync::mpsc;
        let store = VerdictStore::in_memory();
        let (verifying, verifier_started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (calling, caller_started) = mpsc::channel();
        let late_calls = AtomicUsize::new(0);
        let results: Vec<(String, bool)> = std::thread::scope(|scope| {
            // The first caller claims the key and holds it until released.
            let store = &store;
            let first = scope.spawn(move || {
                store.verdict_or_record("v", 1, 2, || {
                    verifying.send(()).unwrap();
                    released.recv().unwrap();
                    "blob".to_string()
                })
            });
            verifier_started.recv().unwrap();
            // Three more callers arrive while the key is pending.
            let others: Vec<_> = (0..3)
                .map(|_| {
                    let calling = calling.clone();
                    let late_calls = &late_calls;
                    scope.spawn(move || {
                        calling.send(()).unwrap();
                        store.verdict_or_record("v", 1, 2, || {
                            late_calls.fetch_add(1, Ordering::SeqCst);
                            "another blob".to_string()
                        })
                    })
                })
                .collect();
            for _ in 0..3 {
                caller_started.recv().unwrap();
            }
            release.send(()).unwrap();
            std::iter::once(first).chain(others).map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(late_calls.load(Ordering::SeqCst), 0, "a second caller verified a pending key");
        assert_eq!(results[0], ("blob".to_string(), false));
        assert!(results[1..].iter().all(|result| *result == ("blob".to_string(), true)));
        assert_eq!(store.stats().verdict_misses, 1);
        assert_eq!(store.stats().verdict_hits, 3);
    }

    #[test]
    fn an_unwinding_verifier_releases_its_key() {
        let store = VerdictStore::in_memory();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.verdict_or_record("v", 1, 2, || panic!("verifier failed"))
        }));
        assert!(panicked.is_err());
        // The key is free again: the next caller verifies it.
        assert_eq!(store.verdict_or_record("v", 1, 2, || "blob".to_string()), ("blob".to_string(), false));
        assert_eq!(store.verdict_or_record("v", 1, 2, || unreachable!()), ("blob".to_string(), true));
    }

    #[test]
    fn the_verdict_table_stops_admitting_at_capacity() {
        let store = VerdictStore::in_memory();
        for tgt in 0..VERDICT_CAPACITY as u64 {
            store.record_verdict("v", 0, tgt, "b");
        }
        store.record_verdict("v", 1, 0, "past the bound");
        assert_eq!(store.counts().0, VERDICT_CAPACITY);
        assert_eq!(store.verdict("v", 1, 0), None);
        // A key the table holds is still updated in place.
        store.record_verdict("v", 0, 0, "updated");
        assert_eq!(store.verdict("v", 0, 0).as_deref(), Some("updated"));
    }

    #[test]
    fn stats_since_and_absorb() {
        let a = StoreStats { verdict_hits: 5, verdict_misses: 3, case_replays: 2 };
        let b = StoreStats { verdict_hits: 2, verdict_misses: 1, case_replays: 0 };
        let d = a.since(b);
        assert_eq!(d, StoreStats { verdict_hits: 3, verdict_misses: 2, case_replays: 2 });
        let mut acc = b;
        acc.absorb(d);
        assert_eq!(acc, a);
        assert!(StoreStats::default().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn verdict_hit_rate_is_hits_over_lookups() {
        let a = StoreStats { verdict_hits: 9, verdict_misses: 1, case_replays: 0 };
        assert!((a.verdict_hit_rate() - 0.9).abs() < 1e-12);
        let all_hits = StoreStats { verdict_hits: 4, verdict_misses: 0, case_replays: 7 };
        assert_eq!(all_hits.verdict_hit_rate(), 1.0);
        // No lookups at all: 0.0, not NaN.
        assert_eq!(StoreStats::default().verdict_hit_rate(), 0.0);
    }
}
