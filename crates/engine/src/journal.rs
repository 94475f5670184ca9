//! Crash-safe durability: a write-ahead journal of admitted applications,
//! atomic snapshot publication, and deterministic recovery.
//!
//! The chase engine is deterministic: from a checkpoint (queue, identity
//! set, RNG state, counters) the sequence of applications is a pure
//! function of the program. Durability therefore does **not** need to log
//! the applied triggers themselves — it only needs to log *how far* the
//! run got, plus enough per-record state to verify the replay. The journal
//! is an append-only text file:
//!
//! ```text
//! chasekit-journal v1
//! program <fingerprint:016x>
//! variant <oblivious|semi-oblivious|restricted>
//! base <applications at journal creation>
//! r <applications> <atoms> <nulls> <crc32:08x>
//! r <applications> <atoms> <nulls> <crc32:08x>
//! ...
//! ```
//!
//! One `r` record per trigger application, appended by
//! [`ChaseMachine::step`](crate::ChaseMachine). Each record
//! carries a CRC32 over its own payload; records must be consecutive from
//! `base + 1`. Recovery resumes the last good snapshot (or the genesis
//! instance when no snapshot was ever published), truncates any torn or
//! corrupt journal tail at the first bad record, and replays the remaining
//! records by re-running [`ChaseMachine::step`](crate::ChaseMachine),
//! verifying the logged `(applications, atoms, nulls)` triple after every
//! replayed step. A mismatch is a structured
//! [`CheckpointError`](crate::CheckpointError), never a silently wrong
//! state.
//!
//! **Durability contract.** Journal appends are pushed to the OS per
//! record (`write(2)` of one full line), so a killed *process* loses at
//! most the torn final line; surviving an OS crash additionally requires
//! the fsync that [`JournalWriter::sync`] and snapshot publication
//! perform. Snapshots are published via [`write_snapshot_atomic`]
//! (temp file + fsync + rename + directory fsync), so a reader never
//! observes a half-written snapshot, and the journal is only re-based
//! *after* the rename — a crash between the two leaves a stale journal
//! whose records are all at or below the snapshot's application count,
//! which recovery skips.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use chasekit_core::{Instance, Program};

use crate::checkpoint::{program_fingerprint, Checkpoint, CheckpointError};
use crate::failpoint::{self, points};
use crate::{ChaseConfig, ChaseMachine, ChaseVariant};

/// Magic first line of a journal file; the `v1` suffix versions the format.
pub const JOURNAL_MAGIC: &str = "chasekit-journal v1";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected). Table built at compile time; no deps.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the integrity check on journal records and
/// the checkpoint text trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Variant tokens (shared with the checkpoint format).
// ---------------------------------------------------------------------------

pub(crate) fn variant_token(v: ChaseVariant) -> &'static str {
    match v {
        ChaseVariant::Oblivious => "oblivious",
        ChaseVariant::SemiOblivious => "semi-oblivious",
        ChaseVariant::Restricted => "restricted",
    }
}

pub(crate) fn parse_variant(s: &str) -> Option<ChaseVariant> {
    match s {
        "oblivious" => Some(ChaseVariant::Oblivious),
        "semi-oblivious" => Some(ChaseVariant::SemiOblivious),
        "restricted" => Some(ChaseVariant::Restricted),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// JournalWriter: the append side.
// ---------------------------------------------------------------------------

/// Append side of the write-ahead journal.
///
/// `append` is deliberately infallible at the call site: a write failure
/// (real or injected) is latched as a *sticky error* and the machine's run
/// loops poll [`JournalWriter::failed`] at their guard cadence, stopping
/// the chase with [`StopReason::Io`](crate::StopReason) instead of
/// chasing on with a silently incomplete journal.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    line: String,
    records: u64,
    error: Option<String>,
    /// Group-commit buffer: completed record lines not yet handed to the OS.
    buf: String,
    /// Records currently sitting in `buf`.
    pending: u64,
    /// Records per `write(2)`: 1 writes each record immediately (the
    /// default, PR 4's semantics); N batches appends into one write. A
    /// killed process loses at most the unwritten batch plus a torn final
    /// line — still a valid journal prefix, which is all recovery needs.
    flush_every: u64,
}

impl JournalWriter {
    /// Creates (truncating) a journal positioned at `machine`'s current
    /// state: records will follow the machine's application count, under
    /// its program fingerprint and variant. Install the result with
    /// [`ChaseMachine::set_journal`].
    pub fn for_machine(path: &Path, machine: &ChaseMachine<'_>) -> io::Result<JournalWriter> {
        JournalWriter::create(
            path,
            program_fingerprint(machine.program),
            machine.config.variant,
            machine.stats().applications,
        )
    }

    /// Creates (truncating) a journal at `path` whose records will follow
    /// application number `base` for the given program fingerprint and
    /// variant.
    pub(crate) fn create(
        path: &Path,
        fingerprint: u64,
        variant: ChaseVariant,
        base: u64,
    ) -> io::Result<JournalWriter> {
        if let Some(n) = failpoint::trip_io(points::JOURNAL_TRUNCATE)? {
            // Torn truncation: leave a half-written header behind.
            let mut file = File::create(path)?;
            let header = header_text(fingerprint, variant, base);
            file.write_all(&header.as_bytes()[..n.min(header.len())])?;
            return Err(failpoint::injected(points::JOURNAL_TRUNCATE));
        }
        let mut file = File::create(path)?;
        file.write_all(header_text(fingerprint, variant, base).as_bytes())?;
        file.sync_data()?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            line: String::with_capacity(64),
            records: 0,
            error: None,
            buf: String::new(),
            pending: 0,
            flush_every: 1,
        })
    }

    /// Sets the group-commit batch size: `append` hands records to the OS
    /// in batches of `n` lines instead of one `write(2)` per record
    /// (`n <= 1` keeps the write-per-record default). [`JournalWriter::sync`]
    /// and snapshot re-basing always drain the batch first, so the
    /// durability contract is unchanged at fsync boundaries; between them a
    /// kill loses at most the buffered batch — a clean journal prefix.
    pub fn with_flush_every(mut self, n: u64) -> Self {
        self.flush_every = n.max(1);
        self
    }

    /// Hands the buffered batch to the OS in one write. On failure the
    /// error is returned (callers latch it); the buffer is dropped either
    /// way — a failed batch write leaves a valid shorter prefix on disk,
    /// never a half-applied batch retried out of order.
    fn flush_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let result = self.file.write_all(self.buf.as_bytes());
        self.buf.clear();
        self.pending = 0;
        result
    }

    /// Appends one application record. A failure (real or injected) is
    /// latched; all subsequent appends become no-ops.
    pub(crate) fn append(&mut self, applications: u64, atoms: usize, nulls: usize) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        let _ = write!(self.line, "r {applications} {atoms} {nulls}");
        let crc = crc32(self.line.as_bytes());
        let _ = writeln!(self.line, " {crc:08x}");
        match failpoint::trip_io(points::JOURNAL_APPEND) {
            Err(e) => {
                self.error = Some(e.to_string());
                return;
            }
            Ok(Some(n)) => {
                // Torn write of the pending batch (buffered lines plus this
                // record): the bytes that made it out, then the latched
                // failure. Exactly what a mid-write kill leaves behind.
                // With flush-every 1 the buffer is empty and this reduces
                // to tearing the single record line.
                let batch_len = self.buf.len() + self.line.len();
                let n = n.min(batch_len);
                if n <= self.buf.len() {
                    let _ = self.file.write_all(&self.buf.as_bytes()[..n]);
                } else {
                    let _ = self.file.write_all(self.buf.as_bytes());
                    let _ = self.file.write_all(&self.line.as_bytes()[..n - self.buf.len()]);
                }
                self.buf.clear();
                self.pending = 0;
                self.error = Some(format!(
                    "short write ({n} of {batch_len} bytes) appending journal batch"
                ));
                return;
            }
            Ok(None) => {}
        }
        self.buf.push_str(&self.line);
        self.pending += 1;
        if self.pending >= self.flush_every {
            if let Err(e) = self.flush_buf() {
                self.error = Some(e.to_string());
                return;
            }
        }
        self.records += 1;
    }

    /// Flushes journal contents to stable storage (fsync). Called at
    /// snapshot boundaries and on clean shutdown.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(io::Error::other(e.clone()));
        }
        if let Err(e) = self.flush_buf() {
            self.error = Some(e.to_string());
            return Err(e);
        }
        if let Some(_n) = failpoint::trip_io(points::JOURNAL_SYNC)? {
            // A short "sync" makes no sense; treat as an error.
            return Err(failpoint::injected(points::JOURNAL_SYNC));
        }
        self.file.sync_data()
    }

    /// The sticky append/sync error, if any write has failed.
    pub fn failed(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Records successfully appended by this writer.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_text(fingerprint: u64, variant: ChaseVariant, base: u64) -> String {
    format!("{JOURNAL_MAGIC}\nprogram {fingerprint:016x}\nvariant {}\nbase {base}\n", variant_token(variant))
}

// ---------------------------------------------------------------------------
// Atomic snapshot publication.
// ---------------------------------------------------------------------------

/// Writes `text` to `path` crash-atomically: a sibling temporary file is
/// written and fsync'd, renamed over `path`, and the parent directory is
/// fsync'd. A reader (or a recovery after a kill at any point inside this
/// function) sees either the complete old snapshot or the complete new
/// one, never a torn mixture.
pub fn write_snapshot_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    {
        let mut file = File::create(&tmp)?;
        match failpoint::trip_io(points::SNAPSHOT_WRITE)? {
            Some(n) => {
                let n = n.min(text.len());
                file.write_all(&text.as_bytes()[..n])?;
                return Err(failpoint::injected(points::SNAPSHOT_WRITE));
            }
            None => file.write_all(text.as_bytes())?,
        }
        file.sync_data()?;
    }
    if failpoint::trip_io(points::SNAPSHOT_RENAME)?.is_some() {
        return Err(failpoint::injected(points::SNAPSHOT_RENAME));
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Persist the rename itself. Best-effort: not every filesystem
            // supports fsync on a directory handle.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal scanning (the read side).
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct JournalRecord {
    applications: u64,
    atoms: usize,
    nulls: usize,
}

#[derive(Debug)]
struct JournalScan {
    /// Application count the journal was based on (snapshot it followed).
    base: u64,
    /// Valid, consecutive records from `base + 1`.
    records: Vec<JournalRecord>,
    /// Bytes of torn/corrupt tail discarded (whole-file for a torn header).
    truncated_bytes: u64,
}

/// Scans raw journal bytes. A **complete** header that names a different
/// program or variant is an error (the files are mismatched, not torn); a
/// header cut short mid-write — a byte prefix of the expected header — is
/// treated as an empty journal with every byte truncated, because that is
/// exactly what a kill during journal creation leaves behind. Records are
/// validated (CRC, structure, consecutive numbering) until the first bad
/// one, where the tail is truncated.
fn scan_journal(
    bytes: &[u8],
    expected_fp: u64,
    expected_variant: ChaseVariant,
) -> Result<JournalScan, CheckpointError> {
    let total = bytes.len() as u64;
    let torn_header = |scan_base: u64| JournalScan {
        base: scan_base,
        records: Vec::new(),
        truncated_bytes: total,
    };

    // Header lines 1–3 have exactly one valid spelling, so "torn" is
    // decidable: the bytes must be a prefix of that spelling.
    let expected_prefix = format!(
        "{JOURNAL_MAGIC}\nprogram {expected_fp:016x}\nvariant {}\nbase ",
        variant_token(expected_variant)
    );
    let mut pos = 0usize;
    let mut lineno = 0usize;

    let next_line = |pos: &mut usize| -> Option<(usize, &[u8])> {
        if *pos >= bytes.len() {
            return None;
        }
        let start = *pos;
        match bytes[start..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                *pos = start + off + 1;
                Some((start, &bytes[start..start + off]))
            }
            None => None, // unterminated tail: never a complete line
        }
    };

    // --- line 1: magic ---
    let magic = match next_line(&mut pos) {
        Some((_, l)) => l,
        None => {
            // No complete first line. Torn creation if it's a prefix of the
            // expected header, otherwise not a journal at all.
            if expected_prefix.as_bytes().starts_with(bytes) {
                return Ok(torn_header(0));
            }
            return Err(CheckpointError::Parse(
                "journal line 1: not a chasekit journal".into(),
            ));
        }
    };
    lineno += 1;
    if magic != JOURNAL_MAGIC.as_bytes() {
        return Err(CheckpointError::Parse(format!(
            "journal line {lineno}: {:?} (expected `{JOURNAL_MAGIC}`)",
            String::from_utf8_lossy(magic)
        )));
    }

    // --- line 2: program fingerprint ---
    // From here on, an unterminated header line is always a torn creation
    // (possibly with tail corruption on top) — truncate to empty. Only a
    // *complete* line that mismatches is a hard error.
    let fp_line = match next_line(&mut pos) {
        Some((_, l)) => l,
        None => return Ok(torn_header(0)),
    };
    lineno += 1;
    let fp_str = std::str::from_utf8(fp_line).unwrap_or("");
    match fp_str.strip_prefix("program ").and_then(|h| u64::from_str_radix(h, 16).ok()) {
        Some(fp) if fp == expected_fp => {}
        Some(fp) => {
            return Err(CheckpointError::ProgramMismatch { expected: expected_fp, found: fp })
        }
        None => {
            return Err(CheckpointError::Parse(format!(
                "journal line {lineno}: {:?} (expected `program <hex>`)",
                String::from_utf8_lossy(fp_line)
            )))
        }
    }

    // --- line 3: variant ---
    let var_line = match next_line(&mut pos) {
        Some((_, l)) => l,
        None => return Ok(torn_header(0)),
    };
    lineno += 1;
    let var_str = std::str::from_utf8(var_line).unwrap_or("");
    match var_str.strip_prefix("variant ").and_then(parse_variant) {
        Some(v) if v == expected_variant => {}
        Some(v) => {
            return Err(CheckpointError::Inconsistent(format!(
                "journal was written by a {} chase, this run is {}",
                variant_token(v),
                variant_token(expected_variant)
            )))
        }
        None => {
            return Err(CheckpointError::Parse(format!(
                "journal line {lineno}: {:?} (expected `variant <name>`)",
                String::from_utf8_lossy(var_line)
            )))
        }
    }

    // --- line 4: base ---
    let base = match next_line(&mut pos) {
        Some((_, l)) => {
            lineno += 1;
            let s = std::str::from_utf8(l).unwrap_or("");
            match s.strip_prefix("base ").and_then(|n| n.parse::<u64>().ok()) {
                Some(b) => b,
                None => {
                    return Err(CheckpointError::Parse(format!(
                        "journal line {lineno}: {:?} (expected `base <n>`)",
                        String::from_utf8_lossy(l)
                    )))
                }
            }
        }
        None => return Ok(torn_header(0)),
    };

    // --- records ---
    let mut records = Vec::new();
    let mut expected_next = base + 1;
    loop {
        let line_start = pos;
        let line = match next_line(&mut pos) {
            Some((_, l)) => l,
            None => {
                // Unterminated (torn) tail — truncate it, even if it would
                // parse: a record is only durable once its newline landed.
                return Ok(JournalScan {
                    base,
                    records,
                    truncated_bytes: total - line_start as u64,
                });
            }
        };
        match parse_record(line, expected_next) {
            Some(rec) => {
                expected_next += 1;
                records.push(rec);
            }
            None => {
                // First bad record: truncate from here to end of file.
                return Ok(JournalScan {
                    base,
                    records,
                    truncated_bytes: total - line_start as u64,
                });
            }
        }
    }
}

/// Parses and verifies one `r <apps> <atoms> <nulls> <crc>` record.
/// Returns `None` on any structural, CRC, or sequencing defect.
fn parse_record(line: &[u8], expected_applications: u64) -> Option<JournalRecord> {
    let s = std::str::from_utf8(line).ok()?;
    let (payload, crc_hex) = s.rsplit_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc32(payload.as_bytes()) != crc {
        return None;
    }
    let mut it = payload.split(' ');
    if it.next()? != "r" {
        return None;
    }
    let applications: u64 = it.next()?.parse().ok()?;
    let atoms: usize = it.next()?.parse().ok()?;
    let nulls: usize = it.next()?.parse().ok()?;
    if it.next().is_some() || applications != expected_applications {
        return None;
    }
    Some(JournalRecord { applications, atoms, nulls })
}

/// Whether `journal_bytes` holds valid records *beyond* `machine`'s
/// current application count — the unreplayed tail a crashed run leaves
/// behind. The CLI refuses to start a journaled run over such a tail
/// (truncating it would silently discard recoverable work) and directs the
/// user to `--recover`. Unscannable bytes also count as needing recovery:
/// [`recover`] will produce the precise error.
pub fn needs_recovery(machine: &ChaseMachine<'_>, journal_bytes: &[u8]) -> bool {
    let fp = program_fingerprint(machine.program);
    match scan_journal(journal_bytes, fp, machine.config.variant) {
        Ok(scan) => scan
            .records
            .last()
            .is_some_and(|r| r.applications > machine.stats().applications),
        Err(_) => true,
    }
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// What [`recover`] did, for the CLI's recovery report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot existed (false: recovery started from genesis).
    pub had_snapshot: bool,
    /// Application count of the resumed snapshot (0 from genesis).
    pub snapshot_applications: u64,
    /// Valid journal records found after tail truncation.
    pub records_valid: u64,
    /// Records at or below the snapshot's application count (the stale
    /// prefix left by a crash between snapshot rename and journal re-base).
    pub records_skipped: u64,
    /// Records actually replayed through the engine.
    pub records_replayed: u64,
    /// Bytes of torn/corrupt journal tail discarded.
    pub bytes_truncated: u64,
    /// Application count after replay.
    pub final_applications: u64,
    /// Instance size after replay.
    pub final_atoms: usize,
}

/// Recovers a chase machine from the last good snapshot plus the journal.
///
/// `snapshot_text` is the snapshot file's contents if one exists (its
/// integrity is verified by [`Checkpoint::from_text`]'s CRC trailer);
/// `journal_bytes` the raw journal file (empty slice if absent); `genesis`
/// and `genesis_config` reconstruct the pre-first-snapshot state when no
/// snapshot was ever published. The returned machine is positioned exactly
/// where the journal's last valid record left the crashed run — continuing
/// it is bit-identical to a run that never crashed.
pub fn recover<'p>(
    program: &'p Program,
    snapshot_text: Option<&str>,
    journal_bytes: &[u8],
    genesis: Instance,
    genesis_config: ChaseConfig,
) -> Result<(ChaseMachine<'p>, RecoveryReport), CheckpointError> {
    let fp = program_fingerprint(program);
    let (mut machine, had_snapshot) = match snapshot_text {
        Some(text) => (Checkpoint::from_text(text)?.resume(program)?, true),
        None => (ChaseMachine::new(program, genesis_config, genesis), false),
    };
    let snapshot_applications = machine.stats().applications;

    let scan = scan_journal(journal_bytes, fp, machine.config.variant)?;
    if scan.base > snapshot_applications {
        return Err(CheckpointError::Inconsistent(format!(
            "journal base {} is ahead of the snapshot's {} applications; \
             snapshot and journal are from different runs",
            scan.base, snapshot_applications
        )));
    }

    let mut skipped = 0u64;
    let mut replayed = 0u64;
    for rec in &scan.records {
        if rec.applications <= snapshot_applications {
            skipped += 1;
            continue;
        }
        // Deterministic replay: the engine re-derives the application the
        // journal admitted; the logged triple verifies it.
        if machine.step().is_none() {
            return Err(CheckpointError::Inconsistent(format!(
                "journal records application {} but the chase saturated after {}",
                rec.applications,
                machine.stats().applications
            )));
        }
        replayed += 1;
        let (apps, atoms, nulls) =
            (machine.stats().applications, machine.instance.len(), machine.instance.null_count());
        if (apps, atoms, nulls) != (rec.applications, rec.atoms, rec.nulls) {
            return Err(CheckpointError::Inconsistent(format!(
                "replay diverged at journal record {}: engine reached \
                 (applications {apps}, atoms {atoms}, nulls {nulls}), journal \
                 recorded (applications {}, atoms {}, nulls {})",
                rec.applications, rec.applications, rec.atoms, rec.nulls
            )));
        }
    }

    let report = RecoveryReport {
        had_snapshot,
        snapshot_applications,
        records_valid: scan.records.len() as u64,
        records_skipped: skipped,
        records_replayed: replayed,
        bytes_truncated: scan.truncated_bytes,
        final_applications: machine.stats().applications,
        final_atoms: machine.instance.len(),
    };
    Ok((machine, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use chasekit_core::Program;

    fn example1() -> Program {
        // Paper Example 1: diverges under every variant, so any step budget
        // is reachable.
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap()
    }

    fn run_some(program: &Program, n: u64) -> ChaseMachine<'_> {
        let initial = Instance::from_atoms(program.facts().iter().cloned());
        let mut m = ChaseMachine::new(program, ChaseConfig::of(ChaseVariant::Oblivious), initial);
        let _ = m.run(&Budget::applications(n));
        m
    }

    fn journal_text(program: &Program, upto: u64) -> (Vec<u8>, String) {
        // Build a journal by hand from a reference run's step stream, plus
        // the final checkpoint text for comparison.
        let initial = Instance::from_atoms(program.facts().iter().cloned());
        let mut m = ChaseMachine::new(program, ChaseConfig::of(ChaseVariant::Oblivious), initial);
        let fp = program_fingerprint(program);
        let mut text = header_text(fp, ChaseVariant::Oblivious, 0);
        for _ in 0..upto {
            if m.step().is_none() {
                break;
            }
            let payload = format!(
                "r {} {} {}",
                m.stats().applications,
                m.instance.len(),
                m.instance.null_count()
            );
            let crc = crc32(payload.as_bytes());
            text.push_str(&format!("{payload} {crc:08x}\n"));
        }
        (text.into_bytes(), m.snapshot().to_text().unwrap())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn genesis_recovery_replays_the_whole_journal() {
        let p = example1();
        let (journal, want) = journal_text(&p, 6);
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let (m, report) = recover(
            &p,
            None,
            &journal,
            genesis,
            ChaseConfig::of(ChaseVariant::Oblivious),
        )
        .unwrap();
        assert!(!report.had_snapshot);
        assert_eq!(report.records_replayed, report.records_valid);
        assert_eq!(report.bytes_truncated, 0);
        assert_eq!(m.snapshot().to_text().unwrap(), want);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let p = example1();
        let (mut journal, _) = journal_text(&p, 6);
        // Tear the final record mid-line.
        let cut = journal.len() - 9;
        journal.truncate(cut);
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let (m, report) =
            recover(&p, None, &journal, genesis, ChaseConfig::of(ChaseVariant::Oblivious))
                .unwrap();
        assert_eq!(report.records_replayed, 5);
        assert!(report.bytes_truncated > 0);
        assert_eq!(m.stats().applications, 5);
    }

    #[test]
    fn corrupt_middle_record_truncates_everything_after() {
        let p = example1();
        let (journal, _) = journal_text(&p, 6);
        let mut s = String::from_utf8(journal).unwrap();
        // Flip a digit inside the third record's payload: CRC must catch it.
        let lines: Vec<&str> = s.lines().collect();
        let victim = lines[6]; // header is 4 lines; records start at index 4
        let broken = victim.replace("r ", "r9");
        s = s.replace(victim, &broken);
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let (_, report) =
            recover(&p, None, s.as_bytes(), genesis, ChaseConfig::of(ChaseVariant::Oblivious))
                .unwrap();
        assert_eq!(report.records_replayed, 2);
        assert!(report.bytes_truncated > 0);
    }

    #[test]
    fn torn_header_is_an_empty_journal() {
        let p = example1();
        let fp = program_fingerprint(&p);
        let header = header_text(fp, ChaseVariant::Oblivious, 0);
        for cut in 0..header.len() {
            let torn = &header.as_bytes()[..cut];
            let genesis = Instance::from_atoms(p.facts().iter().cloned());
            let (m, report) =
                recover(&p, None, torn, genesis, ChaseConfig::of(ChaseVariant::Oblivious))
                    .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(report.records_replayed, 0, "cut {cut}");
            assert_eq!(report.bytes_truncated, cut as u64, "cut {cut}");
            assert_eq!(m.stats().applications, 0);
        }
    }

    #[test]
    fn wrong_program_is_rejected() {
        let p = example1();
        let other = Program::parse("q(c). q(X) -> q(X).").unwrap();
        let (journal, _) = journal_text(&p, 3);
        let genesis = Instance::from_atoms(other.facts().iter().cloned());
        let err = recover(
            &other,
            None,
            &journal,
            genesis,
            ChaseConfig::of(ChaseVariant::Oblivious),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::ProgramMismatch { .. }), "{err}");
    }

    #[test]
    fn wrong_variant_is_rejected() {
        let p = example1();
        let (journal, _) = journal_text(&p, 3);
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let err = recover(
            &p,
            None,
            &journal,
            genesis,
            ChaseConfig::of(ChaseVariant::Restricted),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn snapshot_plus_stale_journal_skips_covered_records() {
        // Crash window: snapshot renamed at application 4, journal (based
        // at 0) still holds records 1..=6. Recovery must skip 1..=4 and
        // replay 5..=6.
        let p = example1();
        let (journal, _) = journal_text(&p, 6);
        let snap = run_some(&p, 4).snapshot().to_text().unwrap();
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let (m, report) = recover(
            &p,
            Some(&snap),
            &journal,
            genesis,
            ChaseConfig::of(ChaseVariant::Oblivious),
        )
        .unwrap();
        assert!(report.had_snapshot);
        assert_eq!(report.snapshot_applications, 4);
        assert_eq!(report.records_skipped, 4);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(m.stats().applications, 6);
        let want = run_some(&p, 6).snapshot().to_text().unwrap();
        assert_eq!(m.snapshot().to_text().unwrap(), want);
    }

    #[test]
    fn journal_ahead_of_snapshot_is_inconsistent() {
        let p = example1();
        let fp = program_fingerprint(&p);
        let journal = header_text(fp, ChaseVariant::Oblivious, 10).into_bytes();
        let snap = run_some(&p, 4).snapshot().to_text().unwrap();
        let genesis = Instance::from_atoms(p.facts().iter().cloned());
        let err = recover(
            &p,
            Some(&snap),
            &journal,
            genesis,
            ChaseConfig::of(ChaseVariant::Oblivious),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn writer_round_trips_through_scan() {
        let dir = std::env::temp_dir().join(format!("chasekit-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writer_round_trip.journal");
        let p = example1();
        let fp = program_fingerprint(&p);
        {
            let mut w = JournalWriter::create(&path, fp, ChaseVariant::Oblivious, 0).unwrap();
            let initial = Instance::from_atoms(p.facts().iter().cloned());
            let mut m =
                ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), initial);
            for _ in 0..5 {
                m.step().unwrap();
                w.append(m.stats().applications, m.instance.len(), m.instance.null_count());
            }
            assert_eq!(w.records(), 5);
            assert!(w.failed().is_none());
            w.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_journal(&bytes, fp, ChaseVariant::Oblivious).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_the_batch_boundary() {
        let dir =
            std::env::temp_dir().join(format!("chasekit-journal-gc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group_commit.journal");
        let p = example1();
        let fp = program_fingerprint(&p);
        let header_len = header_text(fp, ChaseVariant::Oblivious, 0).len() as u64;
        let mut w = JournalWriter::create(&path, fp, ChaseVariant::Oblivious, 0)
            .unwrap()
            .with_flush_every(4);
        let initial = Instance::from_atoms(p.facts().iter().cloned());
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), initial);
        // Three appends: all buffered, nothing past the header on disk.
        for _ in 0..3 {
            m.step().unwrap();
            w.append(m.stats().applications, m.instance.len(), m.instance.null_count());
        }
        assert_eq!(w.records(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header_len);
        // The fourth append completes the batch: one write of four lines.
        m.step().unwrap();
        w.append(m.stats().applications, m.instance.len(), m.instance.null_count());
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_journal(&bytes, fp, ChaseVariant::Oblivious).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.truncated_bytes, 0);
        // A fifth append buffers again; sync drains the partial batch.
        m.step().unwrap();
        w.append(m.stats().applications, m.instance.len(), m.instance.null_count());
        w.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_journal(&bytes, fp, ChaseVariant::Oblivious).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_short_write_tears_the_batch_to_a_scannable_prefix() {
        use crate::failpoint;
        let _g = crate::failpoint::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir =
            std::env::temp_dir().join(format!("chasekit-journal-gct-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group_commit_torn.journal");
        let p = example1();
        let fp = program_fingerprint(&p);
        let mut w = JournalWriter::create(&path, fp, ChaseVariant::Oblivious, 0)
            .unwrap()
            .with_flush_every(8);
        let initial = Instance::from_atoms(p.facts().iter().cloned());
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), initial);
        // Tear the 5th append mid-batch: the batch holds 4 buffered lines
        // plus the current one; 50 bytes lands inside it.
        failpoint::configure("journal.append=short:50@5").unwrap();
        for _ in 0..5 {
            m.step().unwrap();
            w.append(m.stats().applications, m.instance.len(), m.instance.null_count());
        }
        failpoint::clear();
        assert!(w.failed().is_some(), "short write must latch");
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_journal(&bytes, fp, ChaseVariant::Oblivious).unwrap();
        // Whatever survived is a valid consecutive prefix with a torn tail.
        assert!(scan.records.len() < 5);
        assert!(scan.truncated_bytes > 0);
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.applications, i as u64 + 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_snapshot_survives_reread() {
        let dir = std::env::temp_dir().join(format!("chasekit-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        let p = example1();
        let text = run_some(&p, 4).snapshot().to_text().unwrap();
        write_snapshot_atomic(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // Overwrite with a later snapshot; the temp file must be gone.
        let text2 = run_some(&p, 6).snapshot().to_text().unwrap();
        write_snapshot_atomic(&path, &text2).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text2);
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
