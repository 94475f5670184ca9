//! Checkpoint/resume for chase runs.
//!
//! A [`Checkpoint`] captures everything a [`ChaseMachine`] needs to pick a
//! run back up exactly where it stopped: the instance (with the null
//! high-water mark), the pending-trigger queue, the trigger-identity set,
//! the scheduler RNG state, sequence counter, run statistics, and — when
//! tracking is enabled — the derivation DAG and Skolem-ancestry tables.
//!
//! **Determinism guarantee.** For a FIFO-scheduled run, interrupting at
//! any step boundary (deadline, cancellation, any budget), snapshotting,
//! and resuming yields *exactly* the same final instance, stats, and
//! derivation as the uninterrupted run — the queue order and identity set
//! are preserved verbatim. The same holds for `Scheduling::Random` because
//! the xorshift state is part of the snapshot. This is what makes
//! wall-clock guardrails safe to use in experiments: a killed-and-resumed
//! sample is the same sample.
//!
//! Checkpoints serialize to a line-oriented text format
//! ([`Checkpoint::to_text`]/[`Checkpoint::from_text`]) so the CLI can park
//! long runs on disk (`chasekit chase --checkpoint FILE`). The text format
//! intentionally excludes derivation/Skolem tracking state (those runs
//! are analysis runs, not long-haul runs); in-memory snapshots carry both.
//! A fingerprint of the program text guards against resuming a checkpoint
//! under a different program, which would silently corrupt the run.
//!
//! **Durability = atomic snapshots + determinism.** [`run_durable`]
//! publishes a snapshot after every leg of a long run with
//! [`write_snapshot_atomic`]. After a kill, the disk holds no snapshot or
//! the one published after some leg *k*, possibly beside a torn
//! `<path>.tmp` that nothing reads. A kill mid-leg leaves the same files as
//! a kill just before the next publication. Because the run from any
//! snapshot is a pure function of that snapshot, recovery is just "resume
//! the published snapshot (or start from genesis) and run on"; the result
//! is bit-identical to a run that was never interrupted. The CLI's
//! `chase --checkpoint` and the job server take the same three steps on
//! one snapshot file: [`open_durable`], [`run_durable`], [`finish_durable`].

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use chasekit_core::display::program_to_string;
use chasekit_core::{
    Atom, FxHashMap, Instance, NullId, PredId, Program, Substitution, Term, VarId,
};

use crate::chase::{
    ChaseConfig, ChaseMachine, ChaseStats, Identities, Scheduling, SkolemInfo, Trigger,
};
use crate::failpoint::{self, points};
use crate::trace::{TraceEvent, TraceSink};
use crate::variant::ChaseVariant;
use crate::{Budget, StopReason};

/// Why a checkpoint could not be created, serialized, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was taken under a different program than the one
    /// offered for resume.
    ProgramMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the program offered for resume.
        found: u64,
    },
    /// The checkpoint references state the program cannot supply (e.g. a
    /// rule index out of range).
    Inconsistent(String),
    /// This checkpoint cannot be written as text (derivation or Skolem
    /// tracking was enabled; only in-memory snapshots carry those).
    Unserializable(&'static str),
    /// The text form could not be parsed.
    Parse(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::ProgramMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different program \
                 (fingerprint {expected:016x}, offered program has {found:016x})"
            ),
            CheckpointError::Inconsistent(msg) => {
                write!(f, "checkpoint is inconsistent with the program: {msg}")
            }
            CheckpointError::Unserializable(what) => {
                write!(f, "checkpoint cannot be serialized: {what}")
            }
            CheckpointError::Parse(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A point-in-time capture of a chase run. See the module docs.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    config: ChaseConfig,
    program_fingerprint: u64,
    atoms: Vec<Atom>,
    next_null: u32,
    /// Pending triggers in queue order: rule index + substitution slots.
    queue: Vec<(usize, Vec<Option<Term>>)>,
    /// Trigger-identity entries, sorted for a canonical byte representation.
    seen: Vec<(u32, Vec<Term>)>,
    stats: ChaseStats,
    next_seq: u64,
    rng_state: u64,
    derivation: crate::derivation::DerivationDag,
    skolem: Vec<(NullId, SkolemInfo)>,
    skolem_cyclic: Option<NullId>,
}

/// FNV-1a over the canonical program text: cheap, stable across runs, and
/// collision-resistant enough for "is this the same program file".
pub(crate) fn program_fingerprint(program: &Program) -> u64 {
    let text = program_to_string(program);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<'p> ChaseMachine<'p> {
    /// Captures the machine's complete run state. Cheap relative to a chase
    /// run (clones the instance, queue, and identity set); callable at any
    /// step boundary, including after a guardrail stop.
    pub fn snapshot(&self) -> Checkpoint {
        // An updated machine (see `crate::incremental`) holds tombstoned
        // slab ids that the derivation DAG still references; re-numbering
        // the atoms densely here would silently detach the DAG.
        debug_assert!(
            self.instance.len() == self.instance.slab_len() || !self.config.track_derivation,
            "cannot snapshot a machine with retracted atoms"
        );
        let seen =
            self.sorted_identities().into_iter().map(|(rule, key)| (rule, key.to_vec())).collect();
        let mut skolem: Vec<(NullId, SkolemInfo)> =
            self.skolem.iter().map(|(k, v)| (*k, v.clone())).collect();
        skolem.sort_by_key(|(n, _)| *n);
        Checkpoint {
            config: self.config,
            program_fingerprint: program_fingerprint(self.program),
            atoms: self.instance.iter().map(|(_, a)| a.to_atom()).collect(),
            next_null: self.instance.null_count() as u32,
            queue: self
                .queue
                .iter()
                .map(|t| {
                    let slots = (0..t.subst.len()).map(|v| t.subst.get(VarId(v as u32))).collect();
                    (t.rule, slots)
                })
                .collect(),
            seen,
            stats: self.stats.clone(),
            next_seq: self.next_seq,
            rng_state: self.rng_state,
            derivation: self.derivation.clone(),
            skolem,
            skolem_cyclic: self.skolem_cyclic,
        }
    }

    /// The trigger identities in the canonical order of the v1 text:
    /// sorted by rule, then key.
    fn sorted_identities(&self) -> Vec<(u32, &[Term])> {
        let mut seen: Vec<(u32, &[Term])> = self.seen.iter().collect();
        seen.sort_unstable();
        seen
    }

    /// Appends to `out` the v1 text of the machine's run state: the bytes
    /// `self.snapshot().to_text()` returns, rendered straight from the
    /// arena, queue and identity sets without cloning them.
    fn write_text(&self, out: &mut Vec<u8>) -> Result<(), CheckpointError> {
        let head = TextHead {
            config: self.config,
            fingerprint: program_fingerprint(self.program),
            rng_state: self.rng_state,
            next_seq: self.next_seq,
            next_null: self.instance.null_count() as u32,
            stats: &self.stats,
        };
        write_v1(
            out,
            &head,
            (self.instance.len(), self.instance.iter().map(|(_, a)| (a.pred, a.args))),
            (self.queue.len(), self.queue.iter().map(|t| (t.rule, t.subst.slots()))),
            &self.sorted_identities(),
        )
    }
}

impl Checkpoint {
    /// Run statistics at the moment of the snapshot.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// Number of pending triggers captured.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of instance atoms captured.
    pub fn atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Reconstructs a runnable machine from this checkpoint.
    ///
    /// `program` must be the same program the checkpoint was taken under
    /// (checked by fingerprint). The resumed machine continues the run
    /// deterministically: same queue order, same identity set, same RNG
    /// state, same statistics.
    pub fn resume<'p>(&self, program: &'p Program) -> Result<ChaseMachine<'p>, CheckpointError> {
        let found = program_fingerprint(program);
        if found != self.program_fingerprint {
            return Err(CheckpointError::ProgramMismatch {
                expected: self.program_fingerprint,
                found,
            });
        }

        let mut instance = Instance::from_atoms(self.atoms.iter().cloned());
        // Restore the null high-water mark: nulls may have been minted past
        // the highest null occurring in an atom (e.g. imported instances).
        while instance.null_count() < self.next_null as usize {
            instance.fresh_null();
        }

        let mut queue = std::collections::VecDeque::with_capacity(self.queue.len());
        let mut queue_bytes = 0usize;
        for (rule_idx, slots) in &self.queue {
            let rule = program.rules().get(*rule_idx).ok_or_else(|| {
                CheckpointError::Inconsistent(format!(
                    "pending trigger references rule #{rule_idx}, but the program has {} rules",
                    program.rules().len()
                ))
            })?;
            if slots.len() != rule.var_count() {
                return Err(CheckpointError::Inconsistent(format!(
                    "pending trigger for rule #{rule_idx} has {} slots, rule has {} variables",
                    slots.len(),
                    rule.var_count()
                )));
            }
            let mut subst = Substitution::new(slots.len());
            for (v, slot) in slots.iter().enumerate() {
                if let Some(t) = slot {
                    subst.bind(VarId(v as u32), *t);
                }
            }
            queue_bytes += crate::guard::approx_trigger_bytes(subst.len());
            queue.push_back(Trigger { rule: *rule_idx, subst });
        }

        let mut seen = Identities::default();
        let mut seen_bytes = 0usize;
        for (rule, key) in &self.seen {
            seen_bytes += crate::guard::approx_identity_bytes(key.len());
            seen.insert(*rule as usize, key);
        }

        let atom_bytes: usize =
            instance.iter().map(|(_, a)| crate::guard::approx_atom_bytes(a.arity())).sum();

        let skolem: FxHashMap<NullId, SkolemInfo> =
            self.skolem.iter().map(|(k, v)| (*k, v.clone())).collect();

        Ok(ChaseMachine {
            program,
            config: self.config,
            instance,
            queue,
            seen,
            derivation: self.derivation.clone(),
            stats: self.stats.clone(),
            skolem,
            skolem_cyclic: self.skolem_cyclic,
            next_seq: self.next_seq,
            rng_state: self.rng_state,
            approx_bytes: atom_bytes + queue_bytes + seen_bytes,
            cancel: None,
            trace: None,
            progress: None,
            scratch: chasekit_core::MatchScratch::default(),
            args_buf: Vec::new(),
            key_buf: Vec::new(),
            text_buf: Vec::new(),
            skips: Default::default(),
            retracted_facts: Default::default(),
        })
    }

    /// Serializes the checkpoint to the line-oriented text format.
    ///
    /// Fails with [`CheckpointError::Unserializable`] if the run tracked
    /// derivations or Skolem ancestry — those analysis structures are only
    /// carried by in-memory snapshots.
    pub fn to_text(&self) -> Result<String, CheckpointError> {
        let head = TextHead {
            config: self.config,
            fingerprint: self.program_fingerprint,
            rng_state: self.rng_state,
            next_seq: self.next_seq,
            next_null: self.next_null,
            stats: &self.stats,
        };
        let seen: Vec<(u32, &[Term])> =
            self.seen.iter().map(|(rule, key)| (*rule, &key[..])).collect();
        let mut out = Vec::new();
        write_v1(
            &mut out,
            &head,
            (self.atoms.len(), self.atoms.iter().map(|a| (a.pred, &a.args[..]))),
            (self.queue.len(), self.queue.iter().map(|(rule, slots)| (*rule, &slots[..]))),
            &seen,
        )?;
        Ok(String::from_utf8(out).expect("checkpoint text is ASCII"))
    }

    /// Parses the text format produced by [`Checkpoint::to_text`].
    ///
    /// Strict in both directions: every parse error names the offending
    /// line, a `crc` trailer (written by every current [`to_text`](Self::to_text))
    /// is verified against the content, and any bytes after the final
    /// section are rejected as trailing garbage.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        let all: Vec<&str> = text.lines().collect();
        let mut idx = 0usize;
        let mut next = |what: &str| -> Result<(usize, &str), CheckpointError> {
            if idx >= all.len() {
                return Err(CheckpointError::Parse(format!(
                    "line {}: unexpected end of file, expected {what}",
                    all.len() + 1
                )));
            }
            idx += 1;
            Ok((idx, all[idx - 1]))
        };

        let (_, header) = next("header")?;
        if header.trim() != "chasekit-checkpoint v1" {
            return Err(CheckpointError::Parse(format!(
                "line 1: bad header {header:?} (expected \"chasekit-checkpoint v1\")"
            )));
        }

        let program_fingerprint = {
            let (n, l) = next("program line")?;
            let rest = l.strip_prefix("program ").ok_or_else(|| bad(n, l, "program <hex>"))?;
            u64::from_str_radix(rest.trim(), 16).map_err(|_| bad(n, l, "program <hex>"))?
        };

        let variant = {
            let (n, l) = next("variant line")?;
            let rest = l.strip_prefix("variant ").ok_or_else(|| bad(n, l, "variant <name>"))?;
            let name = rest.trim();
            ChaseVariant::from_name(name).ok_or_else(|| {
                CheckpointError::Parse(format!("line {n}: unknown chase variant {name:?}"))
            })?
        };

        // Delta discovery is the only matching mode, so only `0` is valid.
        {
            let (n, l) = next("naive-matching line")?;
            if l.strip_prefix("naive-matching ").map(str::trim) != Some("0") {
                return Err(bad(n, l, "naive-matching 0"));
            }
        }

        let scheduling = {
            let (n, l) = next("scheduling line")?;
            let rest =
                l.strip_prefix("scheduling ").ok_or_else(|| bad(n, l, "scheduling <policy>"))?;
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("fifo"), None) => Scheduling::Fifo,
                (Some("random"), Some(seed)) => Scheduling::Random(
                    seed.parse().map_err(|_| bad(n, l, "scheduling random <seed>"))?,
                ),
                _ => return Err(bad(n, l, "scheduling fifo|random <seed>")),
            }
        };

        let rng_state: u64 = {
            let (n, l) = next("rng line")?;
            kv(n, l, "rng")?
        };
        let next_seq: u64 = {
            let (n, l) = next("seq line")?;
            kv(n, l, "seq")?
        };
        let next_null: u32 = {
            let (n, l) = next("nulls line")?;
            kv(n, l, "nulls")?
        };

        let stats = {
            let (n, l) = next("stats line")?;
            let rest = l.strip_prefix("stats ").ok_or_else(|| bad(n, l, "stats <7 counters>"))?;
            let nums: Vec<u64> = rest
                .split_whitespace()
                .map(|w| w.parse::<u64>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad(n, l, "stats <7 counters>"))?;
            if nums.len() != 7 {
                return Err(bad(n, l, "stats <7 counters>"));
            }
            ChaseStats {
                applications: nums[0],
                atoms_added: nums[1],
                duplicate_atoms: nums[2],
                triggers_enqueued: nums[3],
                triggers_deduped: nums[4],
                satisfied_skips: nums[5],
                nulls_minted: nums[6],
            }
        };

        let atom_count: usize = {
            let (n, l) = next("atoms line")?;
            kv(n, l, "atoms")?
        };
        let mut atoms = Vec::with_capacity(atom_count);
        for _ in 0..atom_count {
            let (n, l) = next("atom line")?;
            let rest = l.strip_prefix("a ").ok_or_else(|| bad(n, l, "a <pred> <terms...>"))?;
            let mut parts = rest.split_whitespace();
            let pred: u32 = parts
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| bad(n, l, "a <pred> <terms...>"))?;
            let args = parts
                .map(|w| parse_term_token(w).ok_or_else(|| bad(n, l, "term token")))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|t| t.ok_or_else(|| bad(n, l, "ground term (no `_`)")))
                .collect::<Result<Vec<_>, _>>()?;
            atoms.push(Atom::new(PredId(pred), args));
        }

        let queue_count: usize = {
            let (n, l) = next("queue line")?;
            kv(n, l, "queue")?
        };
        let mut queue = Vec::with_capacity(queue_count);
        for _ in 0..queue_count {
            let (n, l) = next("queue line")?;
            let rest = l.strip_prefix("q ").ok_or_else(|| bad(n, l, "q <rule> <slots...>"))?;
            let mut parts = rest.split_whitespace();
            let rule: usize = parts
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| bad(n, l, "q <rule> <slots...>"))?;
            let slots = parts
                .map(|w| parse_term_token(w).ok_or_else(|| bad(n, l, "slot token")))
                .collect::<Result<Vec<_>, _>>()?;
            queue.push((rule, slots));
        }

        let seen_count: usize = {
            let (n, l) = next("seen line")?;
            kv(n, l, "seen")?
        };
        let mut seen = Vec::with_capacity(seen_count);
        for _ in 0..seen_count {
            let (n, l) = next("seen line")?;
            let rest = l.strip_prefix("s ").ok_or_else(|| bad(n, l, "s <rule> <terms...>"))?;
            let mut parts = rest.split_whitespace();
            let rule: u32 = parts
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| bad(n, l, "s <rule> <terms...>"))?;
            let key = parts
                .map(|w| parse_term_token(w).ok_or_else(|| bad(n, l, "term token")))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|t| t.ok_or_else(|| bad(n, l, "ground term (no `_`)")))
                .collect::<Result<Vec<_>, _>>()?;
            seen.push((rule, key));
        }

        let (n, l) = next("end line")?;
        if l.trim() != "end" {
            return Err(bad(n, l, "end"));
        }
        let mut pos = n; // 0-based index of the line after `end`

        // Integrity trailer (optional on input for pre-trailer files):
        // CRC32 over everything through the `end` line.
        if pos < all.len() && all[pos].starts_with("crc") {
            let lineno = pos + 1;
            let l = all[pos];
            let want = l
                .strip_prefix("crc ")
                .and_then(|r| u32::from_str_radix(r.trim(), 16).ok())
                .ok_or_else(|| bad(lineno, l, "crc <hex>"))?;
            // `to_text` writes `\n` endings, so the joined lines reproduce
            // the hashed bytes exactly; anything else (e.g. `\r\n`) is not
            // a file we wrote and fails the check as corruption.
            let mut covered = all[..pos].join("\n");
            covered.push('\n');
            let got = crc32(covered.as_bytes());
            if got != want {
                return Err(CheckpointError::Parse(format!(
                    "line {lineno}: checkpoint CRC mismatch (trailer {want:08x}, content {got:08x})"
                )));
            }
            pos += 1;
        }

        if pos < all.len() {
            return Err(CheckpointError::Parse(format!(
                "line {}: trailing garbage after checkpoint end: {:?}",
                pos + 1,
                all[pos]
            )));
        }

        Ok(Checkpoint {
            config: ChaseConfig {
                variant,
                track_derivation: false,
                track_skolem: false,
                scheduling,
            },
            program_fingerprint,
            atoms,
            next_null,
            queue,
            seen,
            stats,
            next_seq,
            rng_state,
            derivation: crate::derivation::DerivationDag::new(),
            skolem: Vec::new(),
            skolem_cyclic: None,
        })
    }
}

fn bad(line: usize, content: &str, expected: &str) -> CheckpointError {
    CheckpointError::Parse(format!("line {line}: {content:?} (expected `{expected}`)"))
}

/// Parses a `<key> <number>` line.
fn kv<T: std::str::FromStr>(n: usize, l: &str, key: &str) -> Result<T, CheckpointError> {
    let expected = format!("{key} <number>");
    let rest = l
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| bad(n, l, &expected))?;
    rest.trim().parse().map_err(|_| bad(n, l, &expected))
}

/// The v1 text's header fields: everything but its three sections.
struct TextHead<'a> {
    config: ChaseConfig,
    fingerprint: u64,
    rng_state: u64,
    next_seq: u64,
    next_null: u32,
    stats: &'a ChaseStats,
}

/// The one v1 writer, behind both [`Checkpoint::to_text`] and
/// [`publish_snapshot`]: appends the text of a run state to `out`. The
/// atom and queue sections come with their lengths; `seen` is written in
/// the order given. Numbers are formatted by hand into `out`, so the only
/// allocation is `out`'s own growth.
///
/// Fails with [`CheckpointError::Unserializable`] if the run tracked
/// derivations or Skolem ancestry, or a term is not ground; `out` then
/// holds a partial text.
fn write_v1<'a>(
    out: &mut Vec<u8>,
    head: &TextHead<'_>,
    (atom_count, atoms): (usize, impl Iterator<Item = (PredId, &'a [Term])>),
    (queue_count, queue): (usize, impl Iterator<Item = (usize, &'a [Option<Term>])>),
    seen: &[(u32, &[Term])],
) -> Result<(), CheckpointError> {
    if head.config.track_derivation {
        return Err(CheckpointError::Unserializable(
            "derivation tracking is enabled; use an in-memory snapshot",
        ));
    }
    if head.config.track_skolem {
        return Err(CheckpointError::Unserializable(
            "skolem tracking is enabled; use an in-memory snapshot",
        ));
    }
    let start = out.len();
    out.extend_from_slice(b"chasekit-checkpoint v1\nprogram ");
    push_hex(out, head.fingerprint, 16);
    out.extend_from_slice(b"\nvariant ");
    out.extend_from_slice(head.config.variant.name().as_bytes());
    // Retired ablation flag: always 0, kept so the format stays v1.
    out.extend_from_slice(b"\nnaive-matching 0\n");
    match head.config.scheduling {
        Scheduling::Fifo => out.extend_from_slice(b"scheduling fifo\n"),
        Scheduling::Random(seed) => {
            out.extend_from_slice(b"scheduling random ");
            push_u64(out, seed);
            out.push(b'\n');
        }
    }
    push_line(out, b"rng", head.rng_state);
    push_line(out, b"seq", head.next_seq);
    push_line(out, b"nulls", head.next_null.into());
    let s = head.stats;
    out.extend_from_slice(b"stats");
    for n in [
        s.applications,
        s.atoms_added,
        s.duplicate_atoms,
        s.triggers_enqueued,
        s.triggers_deduped,
        s.satisfied_skips,
        s.nulls_minted,
    ] {
        out.push(b' ');
        push_u64(out, n);
    }
    out.push(b'\n');

    push_line(out, b"atoms", atom_count as u64);
    for (pred, args) in atoms {
        out.extend_from_slice(b"a ");
        push_u64(out, pred.0.into());
        for &t in args {
            push_term(out, Some(t))?;
        }
        out.push(b'\n');
    }

    push_line(out, b"queue", queue_count as u64);
    for (rule, slots) in queue {
        out.extend_from_slice(b"q ");
        push_u64(out, rule as u64);
        for &slot in slots {
            push_term(out, slot)?;
        }
        out.push(b'\n');
    }

    push_line(out, b"seen", seen.len() as u64);
    for &(rule, key) in seen {
        out.extend_from_slice(b"s ");
        push_u64(out, rule.into());
        for &t in key {
            push_term(out, Some(t))?;
        }
        out.push(b'\n');
    }
    out.extend_from_slice(b"end\n");
    // Integrity trailer: CRC32 over every byte above, so recovery can
    // tell a corrupted snapshot from a valid one (not just a torn one).
    let crc = crc32(&out[start..]);
    out.extend_from_slice(b"crc ");
    push_hex(out, crc.into(), 8);
    out.push(b'\n');
    Ok(())
}

/// Appends `<key> <n>\n`.
fn push_line(out: &mut Vec<u8>, key: &[u8], n: u64) {
    out.extend_from_slice(key);
    out.push(b' ');
    push_u64(out, n);
    out.push(b'\n');
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends the low `width` hex digits of `n`, lowercase and zero-padded.
fn push_hex(out: &mut Vec<u8>, n: u64, width: u32) {
    for shift in (0..width).rev() {
        out.push(b"0123456789abcdef"[(n >> (4 * shift)) as usize & 0xf]);
    }
}

/// Appends a space and the term's token: `c<id>` for constants, `n<id>`
/// for nulls, `_` for an unbound slot. Variables never occur in
/// checkpoints (all captured terms are ground).
fn push_term(out: &mut Vec<u8>, slot: Option<Term>) -> Result<(), CheckpointError> {
    out.push(b' ');
    match slot {
        Some(Term::Const(c)) => {
            out.push(b'c');
            push_u64(out, c.0.into());
        }
        Some(Term::Null(n)) => {
            out.push(b'n');
            push_u64(out, n.0.into());
        }
        Some(Term::Var(_)) => {
            return Err(CheckpointError::Unserializable("checkpoint contains a non-ground term"))
        }
        None => out.push(b'_'),
    }
    Ok(())
}

/// Inverse of [`push_term`]: `Some(None)` is the `_` unbound marker.
fn parse_term_token(w: &str) -> Option<Option<Term>> {
    if w == "_" {
        return Some(None);
    }
    let (kind, id) = w.split_at(1);
    let id: u32 = id.parse().ok()?;
    match kind {
        "c" => Some(Some(Term::Const(chasekit_core::ConstId(id)))),
        "n" => Some(Some(Term::Null(NullId(id)))),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), slice-by-8. Tables built at compile
// time; no deps.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes, so one step folds 8 bytes with 8 lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the integrity check on the checkpoint text
/// trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Durability: atomic snapshots + determinism.
// ---------------------------------------------------------------------------

/// The sibling temporary file [`write_snapshot_atomic`] stages `path` in.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `text` to `path` crash-atomically: a sibling `<path>.tmp` is
/// written and fsync'd, renamed over `path`, and the parent directory is
/// fsync'd. A reader (or a resume after a kill at any point inside this
/// function) sees either the complete old snapshot or the complete new
/// one, never a torn mixture; at worst a torn `<path>.tmp` is left beside
/// it, which nothing reads.
pub fn write_snapshot_atomic(path: &Path, text: &str) -> io::Result<()> {
    write_snapshot_bytes(path, text.as_bytes())
}

/// [`write_snapshot_atomic`] of a text already in bytes.
fn write_snapshot_bytes(path: &Path, text: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = File::create(&tmp)?;
        match failpoint::trip_io(points::SNAPSHOT_WRITE)? {
            Some(n) => {
                let n = n.min(text.len());
                file.write_all(&text[..n])?;
                return Err(failpoint::injected(points::SNAPSHOT_WRITE));
            }
            None => file.write_all(text)?,
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

/// Removes the snapshot at `path` together with any torn `<path>.tmp` an
/// interrupted publication left beside it. Returns whether the snapshot
/// itself existed.
pub fn remove_snapshot(path: &Path) -> io::Result<bool> {
    let gone = |r: io::Result<()>| match r {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    };
    let existed = gone(std::fs::remove_file(path))?;
    gone(std::fs::remove_file(tmp_path(path)))?;
    Ok(existed)
}

/// Serializes `machine`, publishes it at `path` with
/// [`write_snapshot_atomic`], and notes [`TraceEvent::CheckpointWrite`].
/// The error names the path and the cause.
///
/// The text is the one `machine.snapshot().to_text()` returns, rendered
/// straight from the machine into a buffer the machine keeps for its next
/// publication: no [`Checkpoint`] is built.
pub fn publish_snapshot(machine: &mut ChaseMachine<'_>, path: &Path) -> Result<(), String> {
    let mut text = std::mem::take(&mut machine.text_buf);
    text.clear();
    let published = machine
        .write_text(&mut text)
        .map_err(|e| format!("cannot checkpoint run: {e}"))
        .and_then(|()| {
            write_snapshot_bytes(path, &text)
                .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))
        });
    machine.text_buf = text;
    published?;
    let (applications, atoms, pending) =
        (machine.stats().applications, machine.instance().len(), machine.pending());
    machine.trace_note(TraceEvent::CheckpointWrite { applications, atoms, pending });
    Ok(())
}

/// The one resume step of a durable run: resumes the snapshot published at
/// `path`, or starts from `genesis` when there is none (no `path`, or no
/// file at it).
///
/// The snapshot must have been taken under `program` and under `config`'s
/// variant: either mismatch is an error naming both sides, never a
/// silently different chase. `sink` is installed so that its sequence
/// numbers continue from the snapshot, and a resumed run notes
/// [`TraceEvent::CheckpointResume`]. Returns the machine and whether it
/// resumed.
pub fn open_durable<'p>(
    program: &'p Program,
    config: ChaseConfig,
    genesis: Instance,
    path: Option<&Path>,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<(ChaseMachine<'p>, bool), String> {
    let (path, text) = match path.map(|p| (p, std::fs::read_to_string(p))) {
        Some((path, Ok(text))) => (path, text),
        Some((path, Err(e))) if e.kind() != io::ErrorKind::NotFound => {
            return Err(format!("cannot read checkpoint {}: {e}", path.display()));
        }
        _ => {
            let machine = match sink {
                Some(sink) => ChaseMachine::new_with_trace(program, config, genesis, sink),
                None => ChaseMachine::new(program, config, genesis),
            };
            return Ok((machine, false));
        }
    };
    let snap = Checkpoint::from_text(&text)
        .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?;
    if snap.config.variant != config.variant {
        return Err(format!(
            "checkpoint {} was taken under the {} chase, not the requested {} chase",
            path.display(),
            snap.config.variant,
            config.variant
        ));
    }
    let mut machine = snap
        .resume(program)
        .map_err(|e| format!("cannot resume checkpoint {}: {e}", path.display()))?;
    if let Some(sink) = sink {
        machine.set_trace_sink(sink);
        let (applications, atoms, pending) =
            (snap.stats.applications, snap.atoms(), snap.pending());
        machine.trace_note(TraceEvent::CheckpointResume { applications, atoms, pending });
    }
    Ok((machine, true))
}

/// The durable leg loop the CLI `chase` command and the job server share.
///
/// Runs `machine` under `budget` in legs of `every` applications and, after
/// each leg that ends with application budget to spare, publishes the run
/// state at `publish` ([`publish_snapshot`]). `every == 0` or no `publish`
/// path runs one leg. The budget's wall-clock limit is one overall
/// deadline across all legs; its application cap is the run's total.
///
/// Returns why the run stopped. A failed publication stops the run with
/// [`StopReason::Io`] and the error text; the previously published
/// snapshot is untouched, and the machine itself is still consistent.
pub fn run_durable(
    machine: &mut ChaseMachine<'_>,
    budget: &Budget,
    every: u64,
    publish: Option<&Path>,
) -> (StopReason, Option<String>) {
    let deadline = budget.max_wall.map(|limit| Instant::now() + limit);
    loop {
        let leg_end = match publish {
            Some(_) if every > 0 => {
                machine.stats().applications.saturating_add(every).min(budget.max_applications)
            }
            _ => budget.max_applications,
        };
        let leg = Budget {
            max_applications: leg_end,
            max_wall: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            ..*budget
        };
        match (machine.run(&leg), publish) {
            (StopReason::Applications, Some(path)) if leg_end < budget.max_applications => {
                if let Err(msg) = publish_snapshot(machine, path) {
                    return (StopReason::Io, Some(msg));
                }
            }
            (stop, _) => return (stop, None),
        }
    }
}

/// The last step of a durable run that stopped with `outcome`: publishes
/// the final state at `path` ([`publish_snapshot`]) and returns whether it
/// did. After a failed publication ([`StopReason::Io`]) it publishes
/// nothing: the snapshot published before the failure stays the resumable
/// state.
pub fn finish_durable(
    machine: &mut ChaseMachine<'_>,
    outcome: StopReason,
    path: &Path,
) -> Result<bool, String> {
    if outcome == StopReason::Io {
        return Ok(false);
    }
    publish_snapshot(machine, path)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{ChaseConfig, ChaseMachine};
    use crate::guard::Budget;

    fn facts(p: &Program) -> Instance {
        Instance::from_atoms(p.facts().iter().cloned())
    }

    /// Runs `program` straight through under `budget_total` applications,
    /// and again interrupted at `cut` applications + snapshot + resume;
    /// asserts both paths produce identical instances and stats.
    fn assert_resume_transparent(text: &str, variant: ChaseVariant, cut: u64, total: u64) {
        let p = Program::parse(text).unwrap();

        let mut straight = ChaseMachine::new(&p, ChaseConfig::of(variant), facts(&p));
        let straight_stop = straight.run(&Budget::applications(total));

        let mut first = ChaseMachine::new(&p, ChaseConfig::of(variant), facts(&p));
        let first_stop = first.run(&Budget::applications(cut));
        assert!(first_stop.exhausted() || straight_stop.is_saturated());

        let snap = first.snapshot();
        // Round-trip through the text format too, so the CLI path gets the
        // same guarantee.
        let snap = Checkpoint::from_text(&snap.to_text().unwrap()).unwrap();
        let mut resumed = snap.resume(&p).unwrap();
        let resumed_stop = resumed.run(&Budget::applications(total));

        assert_eq!(resumed_stop, straight_stop);
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.instance().len(), straight.instance().len());
        for (i, (_, atom)) in straight.instance().iter().enumerate() {
            assert_eq!(
                resumed.instance().atom(chasekit_core::AtomId::from_index(i)),
                atom,
                "atom #{i} diverged after resume"
            );
        }
        assert_eq!(
            resumed.approx_memory_bytes(),
            straight.approx_memory_bytes(),
            "memory accounting diverged after resume"
        );
    }

    /// Paper Example 1 (diverging): interrupting and resuming the FIFO run
    /// is invisible in the final instance.
    #[test]
    fn resume_is_transparent_on_paper_example_1() {
        let text = "person(X) -> hasFather(X, Y), person(Y). person(bob).";
        for variant in
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
        {
            for cut in [1, 7, 50] {
                assert_resume_transparent(text, variant, cut, 120);
            }
        }
    }

    /// Paper Example 2 (diverging path-builder): same transparency.
    #[test]
    fn resume_is_transparent_on_paper_example_2() {
        let text = "p(a, b). p(X, Y) -> p(Y, Z).";
        for variant in
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
        {
            for cut in [1, 13, 60] {
                assert_resume_transparent(text, variant, cut, 90);
            }
        }
    }

    /// A terminating workload: interrupt mid-run, resume, and the run still
    /// saturates to the identical model.
    #[test]
    fn resume_is_transparent_on_terminating_workloads() {
        let text = "e(a, b). e(b, c). e(c, d).
                    e(X, Y) -> t(X, Y).
                    e(X, Y), t(Y, Z) -> t(X, Z).";
        assert_resume_transparent(text, ChaseVariant::SemiOblivious, 2, 100_000);
        assert_resume_transparent(text, ChaseVariant::Restricted, 3, 100_000);
    }

    /// Random scheduling snapshots the xorshift state, so resume stays
    /// deterministic there as well.
    #[test]
    fn resume_preserves_random_scheduling_state() {
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z). p(X, Y) -> q(X).").unwrap();
        let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_random_scheduling(42);

        let mut straight = ChaseMachine::new(&p, cfg, facts(&p));
        let _ = straight.run(&Budget::applications(80));

        let mut first = ChaseMachine::new(&p, cfg, facts(&p));
        let _ = first.run(&Budget::applications(25));
        let snap = Checkpoint::from_text(&first.snapshot().to_text().unwrap()).unwrap();
        let mut resumed = snap.resume(&p).unwrap();
        let _ = resumed.run(&Budget::applications(80));

        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.instance().len(), straight.instance().len());
        for (_, atom) in straight.instance().iter() {
            assert!(resumed.instance().id_of_parts(atom.pred, atom.args).is_some());
        }
    }

    #[test]
    fn resume_under_a_different_program_is_rejected() {
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
        let other = Program::parse("p(a, b). p(X, Y) -> p(X, Z).").unwrap();
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), facts(&p));
        let _ = m.run(&Budget::applications(5));
        let snap = m.snapshot();
        match snap.resume(&other) {
            Err(CheckpointError::ProgramMismatch { .. }) => {}
            other => panic!("expected ProgramMismatch, got {other:?}"),
        }
    }

    #[test]
    fn text_form_is_canonical_and_round_trips() {
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::SemiOblivious), facts(&p));
        let _ = m.run(&Budget::applications(9));
        let text = m.snapshot().to_text().unwrap();
        let reparsed = Checkpoint::from_text(&text).unwrap();
        assert_eq!(reparsed.to_text().unwrap(), text);
        assert_eq!(reparsed.pending(), m.pending());
        assert_eq!(reparsed.atoms(), m.instance().len());
    }

    #[test]
    fn tracked_runs_refuse_text_serialization() {
        let p = Program::parse("p(a). p(X) -> q(X, Y).").unwrap();
        let mut m = ChaseMachine::new(
            &p,
            ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation(),
            facts(&p),
        );
        let _ = m.run(&Budget::default());
        assert!(matches!(m.snapshot().to_text(), Err(CheckpointError::Unserializable(_))));
    }

    /// In-memory snapshots do carry the derivation DAG and skolem state.
    #[test]
    fn in_memory_snapshot_preserves_tracking_state() {
        let p = Program::parse("person(a). person(X) -> father(X, Y), person(Y).").unwrap();
        let cfg = ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation().with_skolem();

        let mut straight = ChaseMachine::new(&p, cfg, facts(&p));
        let _ = straight.run(&Budget::applications(20));

        let mut first = ChaseMachine::new(&p, cfg, facts(&p));
        let _ = first.run(&Budget::applications(6));
        let mut resumed = first.snapshot().resume(&p).unwrap();
        let _ = resumed.run(&Budget::applications(20));

        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(
            resumed.derivation().applications().count(),
            straight.derivation().applications().count()
        );
        assert_eq!(resumed.skolem_cyclic(), straight.skolem_cyclic());
    }

    #[test]
    fn malformed_text_is_reported_with_line_context() {
        assert!(matches!(
            Checkpoint::from_text("not a checkpoint"),
            Err(CheckpointError::Parse(_))
        ));
        let p = Program::parse("p(a, b). p(X, Y) -> p(Y, Z).").unwrap();
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), facts(&p));
        let _ = m.run(&Budget::applications(3));
        let good = m.snapshot().to_text().unwrap();
        let truncated = &good[..good.len() / 2];
        assert!(matches!(Checkpoint::from_text(truncated), Err(CheckpointError::Parse(_))));
        // Naive matching is gone; a snapshot claiming it is rejected at its line.
        let naive = good.replacen("naive-matching 0\n", "naive-matching 1\n", 1);
        match Checkpoint::from_text(&naive) {
            Err(CheckpointError::Parse(msg)) => assert!(msg.starts_with("line 4:"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    /// The reference: one table-free bit step per input bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_slice_by_8_equals_the_bitwise_loop() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for round in 0..216 {
            let len = if round <= 16 { round } else { (next() % 4097) as usize };
            let start = (next() % 8) as usize;
            let bytes = &data[start..start + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len}, start {start}");
        }
    }

    /// The text [`publish_snapshot`] writes is the one a [`Checkpoint`]
    /// of the same machine renders, and a tracked machine fails with the
    /// same error either way.
    #[test]
    fn publication_writes_the_text_of_the_snapshot() {
        let path = scratch("publish.ckpt");
        let p =
            Program::parse("p(a, b). p(X, Y) -> p(Y, Z), q(X). q(X), p(X, Y) -> r(Y, X).").unwrap();
        let mut configs: Vec<ChaseConfig> =
            [ChaseVariant::Oblivious, ChaseVariant::SemiOblivious, ChaseVariant::Restricted]
                .into_iter()
                .map(ChaseConfig::of)
                .collect();
        configs.push(ChaseConfig::of(ChaseVariant::SemiOblivious).with_random_scheduling(7));
        for config in configs {
            let mut m = ChaseMachine::new(&p, config, facts(&p));
            for cut in [0, 1, 9, 40] {
                m.run(&Budget::applications(cut));
                assert!(cut == 0 || m.pending() > 0, "the queue stays non-empty");
                publish_snapshot(&mut m, &path).unwrap();
                let want = m.snapshot().to_text().unwrap();
                assert_eq!(std::fs::read_to_string(&path).unwrap(), want, "{config:?} at {cut}");
            }
        }
        let tracked = ChaseConfig::of(ChaseVariant::SemiOblivious).with_derivation();
        let mut m = ChaseMachine::new(&p, tracked, facts(&p));
        m.run(&Budget::applications(3));
        let want = format!("cannot checkpoint run: {}", m.snapshot().to_text().unwrap_err());
        assert_eq!(publish_snapshot(&mut m, &path), Err(want));
        std::fs::remove_file(&path).unwrap();
    }

    fn example1() -> Program {
        // Paper Example 1: diverges under every variant, so any step budget
        // is reachable.
        Program::parse("person(bob). person(X) -> hasFather(X, Y), person(Y).").unwrap()
    }

    fn run_some(p: &Program, n: u64) -> ChaseMachine<'_> {
        let mut m = ChaseMachine::new(p, ChaseConfig::of(ChaseVariant::Oblivious), facts(p));
        let _ = m.run(&Budget::applications(n));
        m
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chasekit-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn atomic_snapshot_survives_reread() {
        let path = scratch("atomic.ckpt");
        let p = example1();
        let text = run_some(&p, 4).snapshot().to_text().unwrap();
        write_snapshot_atomic(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // Overwrite with a later snapshot; the temp file must be gone.
        let text2 = run_some(&p, 6).snapshot().to_text().unwrap();
        write_snapshot_atomic(&path, &text2).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text2);
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn remove_snapshot_takes_the_torn_tmp_along() {
        let path = scratch("remove.ckpt");
        std::fs::write(&path, "snapshot").unwrap();
        std::fs::write(tmp_path(&path), "torn").unwrap();
        assert!(remove_snapshot(&path).unwrap());
        assert!(!path.exists() && !tmp_path(&path).exists());
        // Nothing left: not an error, and reports that no snapshot existed.
        assert!(!remove_snapshot(&path).unwrap());
    }

    #[test]
    fn open_durable_starts_resumes_and_refuses_another_variant() {
        let path = scratch("open.ckpt");
        let _ = std::fs::remove_file(&path);
        let p = example1();
        let so = ChaseConfig::of(ChaseVariant::SemiOblivious);
        let (mut m, resumed) = open_durable(&p, so, facts(&p), Some(&path), None).unwrap();
        assert!(!resumed, "no file: the run starts from genesis");
        m.run(&Budget::applications(5));
        assert!(finish_durable(&mut m, StopReason::Applications, &path).unwrap());

        let (again, resumed) = open_durable(&p, so, facts(&p), Some(&path), None).unwrap();
        assert!(resumed);
        assert_eq!(again.snapshot().to_text(), m.snapshot().to_text());
        let restricted = ChaseConfig::of(ChaseVariant::Restricted);
        let err = open_durable(&p, restricted, facts(&p), Some(&path), None).err().unwrap();
        assert!(err.contains("semi-oblivious") && err.contains("restricted"), "{err}");

        // After a failed publication the earlier snapshot stays in place.
        m.run(&Budget::applications(9));
        assert!(!finish_durable(&mut m, StopReason::Io, &path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), again.snapshot().to_text().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_legs_publish_a_resumable_prefix() {
        let path = scratch("legs.ckpt");
        let _ = std::fs::remove_file(&path);
        let p = example1();
        let mut m = ChaseMachine::new(&p, ChaseConfig::of(ChaseVariant::Oblivious), facts(&p));
        let (stop, err) = run_durable(&mut m, &Budget::applications(10), 4, Some(&path));
        assert_eq!((stop, err), (StopReason::Applications, None));
        // Legs end at 4 and 8 with budget to spare; the last leg (to 10)
        // does not publish.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, run_some(&p, 8).snapshot().to_text().unwrap());
        let mut resumed = Checkpoint::from_text(&text).unwrap().resume(&p).unwrap();
        resumed.run(&Budget::applications(10));
        assert_eq!(resumed.snapshot().to_text(), m.snapshot().to_text());
        std::fs::remove_file(&path).unwrap();
    }
}
