//! Shared durability primitives for on-disk artifacts.
//!
//! Two artifact families need the same crash-safety discipline: the sweep
//! journal (written by `sweep::run_sweep`, read by
//! `SweepReport::recover_journal`) and model checkpoints (`checkpoint`).
//! This module factors the pieces they must agree on, so the two paths
//! cannot drift:
//!
//! * [`Fnv1a`] — the 64-bit FNV-1a hasher behind every content fingerprint
//!   in the workspace (`sweep::grid_fingerprint`, checkpoint payload
//!   fingerprints), with the length-prefixed token feed that makes
//!   concatenations collision-free.
//! * [`atomic_write`] — temp file + fsync + rename + directory fsync, so a
//!   reader never observes a half-written artifact: either the old file,
//!   the new file, or a stray `*.tmp` sibling that loaders ignore.
//! * [`parse_log_rows`] — validated reading of line-delimited artifacts
//!   under an explicit [`TailPolicy`]: append-only journals tolerate (and
//!   drop) one torn trailing line, the mark of a mid-append crash, while
//!   atomically written artifacts treat any unparseable line as corruption.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Suffix of the sibling temp file [`atomic_write`] stages into. Directory
/// scanners (checkpoint registry loading) skip files with this suffix: a
/// stray temp file is the only trace a `kill -9` mid-write can leave.
pub const TEMP_SUFFIX: &str = ".tmp";

/// 64-bit FNV-1a, the workspace's content-fingerprint hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one token, length-prefixed so token concatenations cannot
    /// collide (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn feed_token(&mut self, token: &str) {
        self.update(&token.len().to_le_bytes());
        self.update(token.as_bytes());
    }

    /// The fingerprint as 16 lowercase hex digits.
    pub fn finish_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a fingerprint of a byte string, as 16 lowercase hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.finish_hex()
}

/// The sibling temp path [`atomic_write`] stages through: the target file
/// name with [`TEMP_SUFFIX`] appended, in the same directory (renames are
/// only atomic within one filesystem).
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TEMP_SUFFIX);
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically and durably: stage into the
/// [`temp_path`] sibling, fsync, rename over the target, then fsync the
/// parent directory so the rename itself survives a power loss. A crash at
/// any point leaves either the previous file intact or a stray temp file —
/// never a torn target — which is the same discipline the sweep journal
/// uses for its fsync'd appends.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let staging = temp_path(path);
    let mut file = File::create(&staging)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&staging, path).inspect_err(|_| {
        // Best-effort cleanup; the stray temp file is harmless (loaders
        // skip it) but tidy directories beat mysterious leftovers.
        let _ = std::fs::remove_file(&staging);
    })?;
    // A bare file name has an empty parent: the current directory.
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// How the last line of a line-delimited artifact may fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailPolicy {
    /// Drop an unparseable *last* line silently: an append-only, fsync'd
    /// journal killed mid-write leaves at most one torn trailing line, and
    /// every interior row is known durable.
    DropTorn,
    /// Any unparseable line is corruption. Atomically written artifacts
    /// can never legitimately tear, so nothing is forgiven.
    Strict,
}

/// Why [`parse_log_rows`] rejected a row line. `line` is the 1-based line
/// number within the artifact (headers included via `first_line`).
#[derive(Debug, Clone, PartialEq)]
pub enum RowError<E> {
    /// An interior line was empty (only a trailing newline at EOF is legal).
    Empty {
        /// 1-based line number of the empty line.
        line: usize,
    },
    /// A line failed to parse (and the tail policy did not forgive it).
    Parse {
        /// 1-based line number of the bad line.
        line: usize,
        /// The parse error, typed by the caller.
        error: E,
    },
}

/// What [`parse_log_rows`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRows<R> {
    /// The parsed rows, in line order.
    pub rows: Vec<R>,
    /// Whether a torn trailing line was dropped (only under
    /// [`TailPolicy::DropTorn`]).
    pub dropped_torn: bool,
}

/// Validated read of the row lines of a line-delimited artifact.
///
/// `lines` are the lines after any header, `first_line` the 1-based
/// artifact line number of `lines[0]` (2 for a one-line header). A trailing
/// empty line (the newline at EOF) is accepted; an empty interior line,
/// or a line `parse` rejects, is a [`RowError`] — except the *last* line
/// under [`TailPolicy::DropTorn`], which is dropped as a torn tail.
pub fn parse_log_rows<R, E>(
    lines: &[&str],
    first_line: usize,
    tail: TailPolicy,
    parse: impl Fn(&str) -> Result<R, E>,
) -> Result<ParsedRows<R>, RowError<E>> {
    let mut rows = Vec::with_capacity(lines.len());
    let mut dropped_torn = false;
    for (i, line) in lines.iter().enumerate() {
        let is_last = i + 1 == lines.len();
        if line.is_empty() {
            if is_last {
                break; // trailing newline at EOF
            }
            return Err(RowError::Empty {
                line: first_line + i,
            });
        }
        match parse(line) {
            Ok(row) => rows.push(row),
            Err(_) if is_last && tail == TailPolicy::DropTorn => {
                dropped_torn = true;
                break;
            }
            Err(error) => {
                return Err(RowError::Parse {
                    line: first_line + i,
                    error,
                })
            }
        }
    }
    Ok(ParsedRows { rows, dropped_torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_usize(line: &str) -> Result<usize, String> {
        line.parse::<usize>().map_err(|e| e.to_string())
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn token_feed_is_length_prefixed() {
        let mut ab_c = Fnv1a::new();
        ab_c.feed_token("ab");
        ab_c.feed_token("c");
        let mut a_bc = Fnv1a::new();
        a_bc.feed_token("a");
        a_bc.feed_token("bc");
        assert_ne!(ab_c.finish_hex(), a_bc.finish_hex());
    }

    #[test]
    fn atomic_write_replaces_the_target_and_leaves_no_temp_file() {
        let path = std::env::temp_dir().join(format!(
            "panda_surrogate_atomic_write_test_{}.txt",
            std::process::id()
        ));
        atomic_write(&path, b"first\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first\n");
        atomic_write(&path, b"second\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second\n");
        assert!(!temp_path(&path).exists(), "staging file must be renamed");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn intact_rows_parse_under_both_policies() {
        for tail in [TailPolicy::DropTorn, TailPolicy::Strict] {
            let parsed = parse_log_rows(&["1", "2", "3", ""], 2, tail, parse_usize).unwrap();
            assert_eq!(parsed.rows, vec![1, 2, 3]);
            assert!(!parsed.dropped_torn);
        }
    }

    #[test]
    fn torn_tail_is_dropped_only_under_drop_torn() {
        let lines = ["1", "2", "{\"torn"];
        let parsed = parse_log_rows(&lines, 2, TailPolicy::DropTorn, parse_usize).unwrap();
        assert_eq!(parsed.rows, vec![1, 2]);
        assert!(parsed.dropped_torn);
        assert_eq!(
            parse_log_rows(&lines, 2, TailPolicy::Strict, parse_usize),
            Err(RowError::Parse {
                line: 4,
                error: parse_usize("{\"torn").unwrap_err(),
            })
        );
    }

    #[test]
    fn interior_corruption_is_rejected_with_its_line_number() {
        let lines = ["1", "bad", "3", ""];
        for tail in [TailPolicy::DropTorn, TailPolicy::Strict] {
            let err = parse_log_rows(&lines, 2, tail, parse_usize).unwrap_err();
            assert!(matches!(err, RowError::Parse { line: 3, .. }), "{err:?}");
        }
    }

    #[test]
    fn interior_empty_lines_are_rejected() {
        let lines = ["1", "", "3"];
        for tail in [TailPolicy::DropTorn, TailPolicy::Strict] {
            assert_eq!(
                parse_log_rows(&lines, 2, tail, parse_usize),
                Err(RowError::Empty { line: 3 })
            );
        }
    }
}
