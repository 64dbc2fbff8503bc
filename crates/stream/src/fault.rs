//! Fault injection for the persistence I/O paths.
//!
//! Every state-changing filesystem operation of the stream persistence
//! layer — atomic file writes, renames, removals, WAL appends and
//! fsyncs — is routed through the shims in this module. In production
//! they are thin wrappers over `std::fs`; a test can *arm* a directory
//! scope to make the Nth operation under it misbehave:
//!
//! * [`FaultMode::Fail`] — the Nth operation returns an error, later
//!   operations succeed (a transient I/O failure);
//! * [`FaultMode::ShortWrite`] — the Nth write persists only a prefix
//!   of its bytes, then the scope goes *dead*: every later operation
//!   errors (a torn write at the moment of a crash);
//! * [`FaultMode::Crash`] — the Nth and every later operation does
//!   nothing and errors (the process died just before the operation).
//!
//! "Dead" models a crashed process: the in-memory store may keep
//! mutating, but nothing reaches disk anymore — recovery tests then
//! reopen the directory as a fresh process would. Scopes are matched by
//! path prefix and held in a process-global table so the shims work
//! from any thread, and concurrently running tests
//! with distinct scratch directories do not interfere.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// How an armed scope misbehaves at its trigger operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The Nth operation errors; later operations succeed.
    Fail,
    /// The Nth write persists a prefix of its bytes, then the scope is
    /// dead (every later operation errors). Non-write operations
    /// (rename, remove, sync) degrade to [`FaultMode::Crash`] behavior
    /// at the trigger.
    ShortWrite,
    /// The Nth and all later operations do nothing and error.
    Crash,
}

struct Armed {
    scope: PathBuf,
    nth: u64,
    mode: FaultMode,
    /// Operations observed under the scope so far.
    count: u64,
    /// Set once a `ShortWrite`/`Crash` trigger fired: all further
    /// operations error without touching disk.
    dead: bool,
}

static ARMED: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

fn table() -> std::sync::MutexGuard<'static, Vec<Armed>> {
    ARMED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `scope`: the `nth` (0-based) state-changing operation under it
/// misbehaves per `mode`. Re-arming a scope resets its counter.
pub fn arm(scope: &Path, nth: u64, mode: FaultMode) {
    let mut t = table();
    t.retain(|a| a.scope != scope);
    t.push(Armed {
        scope: scope.to_path_buf(),
        nth,
        mode,
        count: 0,
        dead: false,
    });
}

/// Disarms `scope`, returning how many operations it observed.
pub fn disarm(scope: &Path) -> u64 {
    let mut t = table();
    let n = t.iter().find(|a| a.scope == scope).map_or(0, |a| a.count);
    t.retain(|a| a.scope != scope);
    n
}

/// Operations observed under `scope` so far (0 if not armed).
pub fn op_count(scope: &Path) -> u64 {
    table()
        .iter()
        .find(|a| a.scope == scope)
        .map_or(0, |a| a.count)
}

fn injected(what: &str, path: &Path) -> io::Error {
    io::Error::other(format!("injected fault: {what} ({})", path.display()))
}

/// What the armed table decided for one operation.
enum Verdict {
    /// Not armed / not yet at the trigger: run the real operation.
    Proceed,
    /// This operation fails, later ones are unaffected.
    FailOnce,
    /// Persist a prefix of the payload, then the scope is dead.
    Short,
    /// The scope is dead (now or from an earlier trigger): touch nothing.
    Dead,
}

/// Counts one operation under whatever scope covers `path`.
fn check(path: &Path) -> Verdict {
    let mut t = table();
    let Some(a) = t.iter_mut().find(|a| path.starts_with(&a.scope)) else {
        return Verdict::Proceed;
    };
    if a.dead {
        return Verdict::Dead;
    }
    let n = a.count;
    a.count += 1;
    if n != a.nth {
        return Verdict::Proceed;
    }
    match a.mode {
        FaultMode::Fail => Verdict::FailOnce,
        FaultMode::ShortWrite => {
            a.dead = true;
            Verdict::Short
        }
        FaultMode::Crash => {
            a.dead = true;
            Verdict::Dead
        }
    }
}

/// `fs::write` through the shim. A short write persists the first half
/// of `bytes` (durably, so recovery sees the torn prefix) then errors.
pub(crate) fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match check(path) {
        Verdict::Proceed => fs::write(path, bytes),
        Verdict::FailOnce => Err(injected("write failed", path)),
        Verdict::Dead => Err(injected("crashed before write", path)),
        Verdict::Short => {
            let mut f = fs::File::create(path)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            Err(injected("short write", path))
        }
    }
}

/// `fs::rename` through the shim (counted against the destination's
/// scope; short-write degrades to crash — a rename has no prefix).
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match check(to) {
        Verdict::Proceed => fs::rename(from, to),
        Verdict::FailOnce => Err(injected("rename failed", to)),
        Verdict::Short | Verdict::Dead => Err(injected("crashed before rename", to)),
    }
}

/// `fs::remove_file` through the shim.
pub(crate) fn remove_file(path: &Path) -> io::Result<()> {
    match check(path) {
        Verdict::Proceed => fs::remove_file(path),
        Verdict::FailOnce => Err(injected("remove failed", path)),
        Verdict::Short | Verdict::Dead => Err(injected("crashed before remove", path)),
    }
}

/// Appends `bytes` to an open file through the shim (the WAL hot path).
pub(crate) fn append(file: &mut fs::File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    match check(path) {
        Verdict::Proceed => file.write_all(bytes),
        Verdict::FailOnce => Err(injected("append failed", path)),
        Verdict::Dead => Err(injected("crashed before append", path)),
        Verdict::Short => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            file.sync_all()?;
            Err(injected("short append", path))
        }
    }
}

/// `File::sync_all` through the shim.
pub(crate) fn sync(file: &fs::File, path: &Path) -> io::Result<()> {
    match check(path) {
        Verdict::Proceed => file.sync_all(),
        Verdict::FailOnce => Err(injected("sync failed", path)),
        Verdict::Short | Verdict::Dead => Err(injected("crashed before sync", path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("se-fault-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unarmed_paths_pass_through() {
        let dir = scratch("pass");
        write_file(&dir.join("a"), b"hello").unwrap();
        assert_eq!(fs::read(dir.join("a")).unwrap(), b"hello");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_is_transient_but_crash_is_sticky() {
        let dir = scratch("modes");
        arm(&dir, 1, FaultMode::Fail);
        write_file(&dir.join("a"), b"x").unwrap();
        assert!(write_file(&dir.join("b"), b"x").is_err());
        write_file(&dir.join("c"), b"x").unwrap();
        assert_eq!(disarm(&dir), 3);

        arm(&dir, 0, FaultMode::Crash);
        assert!(write_file(&dir.join("d"), b"x").is_err());
        assert!(write_file(&dir.join("e"), b"x").is_err());
        assert!(!dir.join("d").exists());
        disarm(&dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_persists_a_prefix_then_goes_dead() {
        let dir = scratch("short");
        arm(&dir, 0, FaultMode::ShortWrite);
        assert!(write_file(&dir.join("a"), b"0123456789").is_err());
        assert_eq!(fs::read(dir.join("a")).unwrap(), b"01234");
        assert!(write_file(&dir.join("b"), b"x").is_err());
        disarm(&dir);
        let _ = fs::remove_dir_all(&dir);
    }
}
