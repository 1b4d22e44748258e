//! Storage backends: where WAL and snapshot bytes physically live.
//!
//! The [`StorageBackend`] trait abstracts a flat directory of
//! append-only/atomically-replaced files so the same WAL, snapshot, and
//! recovery code runs against:
//!
//! * [`FsBackend`] — a real directory (production path: `fsync`-backed
//!   appends, write-temp-then-rename snapshots);
//! * [`MemBackend`] — an in-memory map (unit tests, benchmarks);
//! * [`FaultyBackend`] — the fault-injection harness: a [`MemBackend`]
//!   that "crashes" after an exact number of persisted bytes, leaving a
//!   torn tail behind, and can flip bits to simulate silent corruption.
//!   Recovery is tested against these simulated failures, not just happy
//!   paths.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{StorageError, StorageResult};

/// A flat namespace of files supporting the operations durability needs.
/// All methods take `&self`; implementations are internally synchronized
/// (the WAL serializes its own appends under a mutex anyway).
pub trait StorageBackend: Send + Sync {
    /// Append bytes to `file`, creating it if missing. On error, a
    /// *prefix* of `data` may have been persisted (torn write) — exactly
    /// what crash recovery must cope with.
    fn append(&self, file: &str, data: &[u8]) -> StorageResult<()>;

    /// Read a whole file; `Ok(None)` if it does not exist.
    fn read(&self, file: &str) -> StorageResult<Option<Vec<u8>>>;

    /// Replace `file` with `data` all-or-nothing (temp file + rename on
    /// the fs backend). Used for snapshots.
    fn write_atomic(&self, file: &str, data: &[u8]) -> StorageResult<()>;

    /// Shrink `file` to `len` bytes (recovery truncates torn WAL tails).
    fn truncate(&self, file: &str, len: u64) -> StorageResult<()>;

    /// Durably flush `file` to stable storage.
    fn sync(&self, file: &str) -> StorageResult<()>;

    /// Durably record the directory's entries: a file created by
    /// [`StorageBackend::append`] survives a power cut only once this
    /// returns, however often the file itself was synced.
    fn sync_dir(&self) -> StorageResult<()>;

    /// All file names, unsorted.
    fn list(&self) -> StorageResult<Vec<String>>;

    /// Delete a file (no-op if missing).
    fn remove(&self, file: &str) -> StorageResult<()>;
}

// ---------------------------------------------------------------------
// Filesystem backend
// ---------------------------------------------------------------------

/// Files in a real directory. `open` creates the directory if needed.
pub struct FsBackend {
    dir: PathBuf,
}

impl FsBackend {
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(FsBackend { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

impl StorageBackend for FsBackend {
    fn append(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(file))?;
        f.write_all(data)?;
        Ok(())
    }

    fn read(&self, file: &str) -> StorageResult<Option<Vec<u8>>> {
        match fs::read(self.path(file)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_atomic(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        let tmp = self.path(&format!("{file}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(file))?;
        // Make the rename itself durable: callers delete the files the
        // replaced state needed as soon as this returns.
        self.sync_dir()
    }

    fn truncate(&self, file: &str, len: u64) -> StorageResult<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(file))?;
        f.set_len(len)?;
        f.sync_all()?;
        Ok(())
    }

    fn sync(&self, file: &str) -> StorageResult<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(file))?;
        f.sync_all()?;
        Ok(())
    }

    fn sync_dir(&self) -> StorageResult<()> {
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn list(&self) -> StorageResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_owned());
                }
            }
        }
        Ok(names)
    }

    fn remove(&self, file: &str) -> StorageResult<()> {
        match fs::remove_file(self.path(file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------

/// Files in a shared map. Clones see the same data.
#[derive(Clone, Default)]
pub struct MemBackend {
    files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep copy of all files — what a crashed process "left on disk".
    pub fn dump(&self) -> HashMap<String, Vec<u8>> {
        self.files.lock().clone()
    }

    /// Build a backend from a dump (simulates reopening after a crash).
    pub fn from_dump(files: HashMap<String, Vec<u8>>) -> Self {
        MemBackend {
            files: Arc::new(Mutex::new(files)),
        }
    }

    /// XOR a byte in place — simulated bit rot for corruption tests.
    /// Panics if the file or offset does not exist (test-harness API).
    pub fn corrupt(&self, file: &str, offset: usize, xor_mask: u8) {
        let mut files = self.files.lock();
        let data = files.get_mut(file).expect("corrupt: no such file");
        data[offset] ^= xor_mask;
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|v| v.len() as u64).sum()
    }
}

impl StorageBackend for MemBackend {
    fn append(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        self.files
            .lock()
            .entry(file.to_owned())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn read(&self, file: &str) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.files.lock().get(file).cloned())
    }

    fn write_atomic(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        self.files.lock().insert(file.to_owned(), data.to_vec());
        Ok(())
    }

    fn truncate(&self, file: &str, len: u64) -> StorageResult<()> {
        let mut files = self.files.lock();
        let data = files
            .get_mut(file)
            .ok_or_else(|| StorageError::Corrupt(format!("truncate: no file {file}")))?;
        data.truncate(len as usize);
        Ok(())
    }

    fn sync(&self, _file: &str) -> StorageResult<()> {
        Ok(())
    }

    fn sync_dir(&self) -> StorageResult<()> {
        Ok(())
    }

    fn list(&self) -> StorageResult<Vec<String>> {
        Ok(self.files.lock().keys().cloned().collect())
    }

    fn remove(&self, file: &str) -> StorageResult<()> {
        self.files.lock().remove(file);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault-injection backend
// ---------------------------------------------------------------------

/// Deterministic fault injection over a [`MemBackend`].
///
/// `crash_after_bytes(n)` persists exactly `n` more bytes (across all
/// appends and atomic writes) and then fails: the append in flight keeps
/// its already-persisted prefix — a torn write — and every subsequent
/// operation returns [`StorageError::Crashed`], like a process whose
/// disk went away mid-stroke. [`FaultyBackend::surviving`] then yields
/// what a fresh process would find on disk.
///
/// Atomic writes are all-or-nothing even at the crash point (the rename
/// never happens), matching the fs backend's semantics.
pub struct FaultyBackend {
    inner: MemBackend,
    /// Bytes that may still be persisted before the simulated crash.
    budget: Mutex<u64>,
    crashed: AtomicBool,
}

impl FaultyBackend {
    /// Crash after exactly `n` more persisted bytes.
    pub fn crash_after_bytes(n: u64) -> Self {
        FaultyBackend {
            inner: MemBackend::new(),
            budget: Mutex::new(n),
            crashed: AtomicBool::new(false),
        }
    }

    /// Start from existing files (crash during a *re*-run).
    pub fn with_initial(files: HashMap<String, Vec<u8>>, crash_after: u64) -> Self {
        FaultyBackend {
            inner: MemBackend::from_dump(files),
            budget: Mutex::new(crash_after),
            crashed: AtomicBool::new(false),
        }
    }

    /// Has the crash point been hit?
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// The bytes a fresh process would find after the crash.
    pub fn surviving(&self) -> MemBackend {
        MemBackend::from_dump(self.inner.dump())
    }

    fn check_alive(&self) -> StorageResult<()> {
        if self.crashed() {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for FaultyBackend {
    fn append(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        self.check_alive()?;
        let mut budget = self.budget.lock();
        if (data.len() as u64) <= *budget {
            *budget -= data.len() as u64;
            self.inner.append(file, data)
        } else {
            // Torn write: persist the prefix that "made it to disk".
            let keep = *budget as usize;
            *budget = 0;
            self.crashed.store(true, Ordering::Relaxed);
            self.inner.append(file, &data[..keep])?;
            Err(StorageError::Crashed)
        }
    }

    fn read(&self, file: &str) -> StorageResult<Option<Vec<u8>>> {
        self.check_alive()?;
        self.inner.read(file)
    }

    fn write_atomic(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        self.check_alive()?;
        let mut budget = self.budget.lock();
        if (data.len() as u64) <= *budget {
            *budget -= data.len() as u64;
            self.inner.write_atomic(file, data)
        } else {
            // The temp file may be torn but the rename never happens, so
            // the visible namespace is untouched.
            *budget = 0;
            self.crashed.store(true, Ordering::Relaxed);
            Err(StorageError::Crashed)
        }
    }

    fn truncate(&self, file: &str, len: u64) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.truncate(file, len)
    }

    fn sync(&self, file: &str) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.sync(file)
    }

    fn sync_dir(&self) -> StorageResult<()> {
        self.check_alive()
    }

    fn list(&self) -> StorageResult<Vec<String>> {
        self.check_alive()?;
        self.inner.list()
    }

    fn remove(&self, file: &str) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.remove(file)
    }
}

/// A [`MemBackend`] that logs every append and sync, and can be told to
/// fail directory syncs or atomic writes (each failure is transient,
/// unlike [`FaultyBackend`]'s crash).
#[cfg(test)]
#[derive(Default)]
pub(crate) struct RecordingBackend {
    pub(crate) inner: MemBackend,
    calls: Mutex<Vec<String>>,
    pub(crate) fail_dir_sync: AtomicBool,
    pub(crate) fail_atomic: AtomicBool,
}

#[cfg(test)]
impl RecordingBackend {
    /// The calls logged since the last take.
    pub(crate) fn take_calls(&self) -> Vec<String> {
        std::mem::take(&mut *self.calls.lock())
    }

    fn failure(flag: &AtomicBool, what: &str) -> StorageResult<()> {
        if flag.load(Ordering::Relaxed) {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "{what} failed"
            ))));
        }
        Ok(())
    }
}

#[cfg(test)]
impl StorageBackend for RecordingBackend {
    fn append(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        self.calls.lock().push(format!("append {file}"));
        self.inner.append(file, data)
    }
    fn read(&self, file: &str) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read(file)
    }
    fn write_atomic(&self, file: &str, data: &[u8]) -> StorageResult<()> {
        Self::failure(&self.fail_atomic, "atomic write")?;
        self.inner.write_atomic(file, data)
    }
    fn truncate(&self, file: &str, len: u64) -> StorageResult<()> {
        self.inner.truncate(file, len)
    }
    fn sync(&self, file: &str) -> StorageResult<()> {
        self.calls.lock().push(format!("sync {file}"));
        Ok(())
    }
    fn sync_dir(&self) -> StorageResult<()> {
        self.calls.lock().push("sync_dir".into());
        Self::failure(&self.fail_dir_sync, "directory sync")
    }
    fn list(&self) -> StorageResult<Vec<String>> {
        self.inner.list()
    }
    fn remove(&self, file: &str) -> StorageResult<()> {
        self.inner.remove(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        backend.append("a.log", b"hello ").unwrap();
        backend.append("a.log", b"world").unwrap();
        assert_eq!(backend.read("a.log").unwrap().unwrap(), b"hello world");
        assert_eq!(backend.read("missing").unwrap(), None);

        backend.write_atomic("snap", b"v1").unwrap();
        backend.write_atomic("snap", b"v2-longer").unwrap();
        assert_eq!(backend.read("snap").unwrap().unwrap(), b"v2-longer");

        backend.truncate("a.log", 5).unwrap();
        assert_eq!(backend.read("a.log").unwrap().unwrap(), b"hello");
        backend.sync("a.log").unwrap();
        backend.sync_dir().unwrap();

        let mut names = backend.list().unwrap();
        names.sort();
        assert!(names.contains(&"a.log".to_owned()));
        assert!(names.contains(&"snap".to_owned()));

        backend.remove("snap").unwrap();
        backend.remove("snap").unwrap(); // idempotent
        assert_eq!(backend.read("snap").unwrap(), None);
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn fs_backend_contract() {
        let dir = std::env::temp_dir().join(format!(
            "cr-storage-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FsBackend::open(&dir).unwrap();
        exercise(&backend);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_backend_tears_the_exact_byte() {
        let backend = FaultyBackend::crash_after_bytes(10);
        backend.append("wal", b"123456").unwrap(); // 6 bytes in
        let err = backend.append("wal", b"abcdefgh").unwrap_err(); // 4 of 8 fit
        assert!(matches!(err, StorageError::Crashed));
        assert!(backend.crashed());
        // Every subsequent op fails.
        assert!(matches!(
            backend.append("wal", b"x"),
            Err(StorageError::Crashed)
        ));
        assert!(matches!(backend.read("wal"), Err(StorageError::Crashed)));
        // The survivor holds the torn prefix.
        let survivor = backend.surviving();
        assert_eq!(survivor.read("wal").unwrap().unwrap(), b"123456abcd");
    }

    #[test]
    fn faulty_atomic_write_is_all_or_nothing() {
        let backend = FaultyBackend::crash_after_bytes(4);
        assert!(backend.write_atomic("snap", b"too big for budget").is_err());
        let survivor = backend.surviving();
        assert_eq!(survivor.read("snap").unwrap(), None);
    }

    #[test]
    fn mem_corrupt_flips_bits() {
        let backend = MemBackend::new();
        backend.append("f", &[0b0000_0000]).unwrap();
        backend.corrupt("f", 0, 0b0001_0000);
        assert_eq!(backend.read("f").unwrap().unwrap(), &[0b0001_0000]);
    }
}
