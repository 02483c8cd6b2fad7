//! # pd-cache — a content-addressed disk store
//!
//! [`DiskStore`] is a content-addressed artifact directory (the flow's
//! `PD_CACHE_DIR`). Artifacts are immutable once written — the key is a
//! hash of everything that determines the value — so there is no
//! eviction or invalidation: a stale entry is simply never addressed
//! again. Writes go through a temp file and an atomic rename, so a
//! crashed or concurrent writer can never leave a torn artifact where a
//! reader will find it.
//!
//! The crate is std-only and dependency-free so every layer can use it
//! without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Returns `true` if `key` is safe to use as a file name in the store:
/// non-empty, and only lowercase hex, digits, `.`, `_`, `-`. Content
/// hashes (`pd_anf::canon`) always qualify; anything else is rejected
/// before it can traverse out of the store directory.
pub fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_' | '-'))
}

/// A content-addressed artifact directory.
///
/// Keys name immutable artifacts; [`DiskStore::store`] is atomic
/// (temp file + rename) and last-writer-wins, which is sound because
/// every writer addressing the same key writes the same bytes.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn checked_path(&self, key: &str) -> io::Result<PathBuf> {
        if !valid_key(key) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid artifact key {key:?}"),
            ));
        }
        Ok(self.root.join(key))
    }

    /// Returns the artifact stored under `key`, or `None` if absent.
    pub fn load(&self, key: &str) -> io::Result<Option<String>> {
        let path = self.checked_path(key)?;
        match std::fs::read_to_string(&path) {
            Ok(contents) => Ok(Some(contents)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes `contents` under `key` atomically: a unique temp file in
    /// the same directory, then a rename over the final name.
    pub fn store(&self, key: &str, contents: &str) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.checked_path(key)?;
        let tmp = self.root.join(format!(
            ".tmp.{}.{}.{key}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, contents)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Returns `true` if an artifact exists under `key`.
    pub fn contains(&self, key: &str) -> io::Result<bool> {
        Ok(self.checked_path(key)?.exists())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pd-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_store_round_trips_and_rejects_bad_keys() {
        let store = DiskStore::open(scratch_dir("roundtrip")).unwrap();
        assert_eq!(store.load("abc123").unwrap(), None);
        store.store("abc123", "{\"x\": 1}\n").unwrap();
        assert_eq!(
            store.load("abc123").unwrap().as_deref(),
            Some("{\"x\": 1}\n")
        );
        assert!(store.contains("abc123").unwrap());
        for bad in ["", "../escape", "UPPER", "a/b", "a b"] {
            assert!(store.load(bad).is_err(), "key {bad:?} must be rejected");
            assert!(store.store(bad, "x").is_err());
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn disk_store_overwrite_is_atomic_and_idempotent() {
        let store = DiskStore::open(scratch_dir("atomic")).unwrap();
        store.store("k", "first").unwrap();
        store.store("k", "first").unwrap();
        assert_eq!(store.load("k").unwrap().as_deref(), Some("first"));
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = std::fs::remove_dir_all(store.root());
    }
}
