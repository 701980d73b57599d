//! Atomic, durable file replacement.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically and durably: the bytes land in a
/// unique temp sibling first, the temp file is fsync'd, then renamed
/// over `path`, then the parent directory is fsync'd (best-effort on
/// filesystems that refuse directory fsync). A crash at any point
/// leaves either the old file or the new one — never a torn mix, and
/// never a renamed-but-empty file.
///
/// This is the primitive behind WAL segment rotation, snapshot-index
/// saves, and `adcomp-core`'s probe checkpoints.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // Unique per process: concurrent writers to *different* targets in
    // the same directory never collide; two writers to the same target
    // race benignly (last rename wins, both renames are atomic).
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            // Durability of the rename itself. Some filesystems (and
            // some CI sandboxes) reject opening a directory for sync;
            // the rename is still atomic there, so this is advisory.
            if let Ok(dirf) = File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = crate::test_dir("replace");
        let path = dir.join("target.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bare_directory_path() {
        let dir = crate::test_dir("bare");
        assert!(write_atomic(&dir.join(""), b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
