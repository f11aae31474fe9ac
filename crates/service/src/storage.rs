//! Journal storage shim: where journal bytes go and when they reach disk.
//!
//! The registry writes through a [`JournalStore`] rather than a raw
//! `BufWriter<File>` so the crash simulation can interpose a fault layer
//! (see [`crate::fault::FaultyStore`]) without the registry knowing.
//! Production uses [`FileStore`]; everything else is a test double.
//!
//! [`FlushPolicy`] is the durability knob on
//! [`crate::server::ServerConfig`]: it decides how far each appended
//! event is pushed toward stable storage before the mutation is
//! acknowledged.

use std::fs::File;
use std::io::{self, BufWriter, Write};

/// When journal bytes reach the operating system / the platter. Either
/// way an appended event has left the process before its mutation is
/// acknowledged, so a process crash never loses an acknowledged event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `flush()` to the OS after every event (the default): a process
    /// crash loses nothing, a kernel panic or power cut may lose the
    /// tail.
    #[default]
    PerEvent,
    /// `flush()` + `fdatasync()` after every event: survives power loss
    /// at the cost of a disk round-trip per mutation.
    Sync,
}

impl FlushPolicy {
    /// Config name of the policy (what reports print).
    pub fn config_name(self) -> String {
        match self {
            FlushPolicy::PerEvent => "per-event",
            FlushPolicy::Sync => "sync",
        }
        .to_string()
    }
}

/// An append-only byte sink for journal lines.
///
/// `append` writes one complete `\n`-terminated line; the caller applies
/// the [`FlushPolicy`] by following up with `flush`/`sync`. `reopen`
/// swaps the underlying file after compaction rewrites the journal (the
/// old handle points at the renamed-away inode).
pub trait JournalStore: Send {
    /// Appends raw bytes (one journal line).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; the registry treats any
    /// failure as "the event was not durably recorded" and refuses the
    /// mutation.
    fn append(&mut self, line: &[u8]) -> io::Result<()>;

    /// Pushes buffered bytes to the OS.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn flush(&mut self) -> io::Result<()>;

    /// The durability barrier: flushes and then fsyncs to stable
    /// storage. [`FlushPolicy::Sync`] crosses it after every event;
    /// [`crate::registry::Registry::commit`] and compaction cross it
    /// on demand.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn sync(&mut self) -> io::Result<()>;

    /// Replaces the underlying file (after compaction truncated the
    /// journal via rename).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error from flushing the old file.
    fn reopen(&mut self, file: File) -> io::Result<()>;
}

/// The production store: a buffered append-only file.
#[derive(Debug)]
pub struct FileStore {
    writer: BufWriter<File>,
}

impl FileStore {
    /// Wraps an open append-mode file.
    pub fn new(file: File) -> FileStore {
        FileStore {
            writer: BufWriter::new(file),
        }
    }
}

impl JournalStore for FileStore {
    fn append(&mut self, line: &[u8]) -> io::Result<()> {
        self.writer.write_all(line)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        // Data plus the file length: all an append-only journal needs
        // to read back every appended line after power loss.
        self.writer.flush()?;
        self.writer.get_ref().sync_data()
    }

    fn reopen(&mut self, file: File) -> io::Result<()> {
        // The outgoing writer holds the renamed-away inode; push out
        // anything it still buffers before dropping it.
        self.writer.flush()?;
        self.writer = BufWriter::new(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_policy_names() {
        assert_eq!(FlushPolicy::PerEvent.config_name(), "per-event");
        assert_eq!(FlushPolicy::Sync.config_name(), "sync");
        assert_eq!(FlushPolicy::default(), FlushPolicy::PerEvent);
    }

    #[test]
    fn file_store_appends_and_reopens() {
        let dir = std::env::temp_dir().join(format!("hwm-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        let mut store = FileStore::new(file);
        store.append(b"one\n").unwrap();
        store.sync().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\n");
        // Swap in a fresh file mid-stream, as compaction does.
        let path2 = dir.join("store2.jsonl");
        let _ = std::fs::remove_file(&path2);
        let file2 = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path2)
            .unwrap();
        store.reopen(file2).unwrap();
        store.append(b"two\n").unwrap();
        store.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path2).unwrap(), "two\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
