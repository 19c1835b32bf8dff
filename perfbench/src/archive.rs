//! Per-run weight archives: a unique path per run, packed by a child
//! process, removed when the run ends.
//!
//! `ArchiveWriter` truncates its target, so two runs sharing one archive
//! path could truncate a file under another run's live map (SIGBUS). Each
//! run therefore reserves its own name with an exclusive create before
//! packing into it.

use crate::workload::Workload;
use owlp_core::transformer::TinyTransformer;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Directory, relative to the working directory, that holds the run
/// archives while they exist.
pub const WORK_DIR: &str = "perfbench/work";

/// An archive path reserved for this run; the file is removed on drop.
#[derive(Debug)]
pub struct ScratchArchive {
    path: PathBuf,
}

impl ScratchArchive {
    /// Reserves a fresh `.owl2` name in `dir` (created if missing). The
    /// name holds the process id, the clock and a process-wide counter,
    /// and the exclusive create guarantees no other live run owns it.
    pub fn reserve(dir: &Path) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("run-{}-{nanos}-{n}.owl2", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(ScratchArchive { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchArchive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // Succeeds only once no other run's archive is left in it.
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// What packing one run's weights cost (offline work, outside set-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackReport {
    pub pack_s: f64,
    pub peak_alloc_bytes: usize,
    pub archive_bytes: u64,
}

impl PackReport {
    fn to_line(self) -> String {
        format!(
            "pack {} {} {}",
            self.pack_s, self.peak_alloc_bytes, self.archive_bytes
        )
    }

    fn parse(line: &str) -> Option<PackReport> {
        let mut it = line.strip_prefix("pack ")?.split(' ');
        let report = PackReport {
            pack_s: it.next()?.parse().ok()?,
            peak_alloc_bytes: it.next()?.parse().ok()?,
            archive_bytes: it.next()?.parse().ok()?,
        };
        it.next().is_none().then_some(report)
    }
}

/// Generates the workload's weights under `seed` and packs them into
/// `path`. Runs in the child process, so weight generation never counts
/// toward the parent's resident high-water mark.
pub fn pack_child(workload: Workload, seed: u64, path: &Path) -> Result<(), String> {
    let model = TinyTransformer::new(workload.config(), crate::workload::MODEL, seed);
    let t = Instant::now();
    let summary = model
        .save_archive(path)
        .map_err(|e| format!("save_archive: {e}"))?;
    let report = PackReport {
        pack_s: t.elapsed().as_secs_f64(),
        peak_alloc_bytes: summary.peak_alloc,
        archive_bytes: summary.file_len,
    };
    println!("{}", report.to_line());
    Ok(())
}

/// Packs the workload's weights into `archive` in a child process of this
/// executable and waits for it.
pub fn pack(workload: Workload, seed: u64, archive: &ScratchArchive) -> Result<PackReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--pack-child")
        .arg(archive.path())
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the pack child: {e}"))?;
    if !out.status.success() {
        return Err(format!("pack child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find_map(PackReport::parse)
        .ok_or_else(|| format!("pack child printed no report: {stdout:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("owlp-perfbench-{name}-{}", std::process::id()))
    }

    #[test]
    fn reserved_paths_are_unique_and_removed_on_drop() {
        let dir = test_dir("unique");
        let a = ScratchArchive::reserve(&dir).unwrap();
        let b = ScratchArchive::reserve(&dir).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().exists() && b.path().exists());
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists(), "archive removed at drop");
        assert!(dir.exists(), "directory kept while another archive lives");
        drop(b);
        assert!(!pb.exists());
        assert!(
            !dir.exists(),
            "empty directory removed with the last archive"
        );
    }

    #[test]
    fn reserve_never_reuses_an_existing_name() {
        let dir = test_dir("taken");
        let held: Vec<_> = (0..32)
            .map(|_| ScratchArchive::reserve(&dir).unwrap())
            .collect();
        let mut names: Vec<_> = held.iter().map(|a| a.path().to_path_buf()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), held.len());
    }

    #[test]
    fn a_packed_archive_is_not_clobbered_by_a_concurrent_run() {
        // Two runs pack and map their own archives; one run packing again
        // must leave the other's mapped bytes intact.
        use owlp_core::transformer::{GemmEngine, TinyConfig};
        let cfg = TinyConfig::small();
        let dir = test_dir("concurrent");
        let (a, b) = (
            ScratchArchive::reserve(&dir).unwrap(),
            ScratchArchive::reserve(&dir).unwrap(),
        );
        let model = TinyTransformer::new(cfg, crate::workload::MODEL, 3);
        model.save_archive(a.path()).unwrap();
        let mapped = TinyTransformer::from_archive(cfg, a.path()).unwrap();
        model.save_archive(b.path()).unwrap();
        let x = vec![owlp_format::Bf16::ONE; cfg.seq * cfg.hidden];
        assert_eq!(
            mapped.forward(&x, GemmEngine::Owlp).unwrap(),
            model.forward(&x, GemmEngine::Owlp).unwrap()
        );
    }

    #[test]
    fn pack_report_round_trips() {
        let r = PackReport {
            pack_s: 0.125,
            peak_alloc_bytes: 4096,
            archive_bytes: 123_456,
        };
        assert_eq!(PackReport::parse(&r.to_line()), Some(r));
        assert_eq!(PackReport::parse("pack 1 2"), None);
    }
}
