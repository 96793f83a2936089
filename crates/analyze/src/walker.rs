//! Workspace discovery: which `.rs` files get analyzed, and under which
//! [`FileCtx`] scope.
//!
//! The wall covers *shipped source*: every `crates/<name>/src/**/*.rs`
//! plus the umbrella crate's `src/`. Integration tests, benches, and
//! examples are out of scope by construction (they live outside `src/`),
//! matching the in-file `#[cfg(test)]` masking. Files under `src/bin/`
//! are classified as binary targets so D2 lets entry points touch the
//! clock for CLI UX.

use crate::lints::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file to analyze.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Scope used by the lint passes.
    pub ctx: FileCtx,
}

/// Enumerate the workspace's analyzable sources under `root`, sorted by
/// relative path so reports are stable.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &name, root, &mut out)?;
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, "dsp-repro", root, &mut out)?;
    }
    out.sort_by(|a, b| a.ctx.rel_path.cmp(&b.ctx.rel_path));
    Ok(out)
}

fn collect_rs(
    dir: &Path,
    crate_name: &str,
    root: &Path,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, crate_name, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = rel_path(root, &path);
            let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
            out.push(SourceFile {
                path: path.clone(),
                ctx: FileCtx { crate_name: crate_name.to_string(), rel_path: rel, is_bin },
            });
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsp-analyze-walker-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn walks_crate_srcs_and_classifies_bins() {
        let root = scratch("walk");
        for (p, body) in [
            ("crates/sched/src/lib.rs", "pub fn a() {}"),
            ("crates/sched/src/sub/deep.rs", "pub fn b() {}"),
            ("crates/bench/src/bin/dsp.rs", "fn main() {}"),
            ("crates/sched/tests/ignored.rs", "fn c() {}"),
            ("src/lib.rs", "pub fn d() {}"),
        ] {
            let path = root.join(p);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, body).unwrap();
        }
        let files = workspace_files(&root).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.ctx.rel_path.as_str()).collect();
        assert_eq!(
            rels,
            vec![
                "crates/bench/src/bin/dsp.rs",
                "crates/sched/src/lib.rs",
                "crates/sched/src/sub/deep.rs",
                "src/lib.rs"
            ]
        );
        assert!(files[0].ctx.is_bin);
        assert!(!files[1].ctx.is_bin);
        assert_eq!(files[1].ctx.crate_name, "sched");
        assert_eq!(files[3].ctx.crate_name, "dsp-repro");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn find_root_walks_up() {
        let root = scratch("root");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers=[]\n").unwrap();
        let nested = root.join("crates/x/src");
        fs::create_dir_all(&nested).unwrap();
        assert_eq!(find_workspace_root(&nested).unwrap(), root);
        let _ = fs::remove_dir_all(&root);
    }
}
