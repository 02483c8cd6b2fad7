//! Reader for the legacy cross-run divisor library file.
//!
//! Earlier versions kept a `divisors.lib` in the stage-cache directory
//! and seeded global factoring from it. That made a stored stage depend
//! on which circuits had run before, although the file was not part of
//! the stage key. Nothing writes or reads the file for a flow any more;
//! [`load_library`] only lists the entries of one left behind, so a tool
//! that inspects a cache directory can count them.

use std::path::Path;

/// File name of the legacy library inside a cache directory.
const LIBRARY_FILE: &str = "divisors.lib";

/// The rendered divisor expressions of `dir`'s legacy `divisors.lib`
/// (`pd-divisor-library/v1`: a header line, then `uses<TAB>expr` lines).
/// Empty when the file is missing, unreadable or of another format.
pub fn load_library(dir: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(dir.join(LIBRARY_FILE)) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    if lines.next() != Some("pd-divisor-library/v1") {
        return Vec::new();
    }
    lines
        .filter_map(|line| {
            let (uses, expr) = line.split_once('\t')?;
            uses.parse::<u64>().ok().map(|_| expr.to_owned())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_legacy_entries_and_ignores_other_files() {
        let dir = std::env::temp_dir().join(format!("pd-legacy-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_library(&dir).is_empty(), "missing file");
        let path = dir.join(LIBRARY_FILE);
        std::fs::write(&path, "pd-divisor-library/v1\n3\ta0*b0\n1\ta4^b4\nbad line\n").unwrap();
        assert_eq!(load_library(&dir), ["a0*b0", "a4^b4"]);
        std::fs::write(&path, "other-format\n3\ta0*b0\n").unwrap();
        assert!(load_library(&dir).is_empty(), "unknown header");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
