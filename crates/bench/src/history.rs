//! Append-only history for the `BENCH_*.json` trajectory files.
//!
//! The repo-root bench files used to be overwritten on every run, leaving
//! the cross-revision trajectory only in git history. They are now
//! *histories*: a JSON array of entries, each keyed by the revision that
//! produced it —
//!
//! ```json
//! [
//!   {"sha": "84d1cbf", "timestamp": "1754600000", "rows": [{"bench": …}]}
//! ]
//! ```
//!
//! [`append_entry`] reads the existing file, drops any prior entry with
//! the *same* sha (re-running a bench on one revision updates that
//! revision's point instead of duplicating it), and appends the new
//! entry. An array whose elements are not all entries (such as the old
//! flat-row layout) is an error and the file is left untouched. The key
//! comes from the environment so CI can stamp real revisions —
//! `RP_BENCH_SHA` (default `"worktree"` for local runs) and
//! `RP_BENCH_TIME` (default: unix seconds at write time). `exp -- report`
//! diffs the latest entries of two such files (see `apps::report`).

use std::path::Path;

use serde::value::Value;

/// Environment variable holding the revision key for new entries.
pub const SHA_ENV: &str = "RP_BENCH_SHA";
/// Environment variable holding the timestamp for new entries.
pub const TIME_ENV: &str = "RP_BENCH_TIME";
/// Sha recorded when the environment does not provide one.
pub const WORKTREE_SHA: &str = "worktree";

/// The revision key for a new entry: `RP_BENCH_SHA` or `"worktree"`.
fn entry_sha() -> String {
    std::env::var(SHA_ENV).unwrap_or_else(|_| WORKTREE_SHA.to_string())
}

/// The timestamp for a new entry: `RP_BENCH_TIME` or unix seconds now.
fn entry_timestamp() -> String {
    std::env::var(TIME_ENV).unwrap_or_else(|_| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().to_string())
            .unwrap_or_else(|_| "0".to_string())
    })
}

/// Existing entries of `contents`.
///
/// A parse failure or non-array document yields an empty history (the
/// file is regenerated rather than clobbering the run); an array with an
/// element that is not a `{"sha", "timestamp", "rows"}` entry is an error.
fn existing_entries(contents: &str) -> Result<Vec<Value>, String> {
    let Ok(value) = serde_json::from_str::<Value>(contents) else {
        return Ok(Vec::new());
    };
    let Some(elements) = value.as_seq() else {
        return Ok(Vec::new());
    };
    if elements.iter().any(|e| e.get("rows").is_none()) {
        return Err("not a bench history: an element has no \"rows\" key".to_string());
    }
    Ok(elements.to_vec())
}

/// Appends one history entry holding `rows` (each a JSON object string)
/// to the trajectory file at `path`, returning the sha it was keyed by.
///
/// Reads the existing file, dedupes on the entry's sha, and rewrites the
/// whole array. Errors are returned as strings so bench
/// binaries can log-and-continue (a read-only checkout must not fail the
/// measurement itself).
pub fn append_entry(path: &Path, rows: &[String]) -> Result<String, String> {
    let parsed: Vec<Value> = rows
        .iter()
        .map(|row| {
            serde_json::from_str::<Value>(row)
                .map_err(|e| format!("unparseable bench row ({e}): {row}"))
        })
        .collect::<Result<_, _>>()?;
    let sha = entry_sha();
    let mut entries: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(contents) => existing_entries(&contents)
            .map_err(|e| format!("{}: {e}; file left untouched", path.display()))?,
        Err(_) => Vec::new(),
    };
    entries.retain(|e| e.get("sha").and_then(Value::as_str) != Some(sha.as_str()));
    entries.push(Value::Map(vec![
        ("sha".to_string(), Value::Str(sha.clone())),
        ("timestamp".to_string(), Value::Str(entry_timestamp())),
        ("rows".to_string(), Value::Seq(parsed)),
    ]));
    let body = serde_json::to_string_pretty(&Value::Seq(entries))
        .map_err(|e| format!("history serialization failed: {e}"))?;
    std::fs::write(path, body + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(sha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rp_history_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn shas(path: &Path) -> Vec<String> {
        let value: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        value
            .as_seq()
            .unwrap()
            .iter()
            .map(|e| e.get("sha").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn flat_row_file_is_an_error_and_left_untouched() {
        let path = tmp("flat.json");
        let flat = r#"[{"bench": "x", "n": 10, "v": 1.5}]"#;
        std::fs::write(&path, flat).unwrap();
        let err =
            append_entry(&path, &[r#"{"bench": "x", "n": 10, "v": 2.0}"#.to_string()]).unwrap_err();
        assert!(err.contains("not a bench history"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), flat);
    }

    #[test]
    fn same_sha_reruns_replace_not_duplicate() {
        let path = tmp("dedupe.json");
        let _ = std::fs::remove_file(&path);
        append_entry(&path, &[r#"{"bench": "x", "n": 10, "v": 1.0}"#.to_string()]).unwrap();
        append_entry(&path, &[r#"{"bench": "x", "n": 10, "v": 2.0}"#.to_string()]).unwrap();
        assert_eq!(shas(&path), vec![WORKTREE_SHA]);
        let value: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let rows = value.as_seq().unwrap()[0].get("rows").unwrap();
        assert_eq!(rows.as_seq().unwrap()[0].get("v"), Some(&Value::Float(2.0)));
    }

    #[test]
    fn corrupt_file_restarts_history() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "not json").unwrap();
        append_entry(&path, &[r#"{"bench": "x", "n": 1}"#.to_string()]).unwrap();
        assert_eq!(shas(&path), vec![WORKTREE_SHA]);
    }

    #[test]
    fn bad_row_is_an_error() {
        let path = tmp("badrow.json");
        assert!(append_entry(&path, &["{broken".to_string()]).is_err());
    }
}
