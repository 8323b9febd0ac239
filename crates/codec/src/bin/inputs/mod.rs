//! Operand handling shared by the `replay` and `export` bins: both
//! take the same `.rec` files and directories and fail on them the
//! same way.

use nplus_codec::Recording;

/// One line on stderr, exit 2 — the operator-error convention.
pub(crate) fn input_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Expands the operands into a sorted list of `.rec` files: explicit
/// files pass through, directories contribute their `*.rec` entries.
pub(crate) fn collect_paths(inputs: &[String]) -> Vec<String> {
    let mut paths = Vec::new();
    for input in inputs {
        let meta = std::fs::metadata(input)
            .unwrap_or_else(|e| input_error(&format!("cannot read {input}: {e}")));
        if meta.is_dir() {
            let entries = std::fs::read_dir(input)
                .unwrap_or_else(|e| input_error(&format!("cannot read {input}: {e}")));
            let mut found = Vec::new();
            for entry in entries {
                let entry =
                    entry.unwrap_or_else(|e| input_error(&format!("cannot read {input}: {e}")));
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "rec") {
                    found.push(path.to_string_lossy().into_owned());
                }
            }
            if found.is_empty() {
                input_error(&format!("no .rec files in {input}"));
            }
            found.sort();
            paths.extend(found);
        } else {
            paths.push(input.clone());
        }
    }
    paths
}

/// Reads and decodes one recording, exiting 2 with the file name and
/// the typed decode error on any failure.
pub(crate) fn load(path: &str) -> Recording {
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| input_error(&format!("cannot read {path}: {e}")));
    Recording::decode(&bytes).unwrap_or_else(|e| input_error(&format!("{path}: {e}")))
}
