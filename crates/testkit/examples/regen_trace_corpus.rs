//! Regenerates the committed trace corpus (`crates/testkit/traces/`)
//! byte-for-byte from the deterministic generator:
//!
//! ```text
//! cargo run -p hybridcast-testkit --example regen_trace_corpus
//! ```
//!
//! A unit test pins the committed bytes to this generator's output, so
//! editing [`hybridcast_testkit::trace_corpus::smoke_case`] (or the
//! seed/length constants) requires re-running this and committing the
//! result. The golden daemon-replay books (`smoke.books*.json`) are
//! rewritten too; a diff there means `replay_daemon`'s output moved.

use hybridcast_testkit::trace_corpus::{
    committed_trace_dir, golden_books_cases, golden_books_json, smoke_case, synthesize_trace,
    SMOKE_RECORDS, SMOKE_SEED,
};

fn main() {
    let dir = committed_trace_dir();
    std::fs::create_dir_all(&dir).expect("corpus dir");
    let case = smoke_case();
    let trace = synthesize_trace(&case, SMOKE_SEED, SMOKE_RECORDS);
    let hct = dir.join("smoke.hct");
    trace.write(&hct).expect("write trace");
    std::fs::write(dir.join("smoke.json"), case.to_json()).expect("write sidecar");
    println!(
        "wrote {} ({} records) and its sidecar",
        hct.display(),
        trace.records.len()
    );
    for (file, case) in golden_books_cases() {
        let books = golden_books_json(&case, &trace);
        std::fs::write(dir.join(file), books + "\n").expect("write golden books");
        println!("wrote {}", dir.join(file).display());
    }
}
