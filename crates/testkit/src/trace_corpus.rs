//! The committed trace corpus: binary `HCT1` traces replayed
//! deterministically under the ops replay engine.
//!
//! Mirrors the fuzz-case corpus ([`crate::corpus`]) for the serving
//! plane: a corpus entry is a `<name>.hct` trace paired with a
//! `<name>.json` sidecar [`TraceCase`] pinning the scenario/scheduler
//! configuration the trace was recorded (or synthesized) under. The
//! replay path re-drives the daemon's scheduling discipline in virtual
//! time and asserts the determinism contract directly: two replays of
//! the same trace must produce **bit-identical** serialized books, and
//! the books must conserve.
//!
//! Committed traces are synthesized by [`synthesize_trace`] rather than
//! recorded from a live daemon, so the artifact is reproducible from
//! source: the `regen_trace_corpus` example rebuilds
//! `crates/testkit/traces/` byte-for-byte, and a test pins the committed
//! bytes to the generator's output.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use hybridcast_core::config::HybridConfig;
use hybridcast_ops::trace::{Trace, TraceMeta, TraceRecord, VERSION};
use hybridcast_ops::{fnv1a64, plan_digest, replay_daemon};
use hybridcast_sim::rng::splitmix64;
use hybridcast_workload::scenario::ScenarioConfig;

/// The sidecar configuration a corpus trace replays under: everything
/// [`replay_daemon`] needs that the binary header cannot carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCase {
    /// Catalog and service classes.
    pub scenario: ScenarioConfig,
    /// Scheduler configuration.
    pub hybrid: HybridConfig,
    /// Wall milliseconds per broadcast unit.
    pub unit_millis: f64,
}

impl TraceCase {
    /// Canonical JSON (the serialized sidecar file).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace case serializes")
    }

    /// Parses a sidecar file.
    #[cfg(test)]
    fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("trace case parse error: {e}"))
    }

    /// The config hash embedded in corpus trace headers: FNV-1a over the
    /// canonical sidecar JSON. (Daemon-recorded traces hash the
    /// `ServeConfig` identity JSON instead; the corpus hashes what it
    /// actually commits, so the pairing is verifiable offline.)
    pub fn config_hash(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }
}

/// The committed trace-corpus directory (`crates/testkit/traces/`).
pub fn committed_trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("traces")
}

/// Deterministically synthesizes a single-channel trace from `case`:
/// a seeded arrival stream (SplitMix64) with popularity skewed toward
/// low item ids, cycling classes, no deadlines. Same `(case, seed, n)`
/// → byte-identical trace, which is what makes the corpus regenerable.
pub fn synthesize_trace(case: &TraceCase, seed: u64, n: u32) -> Trace {
    let num_items = case.scenario.num_items as u32;
    let num_classes = case.scenario.classes.len() as u8;
    let meta = TraceMeta {
        version: VERSION,
        config_hash: case.config_hash(),
        channels: 1,
        plan_digest: plan_digest(1, &vec![0u8; num_items as usize]),
        unit_millis: case.unit_millis,
        num_items,
        num_classes,
        default_deadline_ms: 0,
    };
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    let mut arrival = 0.0f64;
    let mut records = Vec::with_capacity(n as usize);
    for i in 0..n {
        // Inter-arrival in (0, 1] broadcast units, quantized to 1/1024 so
        // the stamp stream is exactly representable and diff-friendly.
        arrival += ((next() % 1024) + 1) as f64 / 1024.0;
        // Squaring a uniform biases toward low ids — a cheap stand-in for
        // the Zipf skew of the real workload.
        let u = (next() % 10_000) as f64 / 10_000.0;
        let item = ((u * u * num_items as f64) as u32).min(num_items - 1);
        records.push(TraceRecord {
            arrival,
            item,
            class: (i % num_classes as u32) as u8,
            channel: 0,
            deadline_ms: 0,
        });
    }
    Trace { meta, records }
}

/// The corpus's standard smoke case: the paper's catalog under the
/// mixed push/pull scheduler — what `regen_trace_corpus` commits as
/// `traces/smoke.{json,hct}`.
pub fn smoke_case() -> TraceCase {
    use hybridcast_core::pull::PullPolicyKind;
    TraceCase {
        scenario: ScenarioConfig::icpp2005(0.6).with_seed(7),
        hybrid: HybridConfig {
            cutoff: 30,
            pull: PullPolicyKind::importance(0.5),
            ..HybridConfig::default()
        },
        unit_millis: 1.0,
    }
}

/// Seed and length of the committed smoke trace.
pub const SMOKE_SEED: u64 = 0x5ca1_ab1e;
/// Number of records in the committed smoke trace.
pub const SMOKE_RECORDS: u32 = 1_000;

/// The golden daemon-replay books committed next to `traces/smoke.hct`:
/// `(file name, replay case)` — the smoke case as committed, and the same
/// case with a contended uplink over two pattern-aware channels (the
/// override path: every record re-routes through the two-channel plan).
/// The committed strings pin `replay_daemon`'s serialized output
/// byte-for-byte, so a change to the channel core that moves any book
/// shows up as a diff in a data file.
pub fn golden_books_cases() -> [(&'static str, TraceCase); 2] {
    use hybridcast_core::config::{AssignmentStrategy, ChannelLayout};
    use hybridcast_core::uplink::UplinkConfig;
    let base = smoke_case();
    let uplink_c2 = TraceCase {
        hybrid: HybridConfig {
            uplink: Some(UplinkConfig {
                slot_time: 0.1,
                success_prob: 0.7,
                max_attempts: 2,
                backoff_slots: 1.0,
            }),
            channels: ChannelLayout::Sharded {
                channels: 2,
                assignment: AssignmentStrategy::PatternAware,
            },
            ..base.hybrid.clone()
        },
        ..base.clone()
    };
    [
        ("smoke.books.json", base),
        ("smoke.books.uplink-c2.json", uplink_c2),
    ]
}

/// The serialized daemon-replay books of `trace` under `case` — the exact
/// string a golden file holds.
pub fn golden_books_json(case: &TraceCase, trace: &Trace) -> String {
    let books = replay_daemon(
        &case.scenario.build(),
        &case.hybrid,
        case.unit_millis,
        trace,
    );
    serde_json::to_string(&books).expect("books serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_ops::{replay_simulator, sim_params_for, ReplayBooks};
    use std::fs;

    /// One loaded corpus entry.
    #[derive(Debug, Clone)]
    struct TraceCorpusEntry {
        /// File stem shared by the `.hct`/`.json` pair.
        name: String,
        /// The sidecar replay configuration.
        case: TraceCase,
        /// The parsed binary trace.
        trace: Trace,
    }

    /// Loads every `.hct`/`.json` pair under `dir` (sorted by name),
    /// verifying each trace's header hash against its sidecar.
    fn load_trace_corpus(dir: &Path) -> Result<Vec<TraceCorpusEntry>, String> {
        let entries = fs::read_dir(dir)
            .map_err(|e| format!("cannot read trace corpus dir {}: {e}", dir.display()))?;
        let mut out = Vec::new();
        for entry in entries {
            let path = entry
                .map_err(|e| format!("trace corpus dir error: {e}"))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("hct") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let sidecar = path.with_extension("json");
            let case_text = fs::read_to_string(&sidecar)
                .map_err(|e| format!("trace {name} has no sidecar {}: {e}", sidecar.display()))?;
            let case = TraceCase::from_json(&case_text).map_err(|e| format!("{name}: {e}"))?;
            let trace = Trace::read(&path).map_err(|e| format!("{name}: {e}"))?;
            if trace.meta.config_hash != case.config_hash() {
                return Err(format!(
                    "{name}: trace header hash {:016x} does not match sidecar hash {:016x} — \
                     the pair is out of sync",
                    trace.meta.config_hash,
                    case.config_hash()
                ));
            }
            out.push(TraceCorpusEntry { name, case, trace });
        }
        if out.is_empty() {
            return Err(format!("no *.hct traces under {}", dir.display()));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Replays `trace` twice through the daemon discipline and twice through
    /// the simulator, asserting the determinism contract (bit-identical
    /// serialized output per mode) and conservation. Returns the daemon
    /// books on success.
    fn replay_twice(case: &TraceCase, trace: &Trace) -> Result<ReplayBooks, String> {
        let scenario = case.scenario.build();
        let first = replay_daemon(&scenario, &case.hybrid, case.unit_millis, trace);
        let second = replay_daemon(&scenario, &case.hybrid, case.unit_millis, trace);
        let a = serde_json::to_string(&first).expect("books serialize");
        let b = serde_json::to_string(&second).expect("books serialize");
        if a != b {
            return Err("daemon-mode replay is not deterministic: books differ across runs".into());
        }
        if !first.conservation_ok {
            return Err(format!("daemon-mode replay books do not conserve: {a}"));
        }
        if first.records != trace.records.len() as u64 {
            return Err(format!(
                "daemon-mode replay consumed {} records, trace holds {}",
                first.records,
                trace.records.len()
            ));
        }
        let params = sim_params_for(trace);
        let sim_a = replay_simulator(&scenario, &case.hybrid, &params, trace);
        let sim_b = replay_simulator(&scenario, &case.hybrid, &params, trace);
        let sa = serde_json::to_string(&sim_a).expect("report serializes");
        let sb = serde_json::to_string(&sim_b).expect("report serializes");
        if sa != sb {
            return Err("sim-mode replay is not deterministic: reports differ across runs".into());
        }
        Ok(first)
    }

    /// Replays every committed corpus trace, returning `(name, books)` in
    /// name order; any determinism or conservation violation is an error.
    fn replay_trace_corpus(dir: &Path) -> Result<Vec<(String, ReplayBooks)>, String> {
        load_trace_corpus(dir)?
            .into_iter()
            .map(|e| replay_twice(&e.case, &e.trace).map(|books| (e.name, books)))
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hct-corpus-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    #[test]
    fn synthesized_trace_round_trips_through_the_binary_format() {
        let case = smoke_case();
        let trace = synthesize_trace(&case, 11, 200);
        let dir = tmpdir("roundtrip");
        let path = dir.join("t.hct");
        trace.write(&path).expect("write");
        let back = Trace::read(&path).expect("read");
        assert_eq!(back, trace);
    }

    #[test]
    fn corpus_pairs_are_verified_and_replayed() {
        let case = smoke_case();
        let dir = tmpdir("pairs");
        let trace = synthesize_trace(&case, 3, 150);
        trace.write(&dir.join("a.hct")).expect("write");
        fs::write(dir.join("a.json"), case.to_json()).expect("sidecar");
        let replayed = replay_trace_corpus(&dir).expect("replays");
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0, "a");
        assert_eq!(replayed[0].1.records, 150);

        // A stale sidecar (different config) is detected, not replayed.
        let mut other = case.clone();
        other.unit_millis = 2.0;
        fs::write(dir.join("a.json"), other.to_json()).expect("sidecar");
        let err = replay_trace_corpus(&dir).unwrap_err();
        assert!(err.contains("out of sync"), "{err}");
    }

    #[test]
    fn committed_corpus_replays_deterministically() {
        let replayed = replay_trace_corpus(&committed_trace_dir()).expect("committed corpus");
        assert!(!replayed.is_empty());
        for (name, books) in &replayed {
            assert!(books.conservation_ok, "{name}: {books:?}");
            assert!(books.accepted > 0, "{name} carries traffic");
        }
    }

    #[test]
    fn committed_smoke_trace_matches_its_generator() {
        let committed = fs::read(committed_trace_dir().join("smoke.hct")).expect("committed trace");
        let case = smoke_case();
        let regen = synthesize_trace(&case, SMOKE_SEED, SMOKE_RECORDS);
        let dir = tmpdir("regen");
        let path = dir.join("smoke.hct");
        regen.write(&path).expect("write");
        let regen_bytes = fs::read(&path).expect("regen bytes");
        assert_eq!(
            committed, regen_bytes,
            "traces/smoke.hct must stay byte-identical to `cargo run -p \
             hybridcast-testkit --example regen_trace_corpus`"
        );
        let sidecar =
            fs::read_to_string(committed_trace_dir().join("smoke.json")).expect("sidecar");
        assert_eq!(sidecar, case.to_json(), "sidecar matches smoke_case()");
    }

    /// `Split { 2 }` replays through its own transmitters (one broadcast
    /// slot, two pull slots), not as one interleaved downlink.
    #[test]
    fn split_replay_runs_its_own_transmitters() {
        use hybridcast_core::config::ChannelLayout;
        let trace = Trace::read(&committed_trace_dir().join("smoke.hct")).expect("smoke trace");
        let books = |channels| {
            let mut case = smoke_case();
            case.hybrid.channels = channels;
            replay_twice(&case, &trace).expect("deterministic and conserving")
        };
        let split = books(ChannelLayout::Split { pull_channels: 2 });
        let interleaved = books(ChannelLayout::Interleaved);
        assert_eq!(smoke_case().hybrid.cutoff, 30);
        assert!(split.served_push > 0 && split.served_pull > 0, "{split:?}");
        assert_ne!(
            serde_json::to_string(&split).expect("books serialize"),
            serde_json::to_string(&interleaved).expect("books serialize"),
            "the split layout is not the interleaved one"
        );
    }

    #[test]
    fn committed_smoke_books_are_golden() {
        let trace = Trace::read(&committed_trace_dir().join("smoke.hct")).expect("smoke trace");
        for (file, case) in golden_books_cases() {
            let committed = fs::read_to_string(committed_trace_dir().join(file)).expect(file);
            assert_eq!(
                committed.trim_end(),
                golden_books_json(&case, &trace),
                "traces/{file} must stay string-identical to `replay_daemon` \
                 (regenerate with the `regen_trace_corpus` example only for an \
                 intended change)"
            );
        }
    }
}
