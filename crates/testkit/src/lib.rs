//! Deterministic simulation-testing harness for the hybrid scheduler.
//!
//! FoundationDB-style testing applied to the paper's broadcast scheduler:
//! every component of a run — workload, server, faults — is captured in a
//! seeded, serializable [`FuzzCase`]; a run under the harness streams its
//! telemetry through invariant oracles ([`OracleSink`]) and closes the
//! books against the horizon census; failures are greedily shrunk
//! ([`shrink`](mod@shrink)) to a minimal reproducing configuration and
//! archived in a replayable corpus. A mutation-smoke suite plants known
//! bugs ([`Mutation`]) and asserts each oracle actually catches them.
//!
//! The crate splits into:
//!
//! * [`case`] — the serializable unit of fuzzing;
//! * [`generate`] — seeded scenario generation, biased toward degenerate
//!   corners (`K = 0`, `K = D`, one item, one class);
//! * [`oracle`] — stream-level and cross-cutting invariants, plus the
//!   statistical priority-dominance check;
//! * [`shrink`](mod@shrink) — greedy fixpoint minimization (the vendored
//!   proptest has no shrinking, so the testkit brings its own);
//! * [`mutation`] — hand-seeded bugs for oracle validation;
//! * [`corpus`] — the fuzz loop and the committed-corpus replay path;
//! * [`trace_corpus`] — committed binary serving traces, double-replayed
//!   to pin the record→replay determinism contract;
//! * `whatif_oracle` (unit tests only) — replay-under-override determinism and the
//!   what-if recommendation oracle (the winning config must reproduce
//!   its reported books when re-replayed standalone).

pub mod case;
pub mod corpus;
pub mod generate;
pub mod mutation;
pub mod oracle;
pub mod shrink;
pub mod trace_corpus;
#[cfg(test)]
mod whatif_oracle;

pub use case::FuzzCase;
pub use corpus::{committed_corpus_dir, fuzz, load_corpus, replay_corpus, FuzzFailure, FuzzReport};
pub use generate::generate_case;
pub use mutation::{MutatingSink, Mutation, NegatedPolicy, ALL_MUTATIONS};
pub use oracle::{check_dominance, run_case, CaseOutcome, OracleSink};
pub use trace_corpus::{committed_trace_dir, synthesize_trace};
