//! # hybridcast-analysis — queueing-theoretic models of the hybrid
//! scheduler (§4 of the paper)
//!
//! * [`birth_death`] — §4.1's alternating push/pull chain: the closed-form
//!   idle probability `p(0,0) = 1 − ρ − ρ/f` plus a numerically exact
//!   truncated-chain solution for `E[L_pull]`;
//! * [`cobham`] — §4.2.2's non-preemptive multi-class priority waits
//!   (Cobham's formula, the paper's Eq. 15–18);
//! * [`erlang`] — Erlang-B blocking for the per-class bandwidth
//!   partitions (analytic counterpart of the CLAIM-BLOCK experiment);
//! * [`two_class`] — §4.2.1's two-class chain solved numerically (the
//!   paper's z-transform treatment leaves a boundary function unevaluated;
//!   the tests here close that loop against Cobham);
//! * [`hybrid_model`] — Eq. 19's expected access time, the per-class delay
//!   model behind Figure 7, and the model-side optimal-cutoff search;
//! * [`ksy`] — the Kenyon–Schabanel–Young multi-channel broadcast cost
//!   model: the objective the sharded scheduler's item→channel optimizer
//!   minimizes, and the offline lower-bound oracle the testkit checks
//!   sharded schedules against.
//!
//! ```
//! use hybridcast_analysis::cobham::CobhamQueue;
//!
//! // Three priority classes sharing one server: premium waits least.
//! let q = CobhamQueue::with_common_service(&[0.2, 0.2, 0.2], 1.0);
//! let w: Vec<f64> = q.waits().into_iter().map(Option::unwrap).collect();
//! assert!(w[0] < w[1] && w[1] < w[2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod birth_death;
pub mod cobham;
pub mod erlang;
pub mod hybrid_model;
pub mod ksy;
pub mod two_class;

/// One-stop imports for model users.
pub mod prelude {
    pub use crate::birth_death::BirthDeathModel;
    pub use crate::cobham::CobhamQueue;
    pub use crate::erlang::PartitionBlockingModel;
    pub use crate::hybrid_model::{HybridDelayModel, ModelDelays};
    pub use crate::ksy::{
        channel_loads, gap_to_lower_bound, ksy_weight, partition_cost, partition_lower_bound,
    };
    pub use crate::two_class::TwoClassQueue;
}
