//! # hybridcast-workload — the wireless data-network workload model
//!
//! Everything the ICPP 2005 hybrid-scheduling paper assumes about its
//! environment, as composable Rust types:
//!
//! * [`catalog`] — `D` variable-length items sorted by popularity rank;
//! * [`popularity`] — Zipf/uniform/custom access-probability laws;
//! * [`lengths`] — item-length laws, including the paper's "1..=5 with
//!   mean 2" via a mean-targeted truncated geometric;
//! * [`classes`] — priority service classes (Class-A/B/C, weights 3::2::1,
//!   Zipf population split);
//! * [`clients`] — an explicit finite client population (the substrate for
//!   the churn model);
//! * [`requests`] — the Poisson request stream;
//! * [`scenario`] — one serializable config bundling all of the above, whose
//!   `Default` is exactly the paper's §5.1 assumption list.
//!
//! ```
//! use hybridcast_workload::scenario::ScenarioConfig;
//! use hybridcast_sim::time::SimTime;
//!
//! let scenario = ScenarioConfig::icpp2005(0.6).build();
//! let mut stream = scenario.request_stream();
//! let early = stream.take_until(SimTime::new(20.0));
//! assert!(!early.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod classes;
pub mod clients;
pub mod lengths;
pub mod nonstationary;
pub mod popularity;
pub mod requests;
pub mod scenario;

/// One-stop imports for workload consumers.
pub mod prelude {
    pub use crate::catalog::{Catalog, Item, ItemId};
    pub use crate::classes::{ClassId, ClassSet, ServiceClass};
    pub use crate::clients::{ClientId, ClientPool};
    pub use crate::lengths::LengthModel;
    pub use crate::nonstationary::NonstationaryConfig;
    pub use crate::popularity::PopularityModel;
    pub use crate::requests::{
        DriftConfig, ReplaySource, Request, RequestGenerator, RequestSource,
    };
    pub use crate::scenario::{Scenario, ScenarioConfig};
}
