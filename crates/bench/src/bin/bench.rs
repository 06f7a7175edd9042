//! The one gate runner.
//!
//! ```text
//! cargo run --release -p hybridcast-bench --bin bench -- <gate> [quick]
//! ```
//!
//! Runs one of the eight acceptance gates in [`hybridcast_bench::gates`],
//! writes `results/BENCH_<name>.json` and exits 1 when a gate that binds
//! on this host failed (2 on a usage error).

fn main() {
    std::process::exit(hybridcast_bench::report::main(
        &hybridcast_bench::gates::ALL,
    ));
}
