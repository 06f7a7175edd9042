//! Open-loop load generator. `loadgen --help` for usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    match hybridcast_server::loadgen_main("loadgen", std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
