//! The serving daemon. `hybridcastd --help` for usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    match hybridcast_server::daemon_main("hybridcastd", std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
