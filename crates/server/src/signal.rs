//! SIGTERM/SIGINT → graceful-shutdown flag.
//!
//! The daemon must exit 0 on `kill -TERM` after draining, so the handler
//! does the only async-signal-safe thing possible: set a flag the serve
//! loop polls. Registration goes through the C `signal(2)` entry point
//! directly — the workspace vendors no `libc` crate, and the two
//! constants used are stable ABI on every Linux target this builds on.
//! This is the single unsafe island in the crate (the crate root carries
//! `#![deny(unsafe_code)]`, opted out for this module alone).

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX `SIGINT` (ctrl-c).
pub(crate) const SIGINT: i32 = 2;
/// POSIX `SIGTERM`.
pub(crate) const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the flag-setting handler for SIGTERM and SIGINT.
pub(crate) fn install() {
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal(2)` is given valid signal numbers (SIGTERM, SIGINT)
    // and, as its `sighandler_t`, the address of `on_signal`: an
    // `extern "C" fn(i32)` that lives for the whole program and only
    // stores to an atomic, so it is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// `true` once a termination signal was received (or [`request`] called).
pub(crate) fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests shutdown programmatically (same flag the handler sets).
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_the_flag() {
        // `install`/real signals are exercised by the CI smoke job; here we
        // only pin the programmatic path (tests share the process-global
        // flag, so never *clear* it from another test's perspective).
        request();
        assert!(requested());
    }
}
