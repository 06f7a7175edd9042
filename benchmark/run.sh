#!/usr/bin/env bash
# The repo benchmark. Builds hybridcastd (the program under test, with the
# root workspace's own release profile) and the driver, then runs it.
#
#   benchmark/run.sh                       every workload, every metric by name
#   benchmark/run.sh --traced              … plus the traced per-layer runs
#   benchmark/run.sh --repeat 2            … twice on one seed, spread vs bound
#   benchmark/run.sh --smoke               2 s per workload, checks on, bounds off
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result JSON
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# CARGO_TARGET_DIR may be relative to the caller's directory; pin it before
# cargo is started from anywhere else. Default: the benchmark's own target/.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [ "$(getconf CLK_TCK)" != 100 ]; then
    echo "run.sh: CLK_TCK is $(getconf CLK_TCK), the /proc parsers assume 100" >&2
    exit 2
fi

# Build output goes to stderr: stdout belongs to the result line.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p hybridcast-server --bin hybridcastd >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/hcbench" --root "$root" --daemon "$target/release/hybridcastd" "$@"
