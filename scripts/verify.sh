#!/usr/bin/env sh
# Local equivalent of .github/workflows/ci.yml.
#
# The workspace is intentionally dependency-free (std-only, path-only
# crates), so everything here works offline; CARGO_NET_OFFLINE makes
# cargo fail fast instead of probing the network if that ever regresses.
set -eux

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
cargo test -q --workspace
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
./target/release/tpcds synth --scale 0.01 --queries 500 --streams 4 --dm 1
./scripts/server_smoke.sh
bash benchmark/run.sh suite --smoke
(cd benchmark && cargo test --offline)
