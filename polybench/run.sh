#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one workload:
#
#   bash polybench/run.sh --workload <discover|serve|cold-probe> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default: polybench/target); scratch files to
# .polybench/. Build logs go to standard error, so the last line of
# standard output is the result.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --target-dir "$target" -p polygamy_serve --bin polygamy-store >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/polybench" --store-bin "$target/release/polygamy-store" "$@"
