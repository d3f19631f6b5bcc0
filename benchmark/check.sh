#!/usr/bin/env bash
# Everything a CI lane for the benchmark would run (`.github/` is outside this
# directory's reach, so this is a script): offline build, formatting, lints,
# the self-tests, then every workload at --quick sizes with a schema check of
# what it emits. Run from anywhere; works without network access.
set -euo pipefail
cd "$(dirname "$0")"

manifest=(--manifest-path Cargo.toml --offline)

echo "== build"
cargo build --release "${manifest[@]}"
echo "== fmt"
cargo fmt --manifest-path Cargo.toml --check
echo "== clippy"
cargo clippy --release --all-targets "${manifest[@]}" -- -D warnings
echo "== self-tests"
cargo test --release "${manifest[@]}"

out="out/check"   # ignored by .gitignore
rm -rf "$out"
bin="${CARGO_TARGET_DIR:-target}/release/ts-benchmark"

echo "== run all --quick"
"$bin" run all --quick --out "$out"
echo "== trace all --quick"
"$bin" trace all --quick --out "$out"
echo "== schema"
"$bin" schema "$out"
echo "== compare a result set with itself"
"$bin" compare "$out" "$out" >/dev/null
echo "ok"
