#!/usr/bin/env bash
# Line coverage for the tracked crates: the market/search core
# (ecosched-core, ecosched-select) and the combination-optimizer and
# persistence crates (ecosched-optimize, ecosched-persist).
#
# Usage:
#   ./scripts/cov.sh             # print the summary for all tracked crates
#
# The figures are recorded, not enforced: the CI `coverage` job appends
# the summary to its job page so a drop is visible in review (see
# COVERAGE.md).
#
# Requires cargo-llvm-cov (https://github.com/taiki-e/cargo-llvm-cov);
# CI installs it via taiki-e/install-action. When the tool is absent the
# script prints a notice and exits 0 so it is safe in any environment.
set -euo pipefail

if ! cargo llvm-cov --version >/dev/null 2>&1; then
    echo "cargo-llvm-cov is not installed; skipping coverage." >&2
    echo "Install with: cargo install cargo-llvm-cov" >&2
    exit 0
fi

cd "$(dirname "$0")/.."

cargo llvm-cov -p ecosched-core -p ecosched-select -p ecosched-optimize \
    -p ecosched-persist --summary-only "$@"
