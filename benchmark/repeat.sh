#!/usr/bin/env bash
# Runs the full set of workloads N times (default 2) and compares the
# sets: exit code 0 means every end-to-end metric agreed within its own
# bound. Further arguments go to the benchmark (e.g. --seed 7).
set -euo pipefail
n="${1:-2}"
shift || true
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$n" "$@"
