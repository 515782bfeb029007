#!/usr/bin/env bash
# Regenerate every table in EXPERIMENTS.md into report/.
# Usage: scripts/reproduce.sh [--full] [--smoke]
# --full uses the paper's start_j_list (2,4,8,16,24,50,64) for the Fig 6/7
# grid; expect a long run. All dependencies are vendored in-tree
# (vendor/*), so the script works without registry access.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo xtask report "$@"
echo
echo "All tables are in report/; compare against EXPERIMENTS.md."
