#!/usr/bin/env bash
# Repo hygiene gate: the top level of the tree is a curated, documented set
# of files and directories. Anything else (editor droppings, stray test
# scratch files, misplaced outputs — e.g. the historical stray `e`) fails
# CI until it is either removed or added to the allowlist below on purpose.
#
# Usage: tools/check_repo_hygiene.sh   (from the repo root; uses git ls-tree
# so only *committed* top-level entries are checked)
set -euo pipefail

cd "$(dirname "$0")/.."

# Directories and files that belong at the top level. BENCH_<n>.json is the
# per-PR bench ledger (EXPERIMENTS.md), so it matches as a pattern.
ALLOWED_REGEX='^(\.clang-tidy|\.claude|\.github|\.gitignore|CMakeLists\.txt|BENCH_[0-9]+\.json|CHANGES\.md|DESIGN\.md|EXPERIMENTS\.md|ISSUE\.md|PAPER\.md|PAPERS\.md|README\.md|ROADMAP\.md|SNIPPETS\.md|bench|docs|examples|src|tests|tools)$'
# BENCHMARK.json declares the wall-clock benchmark in perfbench/.
ALLOWED_REGEX+='|^(BENCHMARK\.json|perfbench)$'

STRAY=0
while IFS= read -r entry; do
  if ! [[ "$entry" =~ $ALLOWED_REGEX ]]; then
    echo "FAIL: unexpected top-level entry '$entry'" >&2
    echo "      remove it or add it to the allowlist in $0" >&2
    STRAY=1
  fi
done < <(git ls-tree --name-only HEAD)

if [[ "$STRAY" -ne 0 ]]; then
  exit 1
fi
echo "PASS: top level is clean ($(git ls-tree --name-only HEAD | wc -l) entries)"
