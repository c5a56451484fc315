#!/usr/bin/env bash
# Repo hygiene gate: the top level of the tree is a curated, documented set
# of files and directories. Anything else (editor droppings, stray test
# scratch files, misplaced outputs — e.g. the historical stray `e`) fails
# CI until it is either removed or added to the allowlist below on purpose.
# Second, no function declared in a src/ header may go unreferenced (see
# UNUSED_ALLOWLIST below). Third, no std::unordered_map or unordered_set in
# src/ outside src/baselines: keyed state is indexed by the state store's
# KeyIndex, and a private index beside it does not come back.
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

# Unused public surface: a function declared in a src/ header whose name
# occurs nowhere in src/, tests/, bench/, examples/, tools/ or perfbench/
# beyond its declarations and definitions (comments and string literals
# do not count) fails until it is deleted, given a caller, or listed in
# UNUSED_ALLOWLIST (one name per entry) because it is kept on purpose. A
# file outside src/ that defines a function of the same bare name (a test
# or bench helper) calls its own function there, so in that file only
# member or qualified call sites (.name(, ->name(, ::name() count. Any
# other shared name counts as used, so the check errs towards passing.
UNUSED_ALLOWLIST=()
UNUSED=$(python3 - "${UNUSED_ALLOWLIST[@]}" <<'PY'
import collections
import os
import re
import sys

ALLOWED = set(sys.argv[1:])
CODE_DIRS = ["src", "tests", "bench", "examples", "tools", "perfbench"]
KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
            "static_assert", "decltype", "alignof", "catch", "operator",
            "defined", "noexcept", "requires", "explicit", "alignas",
            "typeid"}


def strip(line):
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    return line.split("//", 1)[0]


files = {}
for d in CODE_DIRS:
    for dirpath, _, names in os.walk(d):
        for name in names:
            if name.endswith((".h", ".cc", ".cpp")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="replace") as f:
                    files[path] = [strip(l.rstrip("\n")) for l in f]

# A declaration: a type, then the name and "(", opening a statement.
DECL = re.compile(
    r"^\s*(?:(?:static|virtual|inline|explicit|constexpr|friend|const|"
    r"unsigned|struct|typename)\s+)*"
    r"(?:[A-Za-z_][\w:]*(?:<[^;()]*>)?[\s\*&]+)+[\*&]?([A-Za-z_]\w*)\s*\(")
# An out-of-line definition: at column 0, the (qualified) name and "(".
DEFN = re.compile(
    r"^[A-Za-z_][\w:<>,\s\*&]*?\b(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")

declared = collections.defaultdict(list)
sites = collections.Counter()
for path, lines in files.items():
    if not (path.startswith("src" + os.sep) and path.endswith(".h")):
        continue
    for i, line in enumerate(lines):
        m = DECL.match(line)
        if (not m or "=" in line.split("(", 1)[0] or
                line.lstrip().startswith(("return", "#", "using", "typedef"))):
            continue
        if m.group(1) in KEYWORDS:
            continue
        declared[m.group(1)].append("%s:%d" % (path, i + 1))
        sites[m.group(1)] += 1
# Out-of-line definitions in src/ are sites of the declared function; one
# outside src/ defines a helper that shadows it in its own file.
shadowed = collections.defaultdict(set)
for path, lines in files.items():
    in_src = path.startswith("src" + os.sep)
    if in_src and not path.endswith((".cc", ".cpp")):
        continue
    for line in lines:
        m = DEFN.match(line)
        if m and not line.rstrip().endswith(";") and m.group(1) in declared:
            if in_src:
                sites[m.group(1)] += 1
            else:
                shadowed[path].add(m.group(1))
QUALIFIED = re.compile(r"(?:\.|->|::)\s*([A-Za-z_]\w*)\s*\(")
uses = collections.Counter()
for path, lines in files.items():
    own = shadowed[path]
    for line in lines:
        for w in re.findall(r"[A-Za-z_]\w*", line):
            if w in declared and w not in own:
                uses[w] += 1
        for w in QUALIFIED.findall(line):
            if w in own:
                uses[w] += 1
for name in sorted(declared):
    if uses[name] <= sites[name] and name not in ALLOWED:
        print("  %s (%s)" % (name, declared[name][0]))
PY
)
if [[ -n "$UNUSED" ]]; then
  echo "FAIL: header-declared functions that nothing references:" >&2
  echo "$UNUSED" >&2
  echo "      delete them, give them a caller, or add them to" >&2
  echo "      UNUSED_ALLOWLIST in $0" >&2
  exit 1
fi
echo "PASS: every header-declared function in src/ has a reference"

# No private key index: the engine's one hash index is KeyIndex (the state
# store, the stream-static join, the memory sink); std::unordered_map and
# unordered_set stay in the simulated baselines (src/baselines).
HASHED=$(git grep -n -E 'unordered_(map|set)' -- src ':!src/baselines' || true)
if [[ -n "$HASHED" ]]; then
  echo "FAIL: std::unordered_map / unordered_set under src/ (outside" >&2
  echo "      src/baselines); index keyed state through the state store:" >&2
  echo "$HASHED" >&2
  exit 1
fi
echo "PASS: no unordered_map or unordered_set in src/ outside src/baselines"
