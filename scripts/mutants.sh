#!/usr/bin/env bash
# mutants.sh — run the committed mutant catalogue (testdata/mutants/).
#
#   scripts/mutants.sh [ref=HEAD]
#
# Each testdata/mutants/*.patch is a small unified diff that breaks the code
# on purpose, headed by one or more lines naming the tests that must catch it:
#
#   kill: <package> <TestName>
#
# The tree at <ref> is exported with git archive into a directory under
# $TMPDIR (nothing is added to this repository's .git). For every patch:
# each named test must run and pass on the clean tree; the patch must
# apply; with it applied, each test must fail by name (a build failure is
# an error, not a kill); then the patch is reversed. A mutant that one of its tests
# passes survives, and the survivors must be exactly testdata/mutants/survivors.golden (one
# patch name per line), so a new survivor fails the run and so does a
# listed one that is now killed. Exit status is non-zero on any of these.
set -euo pipefail

if [ $# -gt 1 ]; then
  echo "usage: $0 [ref=HEAD]" >&2
  exit 2
fi
REF=${1:-HEAD}

ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
TREE="$WORK/tree"
mkdir "$TREE"
git -C "$ROOT" archive "$REF" | tar -x -C "$TREE"
# git apply must treat the export as plain files, not as a subdirectory of
# whatever repository encloses $TMPDIR.
export GIT_CEILING_DIRECTORIES=$WORK
cd "$TREE"

shopt -s nullglob
patches=(testdata/mutants/*.patch)
if [ ${#patches[@]} -eq 0 ]; then
  echo "mutants: no patches under testdata/mutants" >&2
  exit 1
fi

BAD=0
: >"$WORK/survivors"
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  mapfile -t kills < <(sed -n 's/^kill: *//p' "$p")
  if [ ${#kills[@]} -eq 0 ]; then
    echo "mutants: $name: no 'kill: <package> <TestName>' line" >&2
    BAD=1
    continue
  fi
  clean=1
  for k in "${kills[@]}"; do
    read -r pkg test <<<"$k"
    if [ -z "${test:-}" ]; then
      echo "mutants: $name: malformed line 'kill: $k'" >&2
      clean=0
      continue
    fi
    if ! out=$(go test -count=1 -v -run "^${test}\$" "$pkg" 2>&1) || ! grep -q -- "--- PASS: ${test}\b" <<<"$out"; then
      echo "mutants: $name: $test does not pass on the clean tree" >&2
      printf '%s\n' "$out" | tail -20 >&2
      clean=0
    fi
  done
  if [ "$clean" -eq 0 ]; then
    BAD=1
    continue
  fi
  if ! git apply --check "$p" 2>"$WORK/apply.err"; then
    echo "mutants: $name: patch no longer applies; update it or retire the mutant" >&2
    cat "$WORK/apply.err" >&2
    BAD=1
    continue
  fi
  git apply "$p"
  survived=0
  for k in "${kills[@]}"; do
    read -r pkg test <<<"$k"
    rc=0
    out=$(go test -count=1 -v -run "^${test}\$" "$pkg" 2>&1) || rc=$?
    if [ "$rc" -eq 0 ]; then
      echo "mutants: $name: SURVIVED $test ($pkg)"
      survived=1
    elif grep -q -- "--- FAIL: ${test}\b" <<<"$out"; then
      echo "mutants: $name: killed by $test"
    else
      echo "mutants: $name: $test did not run to a verdict (exit $rc)" >&2
      printf '%s\n' "$out" | tail -20 >&2
      BAD=1
    fi
  done
  git apply -R "$p"
  if [ "$survived" -eq 1 ]; then
    echo "$name" >>"$WORK/survivors"
  fi
done

if ! diff -u <(grep -v '^#' testdata/mutants/survivors.golden | sed '/^$/d' | sort) <(sort "$WORK/survivors"); then
  echo "mutants: survivors differ from testdata/mutants/survivors.golden (- listed, + this run)" >&2
  BAD=1
fi
if [ "$BAD" -ne 0 ]; then
  echo "mutants: FAIL" >&2
  exit 1
fi
echo "mutants: PASS (${#patches[@]} mutants)"
