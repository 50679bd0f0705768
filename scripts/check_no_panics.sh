#!/usr/bin/env bash
# Robustness gate (see DESIGN.md, "Error taxonomy & degradation policy"):
# library code in the numeric crates must not contain bare `unwrap()` or
# `panic!` — malformed input gets a typed error, marginal input a
# recorded repair. Documented invariant guards use expect()/assert!.
# Everything from the first `#[cfg(test)]` line of a file down is exempt
# (in-file test modules sit at the bottom by repo convention).
set -eu

fail=0
for crate in core ssta mesh kernels linalg obs proptest runtime serve sta circuit; do
  while IFS= read -r f; do
    cut=$(grep -n '#\[cfg(test)\]' "$f" | head -1 | cut -d: -f1 || true)
    if [ -n "$cut" ]; then
      body=$(head -n $((cut - 1)) "$f")
    else
      body=$(cat "$f")
    fi
    found=$(printf '%s\n' "$body" \
      | grep -nE '\.unwrap\(\)|panic!\(' \
      | grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$found" ]; then
      echo "$f:"
      printf '%s\n' "$found"
      fail=1
    fi
  done < <(find "crates/$crate/src" -name '*.rs')
done

if [ "$fail" -ne 0 ]; then
  echo "error: unwrap()/panic! in library code — use typed errors or a documented expect() (DESIGN.md)" >&2
  exit 1
fi
echo "no-panic gate: clean"
