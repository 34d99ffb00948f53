#!/usr/bin/env bash
# Checks that every fuzz target in the tree (a `func Fuzz*` in a _test.go
# file) is run, with its package, by both hand-kept lists of fuzz targets:
# the Makefile's fuzz-smoke recipe and the fuzz matrix in
# .github/workflows/ci.yml. Each list must also hold nothing else. Run it
# from anywhere: `bash scripts/check-fuzz-lists.sh` (`make lint` does).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

smoke=$(sed -n '/^fuzz-smoke:/,/^$/p' Makefile)
matrix=$(cat .github/workflows/ci.yml)
status=0
targets=0
while IFS=: read -r file decl; do
	pkg=./$(dirname "${file#./}")
	target=${decl#func }
	targets=$((targets + 1))
	if ! grep -qF -- "test $pkg -run '^\$\$' -fuzz '^$target\$\$'" <<<"$smoke"; then
		echo "fuzz target $target ($pkg) is missing from the Makefile's fuzz-smoke recipe" >&2
		status=1
	fi
	if ! grep -qF -- "{ pkg: $pkg, target: $target }" <<<"$matrix" &&
		! grep -qF -- "{ pkg: $pkg, target: $target," <<<"$matrix"; then
		echo "fuzz target $target ($pkg) is missing from the fuzz matrix in .github/workflows/ci.yml" >&2
		status=1
	fi
done < <(grep -rEo --include='*_test.go' --exclude-dir='.[!.]*' '^func Fuzz[A-Za-z0-9_]*' .)

in_smoke=$(grep -c -- " -fuzz '" <<<"$smoke" || true)
in_matrix=$(grep -cE -- '^ *- \{ pkg: [^,]+, target: ' <<<"$matrix" || true)
if [ "$in_smoke" -ne "$targets" ]; then
	echo "the Makefile's fuzz-smoke recipe runs $in_smoke fuzz targets; the tree has $targets" >&2
	status=1
fi
if [ "$in_matrix" -ne "$targets" ]; then
	echo "the fuzz matrix in .github/workflows/ci.yml lists $in_matrix fuzz targets; the tree has $targets" >&2
	status=1
fi
exit $status
