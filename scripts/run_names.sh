#!/usr/bin/env bash
# The test-name guard of make lease-stress-names. A -run pattern names tests
# verbatim, and one that names a test no longer there (renamed, deleted)
# matches nothing: go test runs no test and passes. This script reads the
# commands of each make target it is given (make -n), takes every
# `go test ... -run '<pattern>' <package>` among them, and fails when a name
# the pattern's top level spells — the part before the first `/`, its `|`
# alternatives, a group `P(A|B)S` read as PAS and PBS — matches no test the
# package lists (go test -list). In an anchored pattern (`^...$`) a name must
# match a test exactly; otherwise it is a prefix and must begin one. A pattern
# of any other shape (two groups, a group beside a top-level `|`) is refused.
#
# Run from the repository root: bash scripts/run_names.sh lease-stress. GO and
# MAKE name the tools (go, make).
set -euo pipefail
GO=${GO:-go}
MAKE=${MAKE:-make}
missing=0
checked=0
for target in "$@"; do
	while IFS= read -r line; do
		pattern=$(sed -n "s/.*-run '\([^']*\)'.*/\1/p" <<<"$line")
		[ -n "$pattern" ] || continue
		pkg=${line##* }
		top=${pattern%%/*}
		anchored=0
		if [[ $top == ^* && $top == *\$ ]]; then
			anchored=1
		fi
		top=${top#^}
		top=${top%\$}
		alts=()
		if [[ $top =~ ^([^()|]*)\(([^()]*)\)([^()|]*)$ ]]; then
			prefix=${BASH_REMATCH[1]} suffix=${BASH_REMATCH[3]}
			IFS='|' read -r -a inner <<<"${BASH_REMATCH[2]}"
			for alt in "${inner[@]}"; do
				alts+=("$prefix$alt$suffix")
			done
		elif [[ $top != *[\(\)]* ]]; then
			IFS='|' read -r -a alts <<<"$top"
		else
			echo "$target: cannot read the -run pattern $pattern" >&2
			exit 1
		fi
		names=$("$GO" test -list '.*' "$pkg" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			if [ $anchored = 1 ]; then
				grep -qxF -- "$alt" <<<"$names" && continue
			else
				grep -q -- "^$alt" <<<"$names" && continue
			fi
			echo "$target: -run names $alt, which matches no test in $pkg" >&2
			missing=$((missing + 1))
		done
	done < <("$MAKE" -s -n --no-print-directory "$target")
done
if [ $missing -gt 0 ]; then
	exit 1
fi
echo "run-names: all $checked test names of $* exist"
