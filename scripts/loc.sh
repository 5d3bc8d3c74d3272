#!/usr/bin/env bash
# Counts Go source lines outside benchmark/: the non-test and test
# totals, then non-test lines per package directory, largest first.
#
#   bash scripts/loc.sh            # in the repository root
#   bash scripts/loc.sh path/to/checkout
#
# The file set is `find . -name '*.go' -not -path './benchmark/*'`, the
# rule the size line in ROADMAP.md uses.
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
files() { find . -name '*.go' -not -path './benchmark/*' | sort; }
lines() { xargs -r cat | wc -l; }
echo "non-test $(files | grep -v '_test\.go$' | lines)"
echo "test     $(files | grep '_test\.go$' | lines)"
files | grep -v '_test\.go$' | xargs -r wc -l | grep -v ' total$' |
	awk '{ d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 }
	     END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -rn
