#!/usr/bin/env bash
# Applies each committed mutant to a throwaway copy of the tree — never
# to the working tree — and requires every check the patch names to
# fail on it. A mutant that survives a check it names is an invariant
# with no catcher. The header of each .patch names its checks, one a
# line, before the diff:
#
#   # fails: <package dir> <TestName>   go test -run '^TestName$' must
#                                       report "--- FAIL: TestName"
#   # vet: <package dir> <text>         go vet must fail, printing text
#
# Usage: bash scripts/mutants/run.sh [mutant.patch ...]  (default: all)
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
if [ $# -eq 0 ]; then
	set -- "$root"/scripts/mutants/*.patch
fi
status=0
for patch in "$@"; do
	patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
	name=$(basename "$patch" .patch)
	checks=$(grep -E '^# (fails|vet): ' "$patch")
	if [ -z "$checks" ]; then
		echo "FAIL $name: names no check"
		status=1
		continue
	fi
	tmp=$(mktemp -d)
	# Tracked and untracked-but-not-ignored files, as the tree stands.
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tmp"
	if ! (cd "$tmp" && git apply "$patch"); then
		echo "FAIL $name: patch does not apply"
		status=1
		rm -rf "$tmp"
		continue
	fi
	while read -r _ kind pkg arg; do
		log=$tmp/check.log
		case $kind in
		fails:)
			if (cd "$tmp" && go test -count=1 -timeout 300s -run "^${arg}\$" "./$pkg") >"$log" 2>&1; then
				echo "FAIL $name: survived $arg ($pkg)"
				status=1
			elif ! grep -q -- "--- FAIL: $arg " "$log"; then
				echo "FAIL $name: $arg ($pkg) did not run to a test failure:"
				tail -n 20 "$log"
				status=1
			else
				echo "ok   $name: caught by $arg ($pkg)"
			fi
			;;
		vet:)
			if (cd "$tmp" && go vet "./$pkg") >"$log" 2>&1; then
				echo "FAIL $name: survived go vet ($pkg)"
				status=1
			elif ! grep -qF -- "$arg" "$log"; then
				echo "FAIL $name: go vet ($pkg) failed without \"$arg\":"
				tail -n 20 "$log"
				status=1
			else
				echo "ok   $name: caught by go vet ($pkg)"
			fi
			;;
		esac
	done <<<"$checks"
	rm -rf "$tmp"
done
exit $status
