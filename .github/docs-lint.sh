#!/usr/bin/env bash
# docs-lint: greps docs/*.md and README.md against the Go source so the
# walkthroughs cannot silently rot. Three rules:
#
#   1. every -flag on a line invoking a saebft-* binary, and every
#      backticked `-flag`, must be declared by some cmd/ tool;
#   2. every `saebft.X` identifier must exist in the saebft package, and
#      every backticked option constructor (`WithX(`, `DialX(`, `NodeX(`)
#      must be a func the saebft package declares;
#   3. every backticked `Type.Method` reference must exist in the source.
#
# Deliberately simple (grep, no Go parsing): it catches renames and
# removals, which is what kills deployment docs in practice.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(docs/*.md README.md)
fail=0

# --- 1. tool flags ---------------------------------------------------------
invocation_flags=$(grep -hoE '(^|[ /])saebft-(keygen|node|client|bench)[^|#]*' "${docs[@]}" |
	grep -oE '[ ]-[a-z][a-z-]*' | sed 's/^ -//' | sort -u)
backtick_flags=$(grep -hoE '`-[a-z][a-z-]*' "${docs[@]}" | sed 's/^`-//' | sort -u)
declared=$(grep -rhoE 'flag\.[A-Za-z]+\("[a-z-]+"' cmd | sed -e 's/.*("//' -e 's/"$//' | sort -u)
# Go toolchain flags the docs may mention outside a saebft-* invocation.
go_flags='race bench benchmem short run count v o'
for f in $(printf '%s\n%s\n' "$invocation_flags" "$backtick_flags" | sort -u); do
	if grep -qw "$f" <<<"$go_flags"; then
		continue
	fi
	if ! grep -qx "$f" <<<"$declared"; then
		echo "docs-lint: flag -$f is referenced in the docs but no cmd/ tool declares it"
		fail=1
	fi
done

# --- 2. saebft.* identifiers ----------------------------------------------
idents=$(grep -hoE 'saebft\.[A-Z][A-Za-z]*' "${docs[@]}" | sed 's/saebft\.//' | sort -u)
for id in $idents; do
	if ! grep -qrw --include='*.go' --exclude='*_test.go' "$id" saebft/; then
		echo "docs-lint: identifier saebft.$id is referenced in the docs but not defined in the saebft package"
		fail=1
	fi
done
options=$(grep -hoE '`(With|Dial|Node)[A-Z][A-Za-z]*\(' "${docs[@]}" | tr -d '`(' | sort -u)
for o in $options; do
	if ! grep -qrE --include='*.go' --exclude='*_test.go' "^func $o\(" saebft/; then
		echo "docs-lint: option $o( is referenced in the docs but the saebft package declares no such func"
		fail=1
	fi
done

# --- 3. backticked Type.Method references ----------------------------------
methods=$(grep -hoE '`[A-Z][A-Za-z]*\.[A-Z][A-Za-z]*(\(\)|\(\.\.\.\))?`' "${docs[@]}" |
	tr -d '`' | sed -E 's/\(.*\)//' | cut -d. -f2 | sort -u)
for m in $methods; do
	if ! grep -qrw --include='*.go' --exclude='*_test.go' "$m" saebft/ internal/ cmd/; then
		echo "docs-lint: method/field $m (referenced in the docs) not found in the source tree"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "docs-lint: FAILED — update the docs or restore the renamed identifiers"
	exit 1
fi
nflags=$(wc -w <<<"$invocation_flags $backtick_flags")
echo "docs-lint: OK ($nflags flag refs, $(wc -w <<<"$idents") saebft identifiers, $(wc -w <<<"$options") options, $(wc -w <<<"$methods") method refs checked)"
