#!/bin/sh
# Inlining guard: every heap word access and every descriptor lookup on
# the malloc/free paths is meant to compile to a table load in the
# caller, not a call, and every counter bump and prefix decode to a few
# register instructions (an outlined bump hands back, as a call, what
# replacing the atomic add saved). The Go inliner gives a function a
# budget of 80 nodes; an edit that pushes one of these helpers over it
# costs a call per word silently. This step asks the compiler and fails
# loudly.
#
# mem's accessors are checked where they are declared. pool.Pool is
# generic, so the compiler only reports on its methods where they are
# instantiated: Get is checked through core's descriptor pool.
set -eu
cd "$(dirname "$0")/.."

out=$(go build -gcflags=-m ./internal/mem ./internal/core 2>&1)
status=0
need() {
	if ! printf '%s\n' "$out" | grep -Eq "$1"; then
		echo "inline guard: compiler no longer reports: $2" >&2
		status=1
	fi
}
for fn in word Load Store CAS Get Set; do
	need "can inline \(\*Heap\)\.$fn( |\$)" "can inline (*Heap).$fn"
done
need 'can inline \(\*Allocator\)\.desc( |$)' 'can inline (*Allocator).desc'
need 'allocator\.go:[0-9:]+ inlining call to pool\.\(\*Pool\[.*\]\)\.Get( |$)' \
	'inlining call to pool.(*Pool[...]).Get in (*Allocator).desc'
# The counter bump must inline where malloc, the magazine refill and
# free count an operation; the prefix helpers where malloc's pop loops
# (mallocFromActive, mallocFromPartial) and free read word 0.
inlined() {
	need "$1\\.go:[0-9:]+ inlining call to $2( |\$)" "inlining call to $3 in core/$1.go"
}
for file in malloc magazine free; do
	inlined "$file" '\(\*Thread\)\.bump' '(*Thread).bump'
done
inlined free prefixDesc prefixDesc
inlined free withLink withLink
inlined malloc prefixLink prefixLink
inlined magazine prefixDesc prefixDesc
# release (Figure 6 for a chain of blocks) is what free's slow path and a
# magazine flush both end in: the tail-link store in its CAS loop must
# stay a shift and an or. The compiler reports file:line, so the line is
# checked against the function's extent.
inlined_within() {
	start=$(grep -n "^func (t \*Thread) $2(" "internal/core/$1.go" | cut -d: -f1)
	end=$(awk -v s="$start" 'NR > s && /^}/ { print NR; exit }' "internal/core/$1.go")
	if ! printf '%s\n' "$out" | awk -F: -v f="$1.go" -v s="$start" -v e="$end" -v fn="$3" \
		'$1 ~ f"$" && $2 > s && $2 < e && $0 ~ "inlining call to "fn"( |$)" { found = 1 } END { exit !found }'; then
		echo "inline guard: compiler no longer reports: inlining call to $3 in (*Thread).$2 (core/$1.go:$start-$end)" >&2
		status=1
	fi
}
inlined_within release release withLink
inlined_within release release smallPrefix
if [ "$status" -eq 0 ]; then
	echo "inline guard: mem.(*Heap).{word,Load,Store,CAS,Get,Set}, pool.(*Pool).Get, core.(*Allocator).desc, (*Thread).bump and the prefix helpers all inline, withLink and smallPrefix inside release"
fi
exit "$status"
