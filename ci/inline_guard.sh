#!/bin/sh
# Inlining guard: every heap word access and every descriptor lookup on
# the malloc/free paths is meant to compile to a table load in the
# caller, not a call. The Go inliner gives a function a budget of 80
# nodes; an edit that pushes one of these accessors over it costs a call
# per word silently. This step asks the compiler and fails loudly.
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
if [ "$status" -eq 0 ]; then
	echo "inline guard: mem.(*Heap).{word,Load,Store,CAS,Get,Set}, pool.(*Pool).Get and core.(*Allocator).desc all inline"
fi
exit "$status"
