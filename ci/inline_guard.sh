#!/bin/sh
# Inlining guard: every heap word access and every descriptor lookup on
# the malloc/free paths is meant to compile to a table load in the
# caller, not a call, and the operation count and every prefix decode to
# a few register instructions (an outlined count hands back, as a call,
# what replacing the atomic add saved). The Go inliner gives a function a
# budget of 80 nodes; an edit that pushes one of these helpers over it
# costs a call per word silently. This step asks the compiler and fails
# loudly. It then counts the locked instructions on the paths that end
# in a CAS, checks that a magazine hit takes none, that only the timed
# helpers read the clock or call the recorder and that recording an
# operation divides nothing, and checks that Heap.Load translates with
# one compare (see the last sections).
#
# mem's accessors are checked where they are declared. pool.Table is
# generic, so the compiler only reports on its methods where they are
# instantiated: Get is checked through core's copy of the descriptor
# pool's table.
set -eu
cd "$(dirname "$0")/.."

out=$(go build -gcflags=-m ./internal/atomicx ./internal/mem ./internal/core 2>&1)
status=0
need() {
	if ! printf '%s\n' "$out" | grep -Eq "$1"; then
		echo "inline guard: compiler no longer reports: $2" >&2
		status=1
	fi
}
for fn in Mapped word Load Store CAS Get Set; do
	need "can inline \(\*Heap\)\.$fn( |\$)" "can inline (*Heap).$fn"
done
# The single-writer store behind Heap.Store and the magazine count, and
# the plain load of the bump pointer behind every heap-word access.
need 'can inline PlainStore( |$)' 'can inline atomicx.PlainStore'
need 'mem\.go:[0-9:]+ inlining call to atomicx\.PlainStore( |$)' 'inlining call to atomicx.PlainStore in (*Heap).Store'
need 'can inline PlainLoad( |$)' 'can inline atomicx.PlainLoad'
need 'mem\.go:[0-9:]+ inlining call to atomicx\.PlainLoad( |$)' 'inlining call to atomicx.PlainLoad in (*Heap).Mapped'
# The payload round-up of every backend's Malloc and of the large path.
need 'can inline PayloadWords( |$)' 'can inline mem.PayloadWords'
need 'largeobj\.go:[0-9:]+ inlining call to PayloadWords( |$)' 'inlining call to mem.PayloadWords in (*Heap).LargeAlloc'
need 'can inline \(\*Allocator\)\.desc( |$)' 'can inline (*Allocator).desc'
need 'allocator\.go:[0-9:]+ inlining call to pool\.\(\*Table\[.*\]\)\.Get( |$)' \
	'inlining call to pool.(*Table[...]).Get in (*Allocator).desc'
# The prefix helpers must inline where malloc's pop loops
# (mallocFromActive, mallocFromPartial), free and a magazine flush read
# word 0; a free takes its class from the prefix alone.
inlined() {
	need "$1\\.go:[0-9:]+ inlining call to $2( |\$)" "inlining call to $3 in core/$1.go"
}
inlined free prefixDesc prefixDesc
inlined free prefixClass prefixClass
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
# Every Malloc or Free does one count store, inlined where malloc and
# free serve the operation: the only count of it, which Stats reads. With
# a recorder attached, an untimed one adds one countdown, inlined where
# Malloc and Free run it.
for fn in Malloc Free; do
	file=$(echo "$fn" | tr A-Z a-z)
	inlined_within "$file" "$fn" '\(\*Thread\)\.due'
done
inlined_within malloc malloc 'telemetry\.Counts\.Count'
inlined_within free free 'telemetry\.Counts\.Count'
# A thread without a hook pays the hook's nil check, not a call, at every
# kill point of the Active pop.
inlined_within malloc mallocFromActive '\(\*Thread\)\.hook'
if [ "$status" -eq 0 ]; then
	echo "inline guard: atomicx.PlainStore, atomicx.PlainLoad, mem.(*Heap).{Mapped,word,Load,Store,CAS,Get,Set}, mem.PayloadWords, pool.(*Table).Get, core.(*Allocator).desc and the prefix helpers all inline, withLink and smallPrefix inside release, the count inside malloc and free, the recorder's countdown inside Malloc and Free and the hook inside mallocFromActive"
fi

# Locked-instruction count, from the disassembly of a non-race build
# (the race build keeps Heap.Store atomic). Heap.Store is a plain store:
# the CAS after every link store publishes it. A plain XCHG is a locked
# store (an atomic Store on amd64); LOCK is the prefix of CMPXCHG (a
# CAS) and XADD (an atomic Add). spliceGroup is one place this fails
# on: it writes only blocks it owns and hands the chain to release's CAS,
# so any XCHG in it is a barrier paid per block, and its two counters
# are the owner's plain stores, so any LOCK is paid per flush group.
# pushRemote, a free onto another heap's remote stack, is the other: its
# CAS is its one locked instruction (free counts its retries after it
# returns). The other counts are printed for the record.
if [ "$(go env GOARCH)" = amd64 ]; then
	bin=$(mktemp -d)
	trap 'rm -rf "$bin"' EXIT
	go test -c -o "$bin/core.test" ./internal/core
	locked() { # prints "<xchg> <lock>" for core.(*Thread).$1, or nothing if absent
		go tool objdump -s "^repro/internal/core\.\(\*Thread\)\.$1\$" "$bin/core.test" |
			awk '/^TEXT/ { seen = 1 } /[ \t]XCHG[BWLQ]?[ \t]/ { x++ } /[ \t]LOCK[ \t]/ { l++ }
				END { if (seen) print x + 0, l + 0 }'
	}
	for fn in spliceGroup pushRemote free mallocFromActive refillFromActive release; do
		counts=$(locked "$fn")
		if [ -z "$counts" ]; then
			echo "inline guard: no code for core.(*Thread).$fn in the test binary" >&2
			status=1
			continue
		fi
		set -- $counts
		echo "locked instructions: core.(*Thread).$fn XCHG=$1 LOCK=$2"
		if [ "$fn" = spliceGroup ] && [ "$1" -ne 0 ]; then
			echo "inline guard: core.(*Thread).spliceGroup has $1 XCHG; its link stores must be plain" >&2
			status=1
		fi
		if [ "$fn" = spliceGroup ] && [ "$2" -ne 0 ]; then
			echo "inline guard: core.(*Thread).spliceGroup has $2 LOCK; its counters must be plain stores" >&2
			status=1
		fi
		if [ "$fn" = pushRemote ] && { [ "$1" -ne 0 ] || [ "$2" -ne 1 ]; }; then
			echo "inline guard: core.(*Thread).pushRemote has $1 XCHG and $2 LOCK, want 0 and its one CMPXCHG" >&2
			status=1
		fi
	done
	# A magazine hit pair is pop, inlined into malloc, and magazinePut up
	# to its flush call: the count is the owner's plain store, so neither
	# may hold a locked instruction. pop's instructions in malloc are those
	# on pop's lines of magazine.go and the runs of inlined non-core code
	# (the store helper) that follow them.
	magazine_locked() { # prints "<xchg> <lock>" on the hit path, or nothing if absent
		ps=$(grep -n '^func (m \*magazine) pop(' internal/core/magazine.go | cut -d: -f1)
		pe=$(awk -v s="$ps" 'NR > s && /^}/ { print NR; exit }' internal/core/magazine.go)
		corefiles=$(cd internal/core && ls *.go | tr '\n' ' ')
		{
			go tool objdump -s '^repro/internal/core\.\(\*Thread\)\.malloc$' "$bin/core.test" | sed 's/^/malloc /'
			go tool objdump -s '^repro/internal/core\.\(\*Thread\)\.magazinePut$' "$bin/core.test" | sed 's/^/put /'
		} | awk -v ps="$ps" -v pe="$pe" -v core="$corefiles" '
			BEGIN { n = split(core, f, " "); for (i = 1; i <= n; i++) iscore[f[i]] = 1 }
			$2 == "TEXT" { seen[$1] = 1; next }
			{ split($2, loc, ":"); locked = $0 ~ /[ \t](XCHG[BWLQ]?|LOCK)[ \t]/ }
			$1 == "malloc" {
				if (loc[1] == "magazine.go" && loc[2] >= ps && loc[2] <= pe) inpop = 1
				else if (loc[1] in iscore) inpop = 0
				if (inpop && locked) { if ($0 ~ /XCHG/) x++; else l++ }
			}
			$1 == "put" && !flushed {
				if ($0 ~ /CALL .*flushMagazine/) flushed = 1
				else if (locked) { if ($0 ~ /XCHG/) x++; else l++ }
			}
			END { if (seen["malloc"] && seen["put"]) print x + 0, l + 0 }'
	}
	counts=$(magazine_locked)
	if [ -z "$counts" ]; then
		echo "inline guard: no code for core.(*Thread).malloc or magazinePut in the test binary" >&2
		status=1
	else
		set -- $counts
		echo "locked instructions: magazine hit path (pop in malloc, magazinePut to its flush) XCHG=$1 LOCK=$2"
		if [ "$1" -ne 0 ] || [ "$2" -ne 0 ]; then
			echo "inline guard: the magazine hit path has $1 XCHG and $2 LOCK; its count store must be plain" >&2
			status=1
		fi
	fi
	# Only the outlined helpers read the clock: Malloc's and Free's own
	# code calls neither the clock behind telemetry.Now (runtime.nanotime)
	# nor time.Now, and mallocTimed and freeTimed do.
	for fn in Malloc Free mallocTimed freeTimed; do
		clocks=$(go tool objdump -s "^repro/internal/core\.\(\*Thread\)\.$fn\$" "$bin/core.test" |
			awk '/^TEXT/ { seen = 1 } /CALL (runtime\.nanotime|time\.Now|time\.Since)/ { c++ } END { if (seen) print c + 0 }')
		if [ -z "$clocks" ]; then
			echo "inline guard: no code for core.(*Thread).$fn in the test binary" >&2
			status=1
			continue
		fi
		echo "clock reads: core.(*Thread).$fn $clocks"
		# An untimed operation leaves the recorder alone: Malloc's and
		# Free's own code makes no call into the telemetry package.
		case $fn in
		Malloc | Free)
			tcalls=$(go tool objdump -s "^repro/internal/core\.\(\*Thread\)\.$fn\$" "$bin/core.test" |
				awk '/CALL repro\/internal\/telemetry\./ { c++ } END { print c + 0 }')
			echo "telemetry calls: core.(*Thread).$fn $tcalls"
			if [ "$tcalls" -ne 0 ]; then
				echo "inline guard: core.(*Thread).$fn calls into the telemetry package; only mallocTimed and freeTimed may" >&2
				status=1
			fi
			;;
		esac
		case "$fn:$clocks" in
		Malloc:0 | Free:0) ;;
		Malloc:* | Free:*)
			echo "inline guard: core.(*Thread).$fn reads the clock; only mallocTimed and freeTimed may" >&2
			status=1
			;;
		*:0)
			echo "inline guard: core.(*Thread).$fn reads no clock; the timed path has moved" >&2
			status=1
			;;
		esac
	done
	# Recording a timed operation divides nothing: a DIV in endOp is paid
	# on every timed malloc and free.
	divs=$(go tool objdump -s '^repro/internal/telemetry\.\(\*ThreadShard\)\.endOp$' "$bin/core.test" |
		awk '/^TEXT/ { seen = 1 } /[ \t]I?DIV[BWLQ]?[ \t]/ { d++ } END { if (seen) print d + 0 }')
	if [ -z "$divs" ]; then
		echo "inline guard: no code for telemetry.(*ThreadShard).endOp in the test binary" >&2
		status=1
	else
		echo "divisions: telemetry.(*ThreadShard).endOp DIV=$divs"
		if [ "$divs" -ne 0 ]; then
			echo "inline guard: telemetry.(*ThreadShard).endOp divides" >&2
			status=1
		fi
	fi
	# A heap word's translation is one unsigned compare of the address
	# against the bump pointer, then base + 8*p: the out-of-line Load's
	# path to its first RET (frame setup included, panic and stack-growth
	# tails not) has one conditional branch, not counting a stack check's,
	# and at most 14 instructions. A lookup table between address and
	# word would add a dependent load and a branch.
	go test -c -o "$bin/mem.test" ./internal/mem
	load=$(go tool objdump -s '^repro/internal/mem\.\(\*Heap\)\.Load$' "$bin/mem.test" |
		awk '/^TEXT/ { seen = 1; next } seen && NF && !ret { n++ } /[ \t]RET[ \t]/ { ret = 1 }
			!ret && /[ \t]J[A-Z]+[ \t]/ && !/[ \t]JMP[ \t]/ && prev !~ /[ \t]CMPQ[ \t]+SP,/ { jcc++ }
			{ prev = $0 }
			END { if (seen) print n + 0, jcc + 0 }')
	if [ -z "$load" ]; then
		echo "inline guard: no code for mem.(*Heap).Load in the test binary" >&2
		status=1
	else
		set -- $load
		echo "instructions: mem.(*Heap).Load $1 to RET, conditional branches $2"
		if [ "$1" -gt 14 ] || [ "$2" -ne 1 ]; then
			echo "inline guard: mem.(*Heap).Load has $1 instructions and $2 conditional branches to RET, want at most 14 and exactly 1" >&2
			status=1
		fi
	fi
fi
exit "$status"
