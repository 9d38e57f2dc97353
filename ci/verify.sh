#!/bin/sh
# The CI matrix, runnable locally: ./ci/verify.sh [stage...]
# Stages: build lint test race tags smoke fuzz; no argument runs all of
# them in that order. .github/workflows/ci.yml calls this script one stage
# per step, so a check added here runs in CI without a workflow edit.
set -eu
cd "$(dirname "$0")/.."

stage_build() {
	go build ./...
}

stage_lint() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "verify: gofmt -l prints:" $unformatted >&2
		exit 1
	fi
	go vet ./...
	# CI installs a pinned staticcheck before this stage; a machine
	# without it still gets vet and the inlining guard.
	if command -v staticcheck >/dev/null; then
		staticcheck ./...
	else
		echo "verify: staticcheck not on PATH, skipped" >&2
	fi
	./ci/inline_guard.sh
	# Every package is reached from a command, an example or the ledger:
	# one that none of them imports is dead code. The root package is
	# documentation only.
	reached=$(go list -deps ./cmd/... ./examples/... ./benchmark)
	for pkg in $(go list ./...); do
		case $pkg in repro) continue ;; esac
		if ! echo "$reached" | grep -qx "$pkg"; then
			echo "verify: $pkg is imported by no command, example or the ledger" >&2
			exit 1
		fi
	done
}

stage_test() {
	go test ./...
}

stage_race() {
	# Every package but the ledger, whose tests are not yet green under
	# -race (ROADMAP.md direction 1(b)), so a new package is raced without
	# a new line here.
	go test -race $(go list ./... | grep -vx 'repro/benchmark')
	go test -race -tags memdebug ./internal/mem ./internal/pool
}

stage_tags() {
	go test -tags memdebug ./internal/mem ./internal/core ./internal/chunkheap \
		./internal/buddy ./internal/baseline/...
}

stage_smoke() {
	bin=$(mktemp -d)
	trap 'rm -rf "$bin"' EXIT
	go build -o "$bin" ./cmd/benchmal ./cmd/mlfstress ./cmd/allocmon ./cmd/heapinfo

	go test -run=NONE -bench=. -benchtime=1x ./internal/core

	# The ledger's in-run checks (a canary on every block, CheckInvariants
	# and Mallocs == Frees after every round; a failure exits 1) over the
	# block layout and the operation counts, with magazines off (larson)
	# and on (kvcache). The last line of output is the report.
	for workload in larson kvcache; do
		go run ./benchmark -workload "$workload" -seconds 2 -rounds 2 -trace 0 >"$bin/$workload.out"
		report=$(tail -n 1 "$bin/$workload.out")
		echo "$report"
		case $report in
		*'"failed":0,'*) ;;
		*)
			echo "verify: $workload: the report does not say \"failed\":0" >&2
			exit 1
			;;
		esac
	done
	# kvcache's values are log-uniform from 16 B to 8 KiB, so its
	# space_blowup is the class table's price: about 1.128 with the
	# classes by block count on 12 and 16 KiB superblocks, 1.158 on
	# 16 KiB alone, 1.333 while 2-8 KiB requests were page-rounded
	# regions. It repeats to 0.1 %, two-second run or full one, so the
	# ceiling trips on a change of table or of the small/large boundary,
	# not on noise.
	echo "$report" | sed -n 's/.*"space_blowup":{"value":\([0-9.eE+-]*\).*/\1/p' |
		awk '{ seen = 1; if ($1 > 1.15) bad = 1 } END { exit !seen || bad }' || {
		echo "verify: kvcache space_blowup is missing or above 1.15" >&2
		exit 1
	}

	# Every registered experiment, so a new one is smoked without a new step.
	for id in $("$bin/benchmal" -list | cut -d' ' -f1); do
		"$bin/benchmal" -exp "$id" -threads 1,2 -scale 0.002
	done
	# Every allocator-shape flag away from its default.
	for knob in "-magazine 8"; do
		"$bin/benchmal" -exp table1 -threads 1,2 -scale 0.002 -allocs lockfree $knob
	done
	# A knob core.Config.Validate rejects must stop every tool.
	for tool in benchmal mlfstress "allocmon -once"; do
		for knob in "-magazine -1"; do
			if "$bin/"$tool $knob >/dev/null 2>&1; then
				echo "verify: $tool accepted $knob" >&2
				exit 1
			fi
		done
	done
	# So must a workload of no threads or no operations, a sampling
	# interval of zero or an empty series ring (the server must not start
	# listening), a negative sampling period, a benchmark
	# scale that is not above 0, and an experiment id that does not exist.
	for cmd in "mlfstress -threads 0" "mlfstress -ops 0" "allocmon -once -threads 0" \
		"allocmon -interval 0 -addr 127.0.0.1:0" "allocmon -history 0 -addr 127.0.0.1:0" \
		"allocmon -once -samplerate -1" \
		"benchmal -scale 0" "benchmal -scale -1" "benchmal -exp nosuch"; do
		if "$bin/"$cmd >/dev/null 2>&1; then
			echo "verify: $cmd exited 0" >&2
			exit 1
		fi
	done

	# Every registered backend (heapinfo prints the registry, one
	# "backend <name> ... kill-points=<n>" line per entry, so a new one is
	# smoked without a new line here): the live census, stress under the
	# shadow oracle, and a kill sweep on each entry with kill points.
	for name in $("$bin/heapinfo" | awk '$1 == "backend" { print $2 }'); do
		"$bin/allocmon" -once -warmup 200ms -threads 2 -alloc "$name" >/dev/null
		"$bin/mlfstress" -alloc "$name" -threads 4 -ops 20000 -shadow -magazine 8
	done
	for name in $("$bin/heapinfo" | awk '$1 == "backend" && $NF != "kill-points=0" { print $2 }'); do
		"$bin/mlfstress" -alloc "$name" -threads 4 -ops 5000 -kills 2 -shadow -magazine 8
	done
}

# Each Go fuzzer, named package path:fuzzer, for a fixed budget; a
# crasher it finds lands in the package's testdata/fuzz and fails the
# stage (and, committed with its fix, every later `go test`).
stage_fuzz() {
	for target in ./alloc:FuzzDifferential ./internal/core:FuzzMallocFreeSequence \
		./internal/core:FuzzMagazine ./internal/buddy:FuzzModel \
		./internal/chunkheap:FuzzChunkOps ./internal/lfstack:FuzzStack; do
		go test -run=NONE -fuzz="^${target#*:}\$" -fuzztime=10s "${target%%:*}"
	done
}

[ $# -gt 0 ] || set -- build lint test race tags smoke fuzz
for stage; do
	case $stage in
	build | lint | test | race | tags | smoke | fuzz)
		echo "== verify: $stage"
		"stage_$stage"
		;;
	*)
		echo "usage: $0 [build|lint|test|race|tags|smoke|fuzz]..." >&2
		exit 2
		;;
	esac
done
