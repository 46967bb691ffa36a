#!/bin/sh
# Regenerates BENCH_wire.json from BenchmarkWireTxPerConn.
#
# Challenge pairs burn forever in the no-reuse registry, so the bench
# runs a fixed iteration count (-benchtime Nx), never wall time: a
# time-based count on a fast machine could exhaust the pair space
# mid-run. 1000 iterations keeps every variant under ~15% of one
# plane's pair budget.
#
#   scripts/bench_wire.sh                  # full run, 1000 iterations
#   scripts/bench_wire.sh 50 /tmp/out.json # smoke run to a scratch file
#
# The optional second argument is the output path (default
# BENCH_wire.json); scripts/check.sh points its smoke run at a temp
# file so only a full run rewrites the committed results. The JSON
# records the host: goos, goarch, gomaxprocs, cpu and go_version.
#
# Run from the repo root (make bench-wire and scripts/check.sh do).
set -eu

iters="${1:-1000}"
out="${2:-BENCH_wire.json}"

raw="$(go test -run '^$' -bench BenchmarkWireTxPerConn \
	-benchtime "${iters}x" -count=1 ./internal/auth/)"
printf '%s\n' "$raw"

# Each bench line looks like:
#   BenchmarkWireTxPerConn/local/v1/depth=1  1000  178467 ns/op  5603 tx/s
printf '%s\n' "$raw" | awk -v iters="$iters" \
	-v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" '
/^cpu: / { cpu = substr($0, 6) }
/^BenchmarkWireTxPerConn\// {
	sub(/^BenchmarkWireTxPerConn\//, "", $1)
	# Strip the trailing -N GOMAXPROCS suffix if present.
	sub(/-[0-9]+$/, "", $1)
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "tx/s") tx = $i
	}
	lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"tx_per_sec\": %s}", $1, ns, tx)
}
END {
	if (n == 0) { print "bench_wire: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchmark\": \"BenchmarkWireTxPerConn\",\n"
	printf "  \"iterations\": %d,\n", iters
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n", goos, goarch
	printf "  \"gomaxprocs\": %d,\n  \"cpu\": \"%s\",\n", gomaxprocs, cpu
	printf "  \"go_version\": \"%s\",\n", gover
	print "  \"results\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
	print "  ]"
	print "}"
}' >"$out"

echo "bench_wire: wrote $out"
