#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. Run from the repo root; exits non-zero on any failure.
set -eu

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race -coverprofile=coverage.out -covermode=atomic ./...

# Coverage floor: the total must not regress below the baseline recorded
# when the test substrate landed (measured 81.8% when the columnar
# storage engine landed; floor set with a small drift allowance). Raise
# the floor when coverage grows, never lower it.
coverage_floor=81.0
total=$(go tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $NF); print $NF }')
rm -f coverage.out
echo "coverage: total ${total}% (floor ${coverage_floor}%)"
if ! awk -v t="$total" -v f="$coverage_floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }'; then
    echo "coverage gate: total ${total}% fell below the ${coverage_floor}% floor" >&2
    exit 1
fi

# Fuzz smoke: each wire-protocol fuzz target runs 10s of real fuzzing
# (their checked-in seed corpora under testdata/fuzz/ already ran in the
# plain `go test` pass above). One -fuzz invocation per target, as the
# fuzz engine requires.
fuzz_smoke() {
    pkg=$1
    target=$2
    echo "fuzz smoke: $target ($pkg)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "$pkg"
}
fuzz_smoke ./internal/tsdb FuzzDecodeLine
fuzz_smoke ./internal/tsdb FuzzEncodeDecodeRoundTrip
fuzz_smoke ./internal/tsdb FuzzCodecDifferential
fuzz_smoke ./internal/tsdb FuzzBatchFrame
fuzz_smoke ./internal/tsdb FuzzParseQuery
fuzz_smoke ./internal/tsdb FuzzBlockDecode
fuzz_smoke ./internal/introspect FuzzParseTraceparent
fuzz_smoke ./internal/docdb FuzzDocdbFrame
fuzz_smoke ./internal/storage FuzzWALRecord

# Benchmark smoke: every benchmark must still compile and survive one
# iteration — catches bit-rotted b.Run setups without paying for real
# measurement.
go test -run NONE -bench . -benchtime 1x ./...

# Perf record: sweep the durable sharded-ingest benchmark (writer
# goroutines x batch size against a WAL with fsync=always) and record
# the points/s trajectory in BENCH_7.json. Gate: group-committed
# batches (16 goroutines x batch 256) must hold >=4x the single-point
# fsync-per-write baseline (1 goroutine x batch 1, the seed ingest
# discipline).
go test -run '^$' -bench '^BenchmarkTSDBWriteParallel$' -benchtime 0.3s . > bench7.out
awk '
    /^BenchmarkTSDBWriteParallel\// {
        split($1, name, "/")
        g = substr(name[2], 2) + 0
        bsz = name[3]; sub(/^b/, "", bsz); sub(/-[0-9]+$/, "", bsz); bsz += 0
        for (i = 2; i <= NF; i++) if ($i == "points/s") pps[g "," bsz] = $(i - 1) + 0
    }
    END {
        printf "{\n  \"benchmark\": \"BenchmarkTSDBWriteParallel\",\n  \"fsync\": \"always\",\n  \"rows\": [\n"
        n = 0
        for (g = 1; g <= 16; g *= 4) for (b = 1; b <= 256; b *= 16) {
            if (n++) printf ",\n"
            printf "    {\"goroutines\": %d, \"batch\": %d, \"points_per_sec\": %.0f}", g, b, pps[g "," b]
        }
        base = pps["1,1"]; top = pps["16,256"]
        printf "\n  ],\n  \"single_point_baseline_points_per_sec\": %.0f,\n", base
        printf "  \"g16_b256_points_per_sec\": %.0f,\n", top
        printf "  \"speedup_g16_b256_vs_single_point\": %.2f\n}\n", top / base
        if (base <= 0 || top < 4 * base) exit 1
    }
' bench7.out > BENCH_7.json || {
    echo "ingest bench gate: g16/b256 did not reach 4x the g1/b1 single-point baseline:" >&2
    cat bench7.out >&2
    exit 1
}
rm -f bench7.out
echo "ingest bench: $(grep speedup BENCH_7.json | tr -d ' ,')"

# Perf record: sweep the aggregation query engine (scan workers x
# dataset size, cache bypassed) against the raw materialize-and-fold
# baseline it replaces, recording the points/s trajectory in
# BENCH_9.json. Gates: the engine at 16 workers on 1e6 points must hold
# >=2x the raw baseline on any machine (the win is algorithmic — no
# per-row map allocations); it must additionally hold >=2x its own
# 1-worker scan only when >=4 CPUs are present, because stripe
# parallelism cannot speed up a single core.
cpus=$(nproc 2>/dev/null || echo 1)
go test -run '^$' -bench '^BenchmarkQueryAggregate$' -benchtime 0.3s . > bench9.out
awk -v cpus="$cpus" '
    /^BenchmarkQueryAggregate\// {
        split($1, name, "/")
        mode = name[2]
        sz = name[3]; sub(/^n/, "", sz); sub(/-[0-9]+$/, "", sz); sz += 0
        for (i = 2; i <= NF; i++) if ($i == "points/s") pps[mode "," sz] = $(i - 1) + 0
    }
    END {
        printf "{\n  \"benchmark\": \"BenchmarkQueryAggregate\",\n  \"cpus\": %d,\n  \"rows\": [\n", cpus
        n = 0
        split("raw w1 w4 w16", modes, " ")
        split("10000 1000000", sizes, " ")
        for (si = 1; si <= 2; si++) for (mi = 1; mi <= 4; mi++) {
            if (n++) printf ",\n"
            printf "    {\"mode\": \"%s\", \"points\": %d, \"points_per_sec\": %.0f}", \
                modes[mi], sizes[si], pps[modes[mi] "," sizes[si]]
        }
        raw = pps["raw,1000000"]; w1 = pps["w1,1000000"]; w16 = pps["w16,1000000"]
        printf "\n  ],\n  \"raw_baseline_n1e6_points_per_sec\": %.0f,\n", raw
        printf "  \"w1_n1e6_points_per_sec\": %.0f,\n", w1
        printf "  \"w16_n1e6_points_per_sec\": %.0f,\n", w16
        printf "  \"speedup_w16_vs_raw\": %.2f,\n", w16 / raw
        printf "  \"speedup_w16_vs_w1\": %.2f\n}\n", w16 / w1
        if (raw <= 0 || w16 < 2 * raw) exit 1
        if (cpus >= 4 && w16 < 2 * w1) exit 1
    }
' bench9.out > BENCH_9.json || {
    echo "query bench gate: engine w16/n1e6 did not clear its baselines (2x raw always; 2x w1 with >=4 CPUs):" >&2
    cat bench9.out >&2
    exit 1
}
rm -f bench9.out
echo "query bench: $(grep -E 'speedup|cpus' BENCH_9.json | tr -d ' ,')"

# Perf record: measure the columnar storage engine against the row
# store it replaces, recording both axes in BENCH_10.json. Footprint:
# resident bytes/point of []Point rows vs the sealed-block DB at 1e4
# and 1e6 points. Scan: a faithful replica of the pre-columnar
# per-row map fold (rowscan) vs the block-aware engine at 1 worker
# (engine) vs the footer-only fast path (footer), same query, same
# windows. Gates at 1e6: columnar must hold >=4x less memory per
# point, and the 1-worker engine scan must hold >=2x the row-store
# fold throughput — both within-run ratios, so machine-independent.
go test -run '^$' -bench '^(BenchmarkStorageFootprint|BenchmarkBlockScan)$' -benchtime 1x . > bench10.out
awk '
    /^BenchmarkStorageFootprint\// {
        split($1, name, "/")
        mode = name[2]
        sz = name[3]; sub(/^n/, "", sz); sub(/-[0-9]+$/, "", sz); sz += 0
        for (i = 2; i <= NF; i++) if ($i == "bytes/point") bpp[mode "," sz] = $(i - 1) + 0
    }
    /^BenchmarkBlockScan\// {
        split($1, name, "/")
        mode = name[2]
        sz = name[3]; sub(/^n/, "", sz); sub(/-[0-9]+$/, "", sz); sz += 0
        for (i = 2; i <= NF; i++) if ($i == "points/s") pps[mode "," sz] = $(i - 1) + 0
    }
    END {
        printf "{\n  \"benchmark\": \"BenchmarkStorageFootprint+BenchmarkBlockScan\",\n  \"footprint\": [\n"
        n = 0
        split("rowstore columnar", fmodes, " ")
        split("10000 1000000", sizes, " ")
        for (mi = 1; mi <= 2; mi++) {
            if (n++) printf ",\n"
            printf "    {\"mode\": \"%s\", \"points\": 1000000, \"bytes_per_point\": %.2f}", \
                fmodes[mi], bpp[fmodes[mi] ",1000000"]
        }
        printf "\n  ],\n  \"scan\": [\n"
        n = 0
        split("rowscan engine footer", smodes, " ")
        for (si = 1; si <= 2; si++) for (mi = 1; mi <= 3; mi++) {
            if (n++) printf ",\n"
            printf "    {\"mode\": \"%s\", \"points\": %d, \"points_per_sec\": %.0f}", \
                smodes[mi], sizes[si], pps[smodes[mi] "," sizes[si]]
        }
        rowb = bpp["rowstore,1000000"]; colb = bpp["columnar,1000000"]
        raws = pps["rowscan,1000000"]; eng = pps["engine,1000000"]; foot = pps["footer,1000000"]
        printf "\n  ],\n  \"rowstore_bytes_per_point_n1e6\": %.2f,\n", rowb
        printf "  \"columnar_bytes_per_point_n1e6\": %.2f,\n", colb
        printf "  \"footprint_ratio_n1e6\": %.2f,\n", rowb / colb
        printf "  \"rowscan_n1e6_points_per_sec\": %.0f,\n", raws
        printf "  \"engine_n1e6_points_per_sec\": %.0f,\n", eng
        printf "  \"footer_n1e6_points_per_sec\": %.0f,\n", foot
        printf "  \"speedup_engine_vs_rowscan_n1e6\": %.2f\n}\n", eng / raws
        if (colb <= 0 || rowb < 4 * colb) exit 1
        if (raws <= 0 || eng < 2 * raws) exit 1
    }
' bench10.out > BENCH_10.json || {
    echo "storage bench gate: columnar did not hold 4x footprint and 2x scan vs the row store at 1e6:" >&2
    cat bench10.out >&2
    exit 1
}
rm -f bench10.out
echo "storage bench: $(grep -E 'ratio|speedup' BENCH_10.json | tr -d ' ,')"

# API gate: the daemon's public surface is context-first. Any NEW exported
# method on *Daemon must take `ctx context.Context` as its first parameter.
# Grandfathered exceptions: the deprecated positional wrappers kept for
# compatibility, and accessors/configuration that perform no cancellable
# work. Extend the allowlist only when adding another pure accessor.
# Close is shutdown-path: it must run unconditionally even when every
# request context is already dead, so it is deliberately context-free.
wrappers='Probe|Monitor|Observe|ObserveGPUKernel|LiveCARM|Scan|RunSTREAM|RunHPCG|ConstructCARM'
accessors='AttachTarget|Target|Hosts|KB|SetTelemetrySink|SelfSnapshot|SelfSpans|MetaDashboard|ExposeAddr|Close'
violations=$(grep -h 'func (d \*Daemon) [A-Z]' internal/core/*.go \
    | grep -v 'ctx context\.Context' \
    | grep -Ev "func \(d \*Daemon\) ($wrappers|$accessors)\(" || true)
if [ -n "$violations" ]; then
    echo "context-first API gate: exported Daemon methods must take 'ctx context.Context' first:" >&2
    echo "$violations" >&2
    exit 1
fi

# Same rule for the trace-export surface: any exported traceexport
# function that writes through a Sink performs I/O and must be
# cancellable, i.e. take `ctx context.Context` first. Pure assembly /
# rendering helpers (Assemble, Attribute, Waterfall, ChromeTrace) are
# exempt because they never leave the process.
trace_violations=$(grep -h '^func [A-Z].*Sink' internal/introspect/traceexport/*.go \
    | grep -v 'ctx context\.Context' || true)
if [ -n "$trace_violations" ]; then
    echo "context-first API gate: exported traceexport funcs taking a Sink must take 'ctx context.Context' first:" >&2
    echo "$trace_violations" >&2
    exit 1
fi

# Same rule for the wire clients: every exported method on the tsdb /
# docdb clients and the superdb remote that crosses the wire must have a
# context-first form. The context-free names below are grandfathered
# deprecated wrappers on the tsdb/docdb clients (one-line delegates to
# the Context twin); the superdb remote has none left. Pure accessors
# and the shutdown path are exempt. A NEW context-free wire method
# fails here — add the ...Context form instead.
client_wrappers='Write|WritePoint|Query|Ping|Insert|Upsert|Find|Get|Count'
client_accessors='Stats|Transport|Close|SetIntrospection|SetLogger'
client_violations=$(grep -h 'func (c \*Client) [A-Z]\|func (r \*Remote) [A-Z]' \
    internal/tsdb/*.go internal/docdb/*.go internal/superdb/*.go \
    | grep -v 'ctx context\.Context' \
    | grep -Ev "\) ($client_wrappers|$client_accessors)\(" || true)
if [ -n "$client_violations" ]; then
    echo "context-first API gate: exported wire-client methods must take 'ctx context.Context' first:" >&2
    echo "$client_violations" >&2
    exit 1
fi

# Same rule for the embedded DB's query entry points: a NEW exported
# Execute*/Query*/Write* method on tsdb.DB is cancellable work (the
# aggregation engine checks ctx between stripes) and must take ctx
# first. Execute, QueryString and WritePoint are the grandfathered
# context-free wrappers.
db_wrappers='Execute|QueryString|WritePoint'
db_violations=$(grep -hE 'func \(db \*DB\) (Execute|Query|Write)[A-Za-z]*\(' internal/tsdb/*.go \
    | grep -v 'ctx context\.Context' \
    | grep -Ev "\) ($db_wrappers)\(" || true)
if [ -n "$db_violations" ]; then
    echo "context-first API gate: exported tsdb.DB query/write methods must take 'ctx context.Context' first:" >&2
    echo "$db_violations" >&2
    exit 1
fi

# Estimator gate: superdb summaries come from the tsdb aggregate engine
# (one percentile estimator repo-wide). Non-test superdb code that sorts
# raw values or defines its own quantile is the client-side fold
# growing back.
fold_violations=$(find internal/superdb -name '*.go' ! -name '*_test.go' \
    -exec grep -nE 'sort\.Float64s\(|func quantile' {} + || true)
if [ -n "$fold_violations" ]; then
    echo "estimator gate: superdb must summarise through the tsdb engine, not a client-side fold:" >&2
    echo "$fold_violations" >&2
    exit 1
fi

# Skeleton gate: the tsdb and docdb wire servers are protocol handlers
# on internal/lineserver, which owns listening, accepting and the
# per-connection scanner. Non-test code in those packages that listens,
# accepts or scans a raw connection is the duplicated skeleton growing
# back.
skeleton_violations=$(find internal/tsdb internal/docdb -name '*.go' ! -name '*_test.go' \
    -exec grep -nE 'net\.Listen\(|\.Accept\(\)|bufio\.NewScanner\(conn\)' {} + || true)
if [ -n "$skeleton_violations" ]; then
    echo "server skeleton gate: tsdb/docdb servers must run on internal/lineserver:" >&2
    echo "$skeleton_violations" >&2
    exit 1
fi

# Expose smoke: a daemon serves the live observability plane for real
# scrapers — /healthz answers and /metrics covers the runtime gauges.
# The monitor prints the bound address after its (virtual-time) run and
# -hold keeps the plane up for the scrape window.
go build -o pmove.ci ./cmd/pmove
./pmove.ci monitor -host icl -freq 2 -duration 2 -expose 127.0.0.1:0 -hold 60s > expose_smoke.out 2>&1 &
expose_pid=$!
trap 'kill "$expose_pid" 2>/dev/null || true; rm -f pmove.ci expose_smoke.out' EXIT
expose_addr=""
for _ in $(seq 1 100); do
    expose_addr=$(sed -n 's#^observability plane: http://\([^/]*\)/metrics$#\1#p' expose_smoke.out)
    [ -n "$expose_addr" ] && break
    sleep 0.2
done
if [ -z "$expose_addr" ]; then
    echo "expose smoke: daemon never announced its observability plane:" >&2
    cat expose_smoke.out >&2
    exit 1
fi
curl -fsS "http://$expose_addr/healthz" | grep -q '^ok$' || {
    echo "expose smoke: /healthz did not answer ok" >&2
    exit 1
}
curl -fsS "http://$expose_addr/metrics" | grep -q '^pmove_self_runtime_goroutines' || {
    echo "expose smoke: /metrics lacks pmove_self_runtime_goroutines" >&2
    exit 1
}
kill "$expose_pid" 2>/dev/null || true
echo "expose smoke: /healthz + /metrics served on $expose_addr"

echo "ci: all green"
