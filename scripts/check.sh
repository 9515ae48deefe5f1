#!/usr/bin/env bash
# CI gate: static checks, build, full test suite, the race-detector
# pass over the concurrent packages (the live engine executes dispatch
# rounds on real goroutines; the metrics registry is updated from
# worker goroutines), a short fuzz of each fuzz target, and a gate
# against functions no binary links (scripts/unreached.sh). Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== unreached (functions no binary in cmd/, examples/ or bench links, outside the allowlist)"
scripts/unreached.sh

echo "== go test -race ./internal/engine/ ./internal/exec/ ./internal/metrics/ ./internal/obs/ ./internal/policystore/ ./internal/serving/ ./internal/rpcsched/ ./internal/frontdoor/ ./internal/ingress/ ./internal/provenance/ ./internal/cluster/"
go test -race ./internal/engine/ ./internal/exec/ ./internal/metrics/ ./internal/obs/ \
  ./internal/policystore/ ./internal/serving/ ./internal/rpcsched/ ./internal/frontdoor/ \
  ./internal/ingress/ ./internal/provenance/ ./internal/cluster/

echo "== go test -race -run TestTrainRollouts ./internal/lsched/"
go test -race -run TestTrainRollouts ./internal/lsched/

echo "== fuzz smoke (10s per target; minimisation capped at 1s so the budget goes to fuzzing)"
go test -run='^$' -fuzz=FuzzDecodeRequest -fuzztime=10s -fuzzminimizetime=1s ./internal/frontdoor/
go test -run='^$' -fuzz=FuzzLiveKernels -fuzztime=10s -fuzzminimizetime=1s ./internal/engine/
go test -run='^$' -fuzz=FuzzReadAll -fuzztime=10s -fuzzminimizetime=1s ./internal/provenance/
go test -run='^$' -fuzz=FuzzStoreGet -fuzztime=10s -fuzzminimizetime=1s ./internal/policystore/

echo "== cluster smoke (2 real nodes + coordinator over TCP, 200 queries, zero lost, coordinator obs endpoints)"
smokedir=$(mktemp -d)
cleanup_cluster() {
  kill "${node0_pid:-}" "${node1_pid:-}" "${coord_pid:-}" 2>/dev/null || true
  rm -rf "$smokedir"
}
trap cleanup_cluster EXIT
go build -o "$smokedir" ./cmd/lsched-node ./cmd/lsched-cluster ./cmd/lsched-loadgen
"$smokedir/lsched-node" -listen 127.0.0.1:17471 -id smoke-0 -sf 0.02 >"$smokedir/node0.log" 2>&1 &
node0_pid=$!
"$smokedir/lsched-node" -listen 127.0.0.1:17472 -id smoke-1 -sf 0.02 >"$smokedir/node1.log" 2>&1 &
node1_pid=$!
"$smokedir/lsched-cluster" -nodes 127.0.0.1:17471,127.0.0.1:17472 \
  -listen 127.0.0.1:17480 -obs 127.0.0.1:17481 -heartbeat 200ms >"$smokedir/coord.log" 2>&1 &
coord_pid=$!
for _ in $(seq 1 100); do
  if (echo > /dev/tcp/127.0.0.1/17480) 2>/dev/null; then break; fi
  sleep 0.1
done
"$smokedir/lsched-loadgen" -target http://127.0.0.1:17480/query -n 200 -rate 400 -sf 0.02
# The coordinator's obs server: its registry carries the routing layer
# and no engine family (a coordinator has no engine), and the probes
# answer, including a /decisions?n= far past the recorder's ring.
obs=http://127.0.0.1:17481
curl -sf "$obs/metrics" >"$smokedir/metrics.prom"
if ! grep -q '^cluster_routed_total' "$smokedir/metrics.prom" || grep -qE '^(# TYPE )?engine_' "$smokedir/metrics.prom"; then
  echo "cluster smoke: coordinator /metrics lacks cluster_routed_total or exports an engine_ family" >&2
  cat "$smokedir/metrics.prom" >&2
  exit 1
fi
curl -sf -o /dev/null "$obs/healthz"
curl -sf -o /dev/null "$obs/decisions?n=1099511627776"
kill -TERM "$coord_pid"
wait "$coord_pid"
if ! grep -q "lost=0" "$smokedir/coord.log"; then
  echo "cluster smoke: coordinator lost queries" >&2
  cat "$smokedir/coord.log" >&2
  exit 1
fi
grep "cluster:" "$smokedir/coord.log"
# The coordinator's ingress is ingress.Serve, the same assembly
# lsched-frontdoor runs: its flight recorder must have seen every
# admission verdict and joined each to an outcome.
prov=$(sed -n 's/.*provenance: \([0-9]*\) decisions recorded, \([0-9]*\) joined.*/\1 \2/p' "$smokedir/coord.log")
read -r recorded joined <<<"$prov"
if [ "${recorded:-0}" -le 0 ] || [ "$recorded" != "${joined:-}" ]; then
  echo "cluster smoke: coordinator provenance recorded=${recorded:-none} joined=${joined:-none}, want equal and > 0" >&2
  cat "$smokedir/coord.log" >&2
  exit 1
fi
grep "provenance:" "$smokedir/coord.log"
kill "$node0_pid" "$node1_pid" 2>/dev/null || true
wait "$node0_pid" "$node1_pid" 2>/dev/null || true

echo "== bench module (vet + test: an API break against bench/ fails here, not in the benchmark run)"
(cd bench && go vet ./... && go test ./...)

echo "== non-test and _test.go Go lines outside bench/ (the counts simplicity PRs quote in CHANGES.md)"
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

echo "OK"
