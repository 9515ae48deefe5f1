#!/usr/bin/env bash
# Lists every non-test func under internal/ that no binary links.
#
# Builds each main in ./cmd/..., ./examples/... and bench with inlining
# off (-gcflags=all=-l, so an inlined call cannot hide its callee), reads
# the linked text symbols with `go tool nm`, and prints `file:line symbol`
# for each func declared in a non-test file of the default build that
# none of the binaries contains. Generic instantiation suffixes ([...])
# are stripped, and a value method counts as linked when its pointer
# wrapper is.
#
# Exits 1 if any printed function is not in the allowlist below.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# symbol<TAB>reason: functions no binary links that stay on purpose.
allow=$(cat <<'EOF'
repro/internal/serving.NewShadowEvaluator	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.(*ShadowEvaluator).Name	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.(*ShadowEvaluator).OnEvent	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.(*ShadowEvaluator).QueryCompleted	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.(*ShadowEvaluator).Report	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.decisionsEqual	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.SimScore	shadow gate kept for a future learning loop over served traffic
repro/internal/serving.ShadowRun	shadow gate kept for a future learning loop over served traffic
repro/internal/heuristics.SJF.Name	baseline for the known-optimum test of the learned scheduler
repro/internal/heuristics.SJF.OnEvent	baseline for the known-optimum test of the learned scheduler
repro/internal/frontdoor.BackendFunc.Run	stub-backend adapter the frontdoor, ingress and cluster tests use
repro/internal/rpcsched.(*Server).Close	test teardown
repro/internal/obs.(*Server).Handler	test seam for httptest
repro/internal/engine.NewQueryState	fixture BenchmarkAgentOnEvent builds
EOF
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/bin"
mapfile -t mains < <(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
go build -gcflags=all=-l -o "$tmp/bin/" "${mains[@]}"
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench-module" .)

# Linked text symbols, generic suffixes stripped; a pointer wrapper
# pkg.(*T).M also marks the value method pkg.T.M.
for b in "$tmp"/bin/*; do
  go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
  sed -E ':a; s/\[[^][]*\]//g; ta' |
  awk '{ print } match($0, /\.\(\*[A-Za-z0-9_]+\)\./) {
         print substr($0, 1, RSTART) substr($0, RSTART + 3, RLENGTH - 5) substr($0, RSTART + RLENGTH - 1)
       }' |
  sort -u >"$tmp/linked"

# Declared funcs: file:line<TAB>symbol for each non-test file in the
# default build of every internal package.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}' ./internal/... |
  while read -r pkg file; do
    [ -n "$pkg" ] || continue
    rel=${file#"$PWD/"}
    { grep -nE '^func ' "$file" || true; } | sed -E \
      -e 's/^([0-9]+):func \(([A-Za-z0-9_]+ +)?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) *([A-Za-z0-9_]+).*/\1\t(*\3).\5/' \
      -e 's/^([0-9]+):func \(([A-Za-z0-9_]+ +)?([A-Za-z0-9_]+)(\[[^]]*\])?\) *([A-Za-z0-9_]+).*/\1\t\3.\5/' \
      -e 's/^([0-9]+):func ([A-Za-z0-9_]+).*/\1\t\2/' |
      awk -F'\t' -v pkg="$pkg" -v rel="$rel" '$2 != "init" { print rel ":" $1 "\t" pkg "." $2 }'
  done >"$tmp/declared"

awk -F'\t' 'NR == FNR { linked[$1] = 1; next } !($2 in linked)' "$tmp/linked" "$tmp/declared" >"$tmp/unreached"
awk -F'\t' '{ print $1 " " $2 }' "$tmp/unreached"

printf '%s\n' "$allow" | cut -f1 | sort -u >"$tmp/allow"
extra=$(cut -f2 "$tmp/unreached" | sort -u | comm -23 - "$tmp/allow")
if [ -n "$extra" ]; then
  echo "unreached: functions no binary links, outside the allowlist in scripts/unreached.sh:" >&2
  echo "$extra" >&2
  exit 1
fi
