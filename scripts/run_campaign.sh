#!/usr/bin/env bash
# Run a simulation campaign: a set of bench binaries. The one that
# fans its independent simulations across -j worker threads through
# the campaign runner (sim/campaign.hh) is bench_fig11_speedup; the
# others run theirs inline whatever -j says. Telemetry from every
# bench is appended to one JSON file, shard merge order fixed by job
# id, so the output is byte-stable for a given (build, seed set, -j).
#
# usage: scripts/run_campaign.sh [-j N] [-o out.json] [-q] [-B dir]
#        [-p status.json | --progress] [bench...]
#
#   -j N      worker threads for bench_fig11_speedup, the bench that
#             fans out (0 = all host cores; default: $SPECRT_JOBS if
#             set, else all host cores); the others ignore it
#   -o PATH   telemetry output (default: campaign_results.json)
#   -q        pass --quick to every bench (CI-smoke sizes)
#   -B DIR    build directory (default: build)
#   -p PATH   stream bench_fig11_speedup's live progress snapshots to
#             PATH (no other bench writes them); watch them with
#             scripts/specrt_top.py PATH
#   --progress  shorthand for -p campaign_status.json
#   bench...  bench names without the bench_ prefix (default: all
#             except micro_host, which is a google-benchmark CLI)
#
# Exits non-zero if any bench fails; the rest still run so one bad
# configuration doesn't hide the others' results.

set -u

jobs="${SPECRT_JOBS:-0}"
out="campaign_results.json"
quick=""
builddir="build"
progress=""

# getopts knows no long options: map --progress to -p <default path>.
mapped=()
for arg in "$@"; do
    if [ "$arg" = "--progress" ]; then
        mapped+=("-p" "campaign_status.json")
    else
        mapped+=("$arg")
    fi
done
set -- ${mapped[@]+"${mapped[@]}"}

while getopts "j:o:qB:p:h" opt; do
    case "$opt" in
        j) jobs="$OPTARG" ;;
        o) out="$OPTARG" ;;
        q) quick="--quick" ;;
        B) builddir="$OPTARG" ;;
        p) progress="$OPTARG" ;;
        h|*) sed -n '2,25p' "$0"; exit 0 ;;
    esac
done
shift $((OPTIND - 1))

benchdir="$builddir/bench"
if [ ! -d "$benchdir" ]; then
    echo "error: $benchdir not found (build first, or pass -B)" >&2
    exit 2
fi

benches=()
if [ "$#" -gt 0 ]; then
    for name in "$@"; do
        benches+=("$benchdir/bench_$name")
    done
else
    for b in "$benchdir"/bench_*; do
        case "$b" in
            *bench_micro_host) continue ;;
        esac
        benches+=("$b")
    done
fi

rm -f "$out"
if [ -n "$progress" ]; then
    rm -f "$progress"
    echo "live progress: $progress (scripts/specrt_top.py $progress)"
fi
rc=0
for b in "${benches[@]}"; do
    if [ ! -x "$b" ]; then
        echo "error: $b not found or not executable" >&2
        rc=1
        continue
    fi
    echo "=== $(basename "$b") (--jobs $jobs) ==="
    if [ -n "$progress" ]; then
        "$b" $quick --jobs "$jobs" --out "$out" \
            --status-out "$progress" || rc=1
    else
        "$b" $quick --jobs "$jobs" --out "$out" || rc=1
    fi
done

echo
echo "campaign telemetry: $out"
exit "$rc"
