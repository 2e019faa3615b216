#!/usr/bin/env bash
# Byte-identity check of two built checkouts over one run matrix, for a
# change that claims to keep every message, timer, byte and guard.
#
#   tools/same_bytes.sh OLD NEW {store|lossy|synth}
#
# OLD and NEW are source checkouts already built with `dune build`
# (OLD is the baseline, e.g. a parent commit extracted with
# `git archive`).  Every run uses NEW's specs/ and runs sequentially.
# For each wfsim run it compares the exit status, stdout without the
# `wrote ...` lines (they name the output paths), the `--trace` JSONL
# and the `--metrics-json` file; `synth` also compares
# `wfc SPEC --automata --paths` on every spec.
#
#   store  the journal formats: store-backed runs under crashes and torn,
#          lost-tail, bit-flip and corrupt-checkpoint store faults
#   lossy  the channel and flow control: every spec, seeds 1 5 9, both
#          schedulers, eight fault mixes (give-ups, dead letters, credit
#          stalls, mailbox refusals, shedding under central admission)
#   synth  guard synthesis: wfc on every spec, travel under both schedulers
#
# Prints one `DIFF <run> <file>` line per difference and a summary, and
# exits 0 when everything matched, 1 on any difference, and 2 on a usage
# error or when a run exits 124 (a command-line error, such as a
# misspelled flag, which would make both sides print the same thing).
set -uo pipefail
usage() {
  echo "usage: $0 OLD NEW {store|lossy|synth}" >&2
  exit 2
}
[ $# -eq 3 ] || usage
old="$(cd "$1" && pwd)" && new="$(cd "$2" && pwd)" || usage
matrix=$3
case $matrix in store | lossy | synth) ;; *) usage ;; esac
for dir in "$old" "$new"; do
  for exe in wfsim wfc; do
    if [ ! -x "$dir/_build/default/bin/$exe.exe" ]; then
      echo "$dir: bin/$exe.exe is not built (run dune build there)" >&2
      exit 2
    fi
  done
done
cd "$new" || exit 2
o="$(mktemp -d)"
trap 'rm -rf "$o"' EXIT
runs=0 diffs=0

compare() {
  local what=$1 f
  shift
  for f in "$@"; do
    if [ -e "$o/old.$f" ] || [ -e "$o/new.$f" ]; then
      if ! cmp -s "$o/old.$f" "$o/new.$f"; then
        echo "DIFF $what $f"
        diffs=$((diffs + 1))
      fi
    fi
  done
}

# One wfsim configuration on both sides.
sim() {
  local side dir status
  for side in old new; do
    dir=${!side}
    rm -f "$o/$side".*
    "$dir/_build/default/bin/wfsim.exe" "$@" -v \
      --trace "$o/$side.jsonl" --metrics-json "$o/$side.json" > "$o/$side.raw"
    status=$?
    if [ "$status" -eq 124 ]; then
      echo "command-line error (exit 124) in $side: wfsim $*" >&2
      exit 2
    fi
    { grep -v '^wrote' "$o/$side.raw"; echo "exit $status"; } > "$o/$side.out"
  done
  runs=$((runs + 1))
  compare "$*" out jsonl json
}

# wfc's synthesized automata and paths for one spec on both sides.
wfc() {
  local side dir status
  for side in old new; do
    dir=${!side}
    rm -f "$o/$side".*
    "$dir/_build/default/bin/wfc.exe" "$1" --automata --paths > "$o/$side.wfc"
    status=$?
    if [ "$status" -eq 124 ]; then
      echo "command-line error (exit 124) in $side: wfc $1" >&2
      exit 2
    fi
    echo "exit $status" >> "$o/$side.wfc"
  done
  runs=$((runs + 1))
  compare "wfc $1" wfc
}

case $matrix in
  store)
    for spec in travel mc_pair mc_trigger mc_indep mutex; do
      for seed in 1 2 3 4 5; do
        for mix in "--store-torn 0.5 --store-lost-tail 0.4" \
          "--store-bit-flip 0.4 --store-ckpt-corrupt 0.5"; do
          for s in distributed central; do
            # shellcheck disable=SC2086
            sim "specs/$spec.wf" --seed $seed --store --crash-prob 0.25 \
              --checkpoint-every 4 $mix -s $s
          done
        done
      done
    done
    ;;
  lossy)
    for spec in specs/*.wf; do
      for seed in 1 5 9; do
        for s in distributed central; do
          for mix in "" "--reorder-rate 0.2" \
            "--drop-rate 0.1 --duplicate-rate 0.05" \
            "--crash-prob 0.05 --crash-on-send 0.02 --restart-delay 2 --store --store-torn 0.5 --store-lost-tail 0.5 --credit-window 4" \
            "--crash-prob 0.2 --crash-on-send 0.05 --restart-delay 2 --drop-rate 0.25 --duplicate-rate 0.1 --credit-window 2 --mailbox-cap 3" \
            "--crash-prob 0.3 --restart-delay 3000 --max-crashes 2 --credit-window 2 --drop-rate 0.2" \
            "--arrival burst --mailbox-cap 2 --credit-window 1 --shed-watermark 1 --drop-rate 0.3" \
            "--arrival burst --think 0.01 --mailbox-cap 1 --credit-window 1 --shed-watermark 1 --drop-rate 0.1 --crash-prob 0.1 --latency 3"; do
            # shellcheck disable=SC2086
            sim "$spec" --seed $seed $mix -s $s
          done
        done
      done
    done
    ;;
  synth)
    for spec in specs/*.wf; do wfc "$spec"; done
    for s in distributed central; do
      for seed in 1 3; do sim specs/travel.wf --seed $seed -s $s; done
    done
    ;;
esac
echo "$matrix: $runs runs, $diffs differences"
[ "$diffs" -eq 0 ]
