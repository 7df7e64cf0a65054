#!/usr/bin/env bash
# Golden-checksum gate: every published invocation must reproduce its pinned
# checksums at every thread count.
#
# Reads bench/golden.txt (format documented there).  For each row and each
# thread count it runs `$BUILD/bench/<bench> <args...> --threads=N`, collects
# the ordered `checksum: 0x...` lines from stdout followed by the "checksum"
# field of every --json-out file, and compares that list with the row's
# expected values.  Every other `{OUT}` file (the chaos series and timeline)
# must also be byte-identical across thread counts; --json-out files are
# exempt because they record the thread count itself.  A pinned or observed
# value equal to the FNV-1a offset basis is rejected: it is the checksum of
# an empty stream, so the bench fed nothing into it and the row pins nothing.
#
# Usage: golden_gate.sh [LABEL...]   check the named rows (default: all)
#        golden_gate.sh --self-test  rerun the fig7 row with a perturbed --seed:
#                                    it must run cleanly, print checksums, and
#                                    be rejected by the comparison; and a
#                                    mismatched {OUT} file pair must fail the
#                                    byte compare; and an empty-stream checksum,
#                                    pinned or observed, must be rejected
# Env:   BUILD     build directory holding bench/ (default: build)
#        MANIFEST  manifest path (default: bench/golden.txt)
set -euo pipefail

build=${BUILD:-build}
manifest=${MANIFEST:-bench/golden.txt}
threads="1 4"
empty_basis=0xcbf29ce484222325  # Fnv1aChecksum of no values
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

trim() { local s=$1; s=${s#"${s%%[![:space:]]*}"}; echo "${s%"${s##*[![:space:]]}"}"; }

# Prints "<label>|<command>|<expected>" for each manifest row.
rows() {
  local label cmd expected
  while IFS='|' read -r label cmd expected; do
    label=$(trim "$label")
    case "$label" in "" | "#"*) continue ;; esac
    echo "$label|$(trim "$cmd")|$(trim "$expected")"
  done < "$manifest"
}

# run_row <label> <command> <threads> [extra args...]: runs the row once and
# prints its ordered checksums on one line; non-zero if the bench failed.
run_row() {
  local label=$1 cmd=$2 n=$3
  shift 3
  local words arg got
  read -ra words <<< "$cmd"
  local out="$scratch/$label.t$n"
  mkdir -p "$out"
  local args=()
  for arg in "${words[@]:1}" "$@"; do args+=("${arg//\{OUT\}/$out}"); done
  if ! "$build/bench/${words[0]}" "${args[@]}" "--threads=$n" < /dev/null > "$out/stdout" 2> "$out/stderr"; then
    echo "FAIL $label --threads=$n: exited non-zero; stderr tail:" >&2
    tail -n 5 "$out/stderr" >&2
    return 1
  fi
  got=$(grep -o 'checksum: 0x[0-9a-f]*' "$out/stdout" | sed 's/^checksum: //' || true)
  for arg in "${args[@]}"; do
    case "$arg" in
      --json-out=*)
        got+=$'\n'$(grep -o '"checksum": "0x[0-9a-f]*"' "${arg#--json-out=}" \
                    | grep -o '0x[0-9a-f]*' || true) ;;
    esac
  done
  echo $got  # one line, single spaces
}

# compare_outputs <label> <command>: 0 iff every non --json-out {OUT} file
# of the first thread count's run is byte-identical to every other run's.
compare_outputs() {
  local label=$1 cmd=$2
  local words word path n status=0
  local first=${threads%% *}
  read -ra words <<< "$cmd"
  for word in "${words[@]:1}"; do
    case "$word" in
      --json-out=*) ;;
      *"{OUT}"*)
        path=${word#*=}
        for n in $threads; do
          [ "$n" = "$first" ] && continue
          if cmp -s "${path//\{OUT\}/$scratch/$label.t$first}" \
                    "${path//\{OUT\}/$scratch/$label.t$n}"; then
            echo "ok   $label ${path##*/}: byte-identical at --threads=$first and $n"
          else
            echo "FAIL $label ${path##*/}: differs between --threads=$first and $n"
            status=1
          fi
        done ;;
    esac
  done
  return $status
}

# is_empty_checksum <values>: 0 iff the space-separated <values> hold the
# empty-stream basis.
is_empty_checksum() {
  case " $1 " in *" $empty_basis "*) return 0 ;; esac
  return 1
}

# check_row <label> <command> <expected>: 0 iff every thread count
# reproduces <expected> and the same {OUT} files, and no value is the
# empty-stream basis.
check_row() {
  local label=$1 cmd=$2 expected=$3
  local n got status=0
  if is_empty_checksum "$expected"; then
    echo "FAIL $label: pins $empty_basis, the checksum of an empty stream"
    return 1
  fi
  for n in $threads; do
    if ! got=$(run_row "$label" "$cmd" "$n"); then
      status=1
    elif is_empty_checksum "$got"; then
      echo "FAIL $label --threads=$n: printed $empty_basis, the checksum of an empty stream"
      status=1
    elif [ "$got" = "$expected" ]; then
      echo "ok   $label --threads=$n: $got"
    else
      echo "FAIL $label --threads=$n"
      echo "     expected: $expected"
      echo "     got:      ${got:-<none>}"
      status=1
    fi
  done
  compare_outputs "$label" "$cmd" || status=1
  return $status
}

if [ "${1:-}" = "--self-test" ]; then
  line=$(rows | grep "^fig7|" || true)
  if [ -z "$line" ]; then
    echo "::error::self-test row fig7 is not in $manifest"
    exit 1
  fi
  IFS='|' read -r label cmd expected <<< "$line"
  # A seed no published row uses.  The run itself must succeed and print
  # checksums, so only a moved value can make the comparison reject it.
  if ! got=$(run_row "$label" "$cmd" 1 --seed=987654321); then
    echo "::error::golden gate self-test: the perturbed fig7 run failed"
    exit 1
  fi
  if [ -z "$got" ]; then
    echo "::error::golden gate self-test: the perturbed fig7 run printed no checksum"
    exit 1
  fi
  if [ "$got" = "$expected" ]; then
    echo "::error::golden gate self-test: a perturbed --seed still matched fig7's golden values"
    exit 1
  fi
  echo "OK: golden gate self-test (perturbed --seed on fig7 gave $got, rejected against $expected)"
  # The file compare: an identical {OUT} pair passes, a mismatched one fails.
  cmd="self_test --series-out={OUT}/series.csv"
  for n in $threads; do
    mkdir -p "$scratch/self_test.t$n"
    echo "0,0,1000,2.5" > "$scratch/self_test.t$n/series.csv"
  done
  if ! compare_outputs self_test "$cmd" > /dev/null; then
    echo "::error::golden gate self-test: an identical {OUT} file pair was rejected"
    exit 1
  fi
  echo "0,0,1000,9.5" > "$scratch/self_test.t${threads##* }/series.csv"
  if compare_outputs self_test "$cmd" > /dev/null; then
    echo "::error::golden gate self-test: a mismatched {OUT} file pair still passed"
    exit 1
  fi
  echo "OK: golden gate self-test (a mismatched {OUT} file pair was rejected)"
  # The empty-stream checks: a row pinning the basis fails before anything
  # runs, and a bench that prints it fails by name, not only as a mismatch.
  if out=$(check_row self_test empty_bench "$empty_basis"); then
    echo "::error::golden gate self-test: a row pinning $empty_basis was accepted"
    exit 1
  fi
  echo "$out" | grep -q "empty stream" || {
    echo "::error::golden gate self-test: a pinned $empty_basis was not named as empty"
    exit 1
  }
  mkdir -p "$scratch/empty_build/bench"
  printf '#!/bin/sh\necho "checksum: 0x0000000000000001"\necho "checksum: %s"\n' \
    "$empty_basis" > "$scratch/empty_build/bench/empty_bench"
  chmod +x "$scratch/empty_build/bench/empty_bench"
  if out=$(build="$scratch/empty_build" check_row self_test empty_bench \
             "0x0000000000000001 0x0000000000000002" 2>&1); then
    echo "::error::golden gate self-test: an observed $empty_basis was accepted"
    exit 1
  fi
  echo "$out" | grep -q "printed $empty_basis" || {
    echo "::error::golden gate self-test: an observed $empty_basis was not named as empty"
    exit 1
  }
  echo "OK: golden gate self-test (an empty-stream checksum, pinned or observed, was rejected)"
  exit 0
fi

failed=()
checked=0
while IFS='|' read -r label cmd expected; do
  if [ "$#" -gt 0 ]; then
    case " $* " in *" $label "*) ;; *) continue ;; esac
  fi
  checked=$((checked + 1))
  check_row "$label" "$cmd" "$expected" || failed+=("$label")
done < <(rows)

if [ "$checked" -eq 0 ]; then
  echo "::error::no manifest rows selected"
  exit 1
fi
if [ "${#failed[@]}" -gt 0 ]; then
  echo "::error::golden checksums moved for: ${failed[*]} (update $manifest with a reason, or fix the regression)"
  exit 1
fi
echo "OK: $checked golden row(s) reproduce at --threads in {$threads}"
