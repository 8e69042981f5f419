#!/usr/bin/env bash
# Every command on the bundled fixture with warnings as errors, so a numpy
# RuntimeWarning fails here.  solve's report keeps its pinned bytes, also
# with table1's integer-valued agent fields written as JSON integers, and a
# record with an unknown key, a true or a string field exits 2 with its
# message; a sweep whose rows share values keeps its pinned bytes.  A market
# whose equilibrium, closed-loop fixed point or total generation overflows
# float64 is an input error (exit 2), as is a negative initial mu.  A run
# that overflows is a divergence (exit 3); an Euler run that diverges at a
# step past its stability bound says so and names the bound.  A verify check
# that cannot run at such a cap, or on such a fixed point, is a failed check
# (exit 1, no traceback), as is one whose closed loop overflows.  The
# 200-instance verify battery passes all 26 checks on seeds 0 to 4, keeps
# its pinned bytes on seed 0, and prints the same bytes under two string
# hash seeds; the 1- and 10 000-instance batteries and a 20-instance battery at
# table1's CE price pass all 26 too.
#
# Run from the repository root: PYTHONPATH=src bash tests/cli_smoke.sh
# Outputs go to $RUNNER_TEMP, or to a temporary directory removed on exit.
set -e
if [ -n "$RUNNER_TEMP" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi
cli="python3 -W error -m energyshare.cli"
$cli solve --config table1.json > "$tmp/solve.json"
test "$(sha256sum < "$tmp/solve.json" | cut -c1-64)" = \
  8d464945f5da1513d2ba54b5490252cd58fbc283f3134b60d3ce49aee6446d20
# Table1 with its integer-valued agent fields written as JSON integers: they
# take the field-by-field reading, and give the same report, byte for byte.
sed -e '/"q"/s/\.0\([,}]\)/\1/g' table1.json > "$tmp/integers.json"
grep -q '"c0": -50,' "$tmp/integers.json"
$cli solve --config "$tmp/integers.json" > "$tmp/integers.out"
cmp "$tmp/solve.json" "$tmp/integers.out"
# A record with an unknown key, a true field or a string field: exit 2 and
# the field-by-field reading's message.
for case in '{"q": 1.0, "c0": -1.0, "a": 1.0, "b": 2.0}|agents[0] has unknown key '"'b'" \
            '{"q": true, "c0": -1.0, "a": 1.0}|agents[0].q must be a number, got True' \
            '{"q": 1.0, "c0": "1.0", "a": 1.0}|agents[0].c0 must be a number, got '"'1.0'"; do
  echo "{\"agents\": [${case%%|*}], \"lambda_max\": 3.0}" > "$tmp/record.json"
  code=0
  $cli solve --config "$tmp/record.json" 2> "$tmp/record.err" || code=$?
  test "$code" -eq 2
  test "$(cat "$tmp/record.err")" = "error: ${case#*|}"
done
$cli simulate --config table1.json --out "$tmp/table1.csv"
$cli sweep --config table1.json --caps 2,4,6
# Both zeros and repeated caps on both sides of table1's CE price: rows that
# share values, each field still repr's text of its own bits.
$cli sweep --config table1.json --caps=-0.0,0.0,2,2,4,20,20 > "$tmp/sweep.csv"
test "$(sha256sum < "$tmp/sweep.csv" | cut -c1-64)" = \
  fd93363ec60d72e43538076b79c49759f66dcf3f7cade8f37b4d032a5032c4b5
# Every cap binding, then every cap idle (the first is table1's CE price):
# the closed form runs only at binding caps, and an idle row is the CE's.
$cli sweep --config table1.json --caps=-3,0.5,1,2,4,6,8 > "$tmp/sweep.csv"
test "$(sha256sum < "$tmp/sweep.csv" | cut -c1-64)" = \
  b8448e3cfd043dcff97a3370a1fac222c19cc93783731a7dc0eea6334b2510cb
$cli sweep --config table1.json --caps=8.256880733944953,9,12,100,1e300 > "$tmp/sweep.csv"
test "$(sha256sum < "$tmp/sweep.csv" | cut -c1-64)" = \
  b8fc0d3bf965975b2f37062e012650afcfc38388070e4b01aca300c587283d7c
# Every cap idle where the CE welfare is -inf: the idle rows' welfare loss
# is NaN, not 0.0, and the first row fails.
echo '{"agents": [{"q": 1e-100, "c0": -1e200, "a": 0.0}, {"q": 1.0, "c0": -1.0, "a": 1e200}],
 "lambda_max": 1.0}' > "$tmp/ce_welfare.json"
code=0
$cli sweep --config "$tmp/ce_welfare.json" --caps=1e300 2> "$tmp/sweep.err" || code=$?
test "$code" -eq 2
test "$(cat "$tmp/sweep.err")" = "error: sweep at lambda_max = 1e+300: welfare_loss_nominal = \
nan is not finite: the inputs exceed float64's range"
# Its closed loop overflows inside an rk4 step: the runs that do are failed
# checks, not numpy warnings.
code=0
$cli verify --config "$tmp/ce_welfare.json" --instances 3 2> "$tmp/verify.err" || code=$?
test "$code" -eq 1
if grep -q Traceback "$tmp/verify.err"; then cat "$tmp/verify.err"; exit 1; fi
# The benchmarked battery (table1.json's seed is 0) and four more seeds:
# exit 0 and all 26 checks passed on each seed's draws.
for s in 0 1 2 3 4; do
  $cli verify --config table1.json --instances 200 --seed "$s" > "$tmp/verify.out"
  test "$(grep -c '^\[PASS\]' "$tmp/verify.out")" -eq 26
  # Seed 0's lines keep their bytes: a change of path that moves a printed
  # digit shows here.
  if [ "$s" -eq 0 ]; then
    test "$(sha256sum < "$tmp/verify.out" | cut -c1-64)" = \
      db3fa598f663831342537d5aa08a9affc3214f90977565e0478ba0c0458cf041
  fi
done
# One instance gives each residual check a batch of one market; 10 000 give
# the oracle check a batch of about 1250 markets per agent count.
for n in 1 10000; do
  $cli verify --config table1.json --instances "$n" > "$tmp/verify.out"
  test "$(grep -c '^\[PASS\]' "$tmp/verify.out")" -eq 26
done
# At table1's CE price the closed loop's fixed point lies on both branches
# of mu, so the convergence check reads the spectrum of both.
$cli verify --config table1.json --lambda-max 8.256880733944953 --instances 20 > "$tmp/verify.out"
test "$(grep -c '^\[PASS\]' "$tmp/verify.out")" -eq 26
# verify writes the same bytes in every process, whatever the string hash seed.
PYTHONHASHSEED=1 $cli verify --config table1.json --instances 200 --seed 0 > "$tmp/verify.1"
PYTHONHASHSEED=2 $cli verify --config table1.json --instances 200 --seed 0 > "$tmp/verify.2"
cmp "$tmp/verify.1" "$tmp/verify.2"
overflow="$tmp/overflow.json"
echo '{"agents": [{"q": 1e-300, "c0": -1e300, "a": 1e300}], "lambda_max": 1.0}' > "$overflow"
code=0
$cli simulate --config "$overflow" --out "$tmp/overflow.csv" || code=$?
test "$code" -eq 2
code=0
$cli simulate --config table1.json --lambda-max=1e306 --out "$tmp/run_overflow.csv" || code=$?
test "$code" -eq 3
code=0
$cli simulate --config table1.json --method euler --h 0.5 --out "$tmp/euler.csv" \
  2> "$tmp/euler.err" || code=$?
test "$code" -eq 3
test "$(cat "$tmp/euler.err")" = "error: state diverged at t = 6.5 (non-finite or \
|state| > 1e+12); h = 0.5 exceeds the Euler stability bound 6.21e-05"
echo '{"agents": [{"q": 0.5, "c0": -1.0, "a": 1.0}], "lambda_max": 1e308}' > "$overflow"
code=0
$cli simulate --config "$overflow" --out "$tmp/overflow.csv" || code=$?
test "$code" -eq 2
# Two finite generations of table1 whose sum overflows.
sed -e 's/"a": 48.0/"a": 1e308/' -e 's/"a": 30.0/"a": 1e308/' table1.json > "$overflow"
code=0
$cli solve --config "$overflow" || code=$?
test "$code" -eq 2
# A negative initial mu, the last of the one-agent state's 8 entries.
echo '{"agents": [{"q": 1.0, "c0": -10.0, "a": 3.0}], "lambda_max": 5.0,
 "sim": {"init": [0, 0, 0, 0, 0, 0, 0, -1]}}' > "$tmp/negative_mu.json"
code=0
$cli simulate --config "$tmp/negative_mu.json" --out "$tmp/negative_mu.csv" || code=$?
test "$code" -eq 2
code=0
$cli verify --config table1.json --lambda-max=1e306 --instances 3 2> "$tmp/verify.err" || code=$?
test "$code" -eq 1
if grep -q Traceback "$tmp/verify.err"; then cat "$tmp/verify.err"; exit 1; fi
# q**2 of the first agent underflows to 0, so the fixed point's pi is not finite.
echo '{"agents": [{"q": 1e-200, "c0": -1.0, "a": 1.0}, {"q": 1.0, "c0": -10.0, "a": 1.0}],
 "lambda_max": 1e300}' > "$tmp/tiny_q.json"
code=0
$cli simulate --config "$tmp/tiny_q.json" --out "$tmp/tiny_q.csv" || code=$?
test "$code" -eq 2
code=0
$cli verify --config "$tmp/tiny_q.json" --instances 3 2> "$tmp/verify.err" || code=$?
test "$code" -eq 1
if grep -q Traceback "$tmp/verify.err"; then cat "$tmp/verify.err"; exit 1; fi
