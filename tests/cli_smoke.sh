#!/usr/bin/env bash
# Every command on the bundled fixture with warnings as errors, so a numpy
# RuntimeWarning fails here; a market whose equilibrium or closed-loop
# fixed point overflows float64 is an input error (exit 2), a run that
# overflows a divergence (exit 3), and a verify check that cannot run at
# such a cap a failed check (exit 1, no traceback).
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
$cli solve --config table1.json
$cli simulate --config table1.json --out "$tmp/table1.csv"
$cli sweep --config table1.json --caps 2,4,6
for s in 0 1 2 3 4; do
  $cli verify --config table1.json --instances 20 --seed "$s"
done
overflow="$tmp/overflow.json"
echo '{"agents": [{"q": 1e-300, "c0": -1e300, "a": 1e300}], "lambda_max": 1.0}' > "$overflow"
code=0
$cli simulate --config "$overflow" --out "$tmp/overflow.csv" || code=$?
test "$code" -eq 2
code=0
$cli simulate --config table1.json --lambda-max=1e306 --out "$tmp/run_overflow.csv" || code=$?
test "$code" -eq 3
echo '{"agents": [{"q": 0.5, "c0": -1.0, "a": 1.0}], "lambda_max": 1e308}' > "$overflow"
code=0
$cli simulate --config "$overflow" --out "$tmp/overflow.csv" || code=$?
test "$code" -eq 2
code=0
$cli verify --config table1.json --lambda-max=1e306 --instances 3 2> "$tmp/verify.err" || code=$?
test "$code" -eq 1
if grep -q Traceback "$tmp/verify.err"; then cat "$tmp/verify.err"; exit 1; fi
