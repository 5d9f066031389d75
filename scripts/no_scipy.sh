#!/usr/bin/env bash
# Run one specbound command and fail if it loaded any scipy module.
#
# Usage: scripts/no_scipy.sh [-W] <specbound arguments...>
#
# With -W, every RuntimeWarning is an error. The command runs from the source
# tree under python -X importtime; its stdout passes through, and its stderr,
# without the import-time lines, goes to stderr. Exits with the command's own
# code when that is not 0, and 1 when it loaded scipy.
src="$(cd "$(dirname "$0")/.." && pwd)/src"
warnings=""
if [ "$1" = "-W" ]; then
  warnings="-W error::RuntimeWarning"
  shift
fi
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
code=0
# $warnings is empty or two words, so it is left unquoted
PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python $warnings -X importtime -m specbound "$@" 2> "$log" || code=$?
grep -v '^import time:' "$log" >&2
if [ "$code" -ne 0 ]; then
  exit "$code"
fi
if grep -E '\|[[:space:]]+scipy(\.|[[:space:]]*$)' "$log" >&2; then
  echo "specbound $* loaded scipy" >&2
  exit 1
fi
