#!/usr/bin/env bash
# Regenerate every committed runs/ fixture from this checkout's src/ and
# compare it byte for byte with the committed one.  scripts/run_all.sh writes
# into a fresh temporary RUNS_DIR, with a `regenlab` on PATH that runs this
# checkout's sources (no installed package needed); manifest.jsonl holds
# wall-clock data and is not compared.  Exits nonzero on any difference.
#
# Usage: scripts/check_fixtures.sh [WORKERS]
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/bin"
cat > "$tmp/bin/regenlab" <<EOF
#!/bin/sh
PYTHONPATH="$root/src\${PYTHONPATH:+:\$PYTHONPATH}" exec python3 -m regenlab.cli "\$@"
EOF
chmod +x "$tmp/bin/regenlab"

if ! PATH="$tmp/bin:$PATH" RUNS_DIR="$tmp/runs" "$here/run_all.sh" "$@" \
     > "$tmp/run_all.log" 2>&1; then
  cat "$tmp/run_all.log" >&2
  echo "check_fixtures: scripts/run_all.sh failed" >&2
  exit 1
fi
diff -r -x manifest.jsonl "$root/runs" "$tmp/runs"
echo "check_fixtures: every runs/ fixture regenerates byte for byte"
