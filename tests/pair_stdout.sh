#!/usr/bin/env bash
# Prints one line per run of `adapted` and `orbit-identify` on every
# tests/data/pair_*.json, as given and with "omega" removed: the sha256
# of stdout, the exit code, the command and the input. Each run is
# bounded by `timeout 10`, so a stalled run shows as exit code 124.
# tests/data/pair_stdout.sha256 holds the expected lines; to check them:
#   bash tests/pair_stdout.sh | diff tests/data/pair_stdout.sha256 -
set -eu
# a fixed glob order
export LC_ALL=C
cd "$(dirname "$0")/.."
# run the checkout's package, installed or not
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for path in tests/data/pair_*.json; do
  name=$(basename "$path")
  python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc.pop("omega", None); json.dump(doc, open(sys.argv[2], "w"))' "$path" "$tmp/no_omega.json"
  for input in "$path" "$tmp/no_omega.json"; do
    label=$name
    if [ "$input" != "$path" ]; then label="$name without omega"; fi
    for command in adapted orbit-identify; do
      code=0
      timeout 10 python -m exoticcone "$command" --file "$input" > "$tmp/stdout" || code=$?
      echo "$(sha256sum < "$tmp/stdout" | cut -d ' ' -f 1) $code $command $label"
    done
  done
done
