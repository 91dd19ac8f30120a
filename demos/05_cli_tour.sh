#!/bin/sh
# Tour of the vptenum command line: run, oracle, spanner, determinize,
# bench.  Runs this checkout's package as a module with $PYTHON
# (default python3); no install needed.
set -eu
cd "$(dirname "$0")"
PYTHONPATH="$(cd .. && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

vptenum() { "${PYTHON:-python3}" -m vptenum "$@"; }

doc=$(mktemp)
machine=$(mktemp)
trap 'rm -f "$doc" "$machine"' EXIT
printf '<r b c b r>\n' > "$doc"

echo '== run: enumerate all outputs of a document =='
vptenum run -t data/choice.vpt -d "$doc"
echo

echo '== run with per-symbol statistics (CSV on stderr) =='
vptenum run -t data/choice.vpt -d "$doc" --stats > /dev/null
echo

echo '== oracle: brute-force reference, sorted =='
vptenum oracle -t data/choice.vpt -d "$doc"
echo

echo '== oracle --diff: cross-check engine against the oracle =='
vptenum oracle -t data/choice.vpt -d "$doc" --diff > /dev/null \
    && echo 'engine and oracle agree'
echo

echo '== spanner: extract capture spans with a grammar =='
printf '<a c c a> <a c a>\n' > "$doc"
vptenum spanner -g data/element.vpeg -d "$doc"
echo

echo '== determinize: make a machine safe for the default mode =='
cat > "$machine" <<'EOF'
states: q0 q1
initial: q0
final: q1
outputs: o
neutral c q0 -> q0 out o
neutral c q0 -> q1 out o
neutral c q1 -> q1 out o
EOF
vptenum determinize -t "$machine"
echo

echo '== bench: delay statistics across document lengths (CSV) =='
vptenum bench --lengths 1000,2000 --choices 8 --limit 64 | head -5
echo '...'
