#!/usr/bin/env bash
# Build the spr CLI and the ledger from the checkout this is run in, then
# run the ledger with the given arguments. Run from the repository root:
#   bash bench/ledger/run.sh --workload s1-serial --seed 1 --seconds 20 --trace 0
#   bash bench/ledger/run.sh run --seed 1 --out ledger.json
# Build output goes to stderr, so the ledger's last stdout line stays its
# result, and dune's shared cache stays off so nothing is written outside
# the checkout.
set -euo pipefail
dune build --root . --cache=disabled --display quiet bench/ledger/ledger.exe bin/spr_cli.exe 1>&2
exec _build/default/bench/ledger/ledger.exe "$@"
