#!/usr/bin/env bash
# Regenerates every remaining quick-scale artifact sequentially and logs it.
# (table1/properties/fig7/fig8 are cheap to re-run individually; include
# them with `all` if you want one log.)
set -u
# BIN is a command prefix: word splitting of $BIN is intended.
BIN=${BIN:-target/release/jellytool repro}
for e in "$@"; do
  echo "=== $e ==="
  $BIN "$e"
  echo
done
