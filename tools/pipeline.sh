#!/bin/sh
# Calibrate, build the signature library and run the scenario suite, as
# the README's command-line usage does, into OUT:
#
#     tools/pipeline.sh OUT
#
# writes OUT/cal/calibration.json, OUT/lib/library.json and OUT/suite/,
# the 28 files that scenarios/golden.sha256 records. It reads the
# scenario files from ./scenarios, so run it from the root of a checkout.
# Each command runs as `python -m gridarx.cli`, so that PYTHONPATH selects
# the source tree that runs it. The first failing command stops it.
set -eu
if [ "$#" -ne 1 ]; then
    echo "usage: tools/pipeline.sh OUT" >&2
    exit 2
fi
out=$1
python -m gridarx.cli calibrate --config scenarios/calibration.ini \
    --out "$out/cal"
python -m gridarx.cli build-library --config scenarios/hif_600ohm.ini \
    --config scenarios/load_0p35.ini \
    --calibration "$out/cal/calibration.json" --out "$out/lib"
python -m gridarx.cli suite --manifest scenarios/manifest.txt \
    --calibration "$out/cal/calibration.json" \
    --library "$out/lib/library.json" --out "$out/suite"
