"""Run one biphoton CLI command with the layer tracer installed.

Used for the traced pass of the cli_cold workload in place of
``python -m biphoton``: same argv, same stdout and exit code.  The tracer's
counters go to stderr as one JSON line.
"""

import json
import sys

import biphoton.cli
import layers

tracer = layers.Tracer()
tracer.install()
try:
    code = biphoton.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.snapshot()) + "\n")
sys.exit(code)
