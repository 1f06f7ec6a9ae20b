"""Traced form of ``python -m torusgerbe``, for the traced cli-oneshot run.

    python3 bench/cli_child.py REPORT.json <torusgerbe arguments>

Runs the command with the tracer installed, leaves stdout and the exit
status exactly as the CLI produces them, and writes the spans, the import
time and the derived counts to REPORT.json.
"""

import json
import sys
import time

import run
import tracer as tr


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import torusgerbe.cli as cli

    import_s = time.perf_counter() - t0
    tracer = tr.Tracer(run.PKG).install()
    probes = run.Probes().attach(tracer)
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(report_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "spans": tracer.export(),
                "counts": probes.counts(),
            }, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
