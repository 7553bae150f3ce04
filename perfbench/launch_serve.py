"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 perfbench/launch_serve.py --spans OUT.json serve ...

Everything after ``--spans OUT.json`` goes to the program's own CLI entry
point unchanged.  The spans recorded in this process are written to
``OUT.json`` when the server stops.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        raise SystemExit("usage: launch_serve.py --spans OUT.json serve ...")
    spans_path, cli_args = argv[1], argv[2:]
    from repro import cli

    recorder = layers.Recorder()
    layers.install(recorder)
    layers.install_serve(recorder)
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
