"""The lane_maps runner: whole-input significance through the public API.

    PYTHONPATH=src python3 perfbench/lane_runner.py --seed N [--spans OUT.json]

Builds the seeded image and portfolio, prints ``PERFBENCH {"ready": ...}``
and reads one JSON command from stdin.  ``{"cmd": "run", "seconds": S,
"checks": ...}`` runs one untimed job, then jobs for ``S`` seconds, and
prints ``PERFBENCH {...}`` with the job times and the number of checked
lanes that differed from the scalar object-engine values; it then waits
for ``{"cmd": "quit"}``.  One job is one Sobel scan map of the image and
one BlackScholes analysis of every option in the portfolio, both on the
default replay path with the sequential executor.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import layers
from inputs import BLOCKS, lane_inputs


def _say(payload: dict) -> None:
    print("PERFBENCH " + json.dumps(payload), flush=True)


def _command() -> dict:
    return json.loads(sys.stdin.readline())


def _wrong_lanes(maps, bs, checks: dict) -> int:
    wrong = 0
    for y, x, a, b, c, level in checks["pixels"]:
        got = [
            float(maps["A"][y, x]),
            float(maps["B"][y, x]),
            float(maps["C"][y, x]),
            int(maps["scan"].found_level[y, x]),
        ]
        wrong += got != [a, b, c, level]
    for j, *expected in checks["options"]:
        wrong += [bs.per_option[j][name] for name in BLOCKS] != expected
    return wrong


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    recorder = None
    if args.spans:
        recorder = layers.Recorder()
        layers.install(recorder)
    from repro.kernels.blackscholes import analysis as bs_api
    from repro.kernels.sobel import analysis as sobel_api

    image, portfolio = lane_inputs(args.seed)
    _say({"ready": True})
    command = _command()
    if command["cmd"] != "run":
        return 0
    checks = command["checks"]
    lanes_per_job = image.size + portfolio.count

    def job() -> int:
        maps = sobel_api.analyse_sobel_scan_map(image)
        bs = bs_api.analyse_blackscholes(
            portfolio, samples=portfolio.count, seed=args.seed
        )
        return _wrong_lanes(maps, bs, checks)

    wrong = job()
    checked = len(checks["pixels"]) + len(checks["options"])
    attempted = checked
    times = []
    start = time.monotonic()
    deadline = start + float(command["seconds"])
    while not times or time.monotonic() < deadline:
        t0 = time.monotonic()
        wrong += job()
        times.append(time.monotonic() - t0)
        attempted += checked
    end = time.monotonic()
    if recorder is not None:
        recorder.dump(args.spans)
    _say(
        {
            "start": start,
            "seconds": end - start,
            "job_seconds": times,
            "lanes_per_job": lanes_per_job,
            "attempted": attempted,
            "failed": wrong,
        }
    )
    _command()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
