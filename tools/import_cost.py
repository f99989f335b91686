"""Import cost of crossflats: per module, and the whole set-up of a command.

    python tools/import_cost.py [--src DIR] [--runs N]

Copies the package in DIR (default: this checkout's src) to a temporary
directory without any __pycache__, then starts 2 N fresh interpreters
with PYTHONDONTWRITEBYTECODE=1, so every one compiles the sources as a
clean checkout does.  Half run ``import crossflats, crossflats.cli`` under
``-X importtime``; the table gives each crossflats module's self and
cumulative import time, the minimum over those N runs.  The other half
run perfbench/child.py with a plan of no ops and report its ``setup_s``:
importing crossflats and crossflats.cli and building every field of
perfbench/run.py's FIELDS.  Only the standard library and perfbench/run.py
are imported.

Set-up times are comparable only between two clean checkouts: a source
tree that already holds a __pycache__ of the same code imports faster.
This script always measures a copy without one.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import FIELDS  # noqa: E402

CHILD = str(ROOT / "perfbench" / "child.py")
ALL_FIELDS = ",".join(f"{p}^{k}" for p, k in sorted(FIELDS.values()))
IMPORT = "import crossflats, crossflats.cli"
# import time:   self [us] |  cumulative | imported package
IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def run(argv, src: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                          check=True)


def module_times(stderr: str) -> dict[str, tuple[int, int, int]]:
    """crossflats module -> (self us, cumulative us, nesting depth)."""
    out = {}
    for line in stderr.splitlines():
        match = IMPORTTIME.match(line)
        if match and match[4].split(".")[0] == "crossflats":
            out[match[4]] = (int(match[1]), int(match[2]), len(match[3]) // 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the crossflats package (default: %(default)s)")
    parser.add_argument("--runs", type=int, default=10,
                        help="fresh interpreters per measurement (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    package = pathlib.Path(args.src) / "crossflats"
    if not (package / "__init__.py").is_file():
        parser.error(f"no crossflats package in {args.src}")

    best, order, setups = {}, [], []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(package, pathlib.Path(tmp, "crossflats"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        plan = pathlib.Path(tmp, "plan.json")
        plan.write_text(json.dumps({"mode": "plain", "ops": []}), encoding="utf-8")
        for _ in range(args.runs):
            times = module_times(run([sys.executable, "-X", "importtime", "-c", IMPORT],
                                     tmp).stderr)
            order = list(times)
            for name, (own, cumulative, depth) in times.items():
                prior = best.get(name, (own, cumulative, depth))
                best[name] = (min(own, prior[0]), min(cumulative, prior[1]), depth)
            report = run([sys.executable, CHILD, tmp, ALL_FIELDS, str(plan)], tmp).stdout
            setups.append(json.loads(report)["setup_s"])

    print(f"import time of crossflats modules, min over {args.runs} fresh interpreters "
          "(-X importtime), ms")
    print(f"{'module':<28} {'self':>8} {'cumulative':>11}")
    for name in order:
        own, cumulative, depth = best[name]
        print(f"{'  ' * depth + name:<28} {own / 1e3:8.1f} {cumulative / 1e3:11.1f}")
    setups.sort()
    print(f"\nset-up as perfbench/child.py times it (import crossflats, crossflats.cli; "
          f"fields {ALL_FIELDS}), {args.runs} fresh interpreters, ms: "
          f"min {setups[0] * 1e3:.1f}, median {statistics.median(setups) * 1e3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
