"""Benchmark for the crossflats CLI: exact searches, family files, certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed by
gen.py, which does not import crossflats.  Every pass runs in a fresh
interpreter (child.py) that imports crossflats, builds the workload's
fields and then calls crossflats.cli.main once per op, so no cache
outlives a pass, just as a CLI user pays a fresh process per command.
Passes repeat, one process at a time, until the next one would end after
S seconds.  Every op's exit code and output are checked against values
known from gen.py or recorded below.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the wall time
of a pass's CLI commands, set-up time and peak RSS, each the median over
the run's passes (set-up also over extra set-up-only processes).
--trace 1 runs one plain and one traced pass plus the field probes and
prints the per-layer metrics; a traced pass must give the plain pass's
outputs.  The last stdout line is the JSON result; a summary goes to
stderr and the span table to .perfbench_work/<workload>/trace.json.

Children run with PYTHONHASHSEED=0 so string hashing does not vary
between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_ONLY_SAMPLES = 8
CHILD_TIMEOUT_S = 170
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3)}
COMMANDS = ("search", "construct", "verify", "certify")

# Exhaustive-search results of crossflats at the commit that added this
# benchmark: (max_size, lex-min witness, nodes_explored, candidates).  The
# maximum and the witness are the contract; node and candidate counts may
# change with the algorithm and are reported as a behaviour change.
SEARCH_RESULTS = {
    ("affine", True, 2, 5): (12, [0, 4, 20, 24, 40, 44, 60, 64, 80, 84, 100, 104],
                             4033681, 120),
    ("projective", False, 2, 3): (6, [273, 284, 12, 300, 33, 81], 6241, 390),
    ("affine", False, 2, 3): (8, [144, 152, 174, 182, 198, 14, 28, 62], 26305, 240),
    ("projective", False, 2, 2): (6, [70, 75, 6, 78, 16, 28], 1065, 98),
}


class Workload:
    """The ops of one workload with the outputs each must produce."""

    def __init__(self, name: str, seed: int):
        self.dir = os.path.join(WORK, name)
        self.inputs = os.path.join(self.dir, "in")
        self.outputs = os.path.join(self.dir, "out")
        self.rng = random.Random(seed)
        self.qs = set()
        self.ops = []  # (command, argv, expected)

    @property
    def fields(self) -> str:
        return ",".join(f"{p}^{k}" for p, k in sorted(FIELDS[q] for q in self.qs))

    def _write_input(self, name: str, data: dict) -> str:
        path = os.path.join(self.inputs, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        return path

    def search(self, kind: str, restricted: bool, n: int, q: int) -> tuple[str, dict]:
        self.qs.add(q)
        out = os.path.join(self.outputs, f"witness_{kind}_{n}_{q}.json")
        argv = ["search", "--kind", kind, "--n", str(n), "--q", str(q),
                "--format", "json", "--out", out]
        if restricted:
            argv.insert(3, "--restricted")
        size, witness, nodes, candidates = SEARCH_RESULTS[(kind, restricted, n, q)]
        self.ops.append(("search", argv, {
            "max_size": size, "witness": witness, "out": out,
            "behaviour": {"nodes_explored": nodes, "candidates": candidates}}))
        return out, {"kind": kind, "n": n, "q": q, "m": size}

    def verify(self, path: str, m: int, violation=None):
        self.ops.append(("verify", ["verify", path, "--format", "json"],
                         {"ok": violation is None, "m": m, "violation": violation}))

    def certify(self, path: str, n: int, q: int, m: int):
        t = gen.projective_point_count(n, q)
        self.ops.append(("certify", ["certify", path, "--format", "json"], {
            "m": m, "t": t, "rank": m + 2, "independent": True, "bound_confirmed": True,
            "evaluation_table_ok": True, "q2_bound": 2 ** (n + 1) - 2 if q == 2 else None}))

    def affine_files(self, n: int, q: int):
        """construct, then verify a shuffled extremal family and two corruptions."""
        self.qs.add(q)
        F = gen.GF(*FIELDS[q])
        out = os.path.join(self.outputs, f"extremal_{n}_{q}.json")
        self.ops.append(("construct", ["construct", "--n", str(n), "--q", str(q), "--out", out],
                         {"out": out, "family": gen.family_dict(
                             "affine", F, n, gen.extremal_family(F, n))}))
        pairs = gen.extremal_family(F, n, self.rng)
        self.verify(self._write_input(f"shuffled_{n}_{q}.json",
                                      gen.family_dict("affine", F, n, pairs)), len(pairs))
        for plant in (gen.plant_diagonal, gen.plant_offdiagonal):
            bad, (i, j, reason) = plant(pairs)
            path = self._write_input(f"{plant.__name__}_{n}_{q}.json",
                                     gen.family_dict("affine", F, n, bad))
            self.verify(path, len(bad), {"i": i, "j": j, "reason": reason})

    def check_witness(self, path: str, info: dict):
        self.verify(path, info["m"])
        if info["kind"] == "projective":
            self.certify(path, info["n"], info["q"], info["m"])

    def certify_greedy(self, n: int, q: int, m: int):
        self.qs.add(q)
        F = gen.GF(*FIELDS[q])
        pairs = gen.greedy_projective(F, n, m, self.rng)
        path = self._write_input(f"greedy_{n}_{q}.json",
                                 gen.family_dict("projective", F, n, pairs))
        self.verify(path, m)
        self.certify(path, n, q, m)


def build_workload(name: str, seed: int) -> Workload:
    """Each workload is dominated by one layer, but also runs a few small ops
    of every other command, so that every per-layer metric measures real
    work on every workload instead of reading zero."""
    wl = Workload(name, seed)
    shutil.rmtree(wl.dir, ignore_errors=True)
    os.makedirs(wl.inputs)
    if name == "search-dp":
        wl.check_witness(*wl.search("affine", True, 2, 5))
        wl.affine_files(2, 5)
        wl.certify_greedy(2, 5, 5)
    elif name == "search-graph":
        wl.check_witness(*wl.search("projective", False, 2, 3))
        wl.check_witness(*wl.search("affine", False, 2, 3))
        wl.affine_files(2, 3)
    elif name == "files":
        for n, q in ((3, 4), (3, 8), (4, 3), (6, 2)):
            wl.affine_files(n, q)
        wl.check_witness(*wl.search("projective", False, 2, 2))
        wl.certify_greedy(3, 2, 10)
        wl.certify_greedy(3, 3, 10)
        wl.certify_greedy(2, 4, 5)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return wl


# ---------------------------------------------------------------------------
# Checks.

def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_op(command: str, expected: dict, result: dict) -> tuple[bool, list[str]]:
    """(output correct, behaviour-change notes) for one op."""
    rc = result["rc"]
    try:
        if command == "construct":
            return rc == 0 and _load_json(expected["out"]) == expected["family"], []
        payload = json.loads(result["stdout"])
        if command == "search":
            written = _load_json(expected["out"])
            ok = (rc == 0 and payload["max_size"] == expected["max_size"]
                  and payload["witness"] == expected["witness"]
                  and len(written["pairs"]) == expected["max_size"])
            return ok, [f"{key} {payload.get(key)} (was {want})"
                        for key, want in expected["behaviour"].items()
                        if payload.get(key) != want]
        if command == "verify":
            return (rc == (0 if expected["ok"] else 1) and payload["ok"] == expected["ok"]
                    and payload["m"] == expected["m"]
                    and payload.get("violation") == expected["violation"]), []
        return rc == 0 and all(payload.get(k) == v for k, v in expected.items()), []
    except (ValueError, KeyError, TypeError, AttributeError):
        return False, []


def read_outputs(wl: Workload) -> dict:
    outputs = {}
    for name in sorted(os.listdir(wl.outputs)):
        with open(os.path.join(wl.outputs, name), encoding="utf-8") as fh:
            outputs[name] = fh.read()
    return outputs


# ---------------------------------------------------------------------------
# Passes.

def run_child(wl: Workload, mode: str, seed: int = 0) -> dict:
    shutil.rmtree(wl.outputs, ignore_errors=True)
    os.makedirs(wl.outputs)
    plan = os.path.join(wl.dir, "plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "seed": seed, "ops": [argv for _, argv, _ in wl.ops]}, fh)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), SRC, wl.fields, plan],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = set()

    def check(self, wl: Workload, report: dict) -> None:
        for (command, argv, expected), result in zip(wl.ops, report["ops"], strict=True):
            ok, notes = check_op(command, expected, result)
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED: {' '.join(argv)} -> rc {result['rc']}", file=sys.stderr)
            self.notes.update(f"BEHAVIOUR CHANGE: {' '.join(argv[:7])}: {n}" for n in notes)


def command_seconds(wl: Workload, report: dict) -> dict:
    sums = {f"cli.{c}_s": 0.0 for c in COMMANDS}
    for (command, _, _), result in zip(wl.ops, report["ops"]):
        sums[f"cli.{command}_s"] += result["seconds"]
    return sums


def end_to_end(wl: Workload, seconds: float, tally: Tally) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        report = run_child(wl, "plain")
        tally.check(wl, report)
        passes.append(report)
    setups = [run_child(wl, "setup")["setup_s"] for _ in range(SETUP_ONLY_SAMPLES)]
    pass_s = [sum(op["seconds"] for op in r["ops"]) for r in passes]
    print(f"{len(passes)} passes of {', '.join(f'{t:.3f}' for t in pass_s)} s; "
          f"{len(setups) + len(passes)} set-up samples", file=sys.stderr)
    return {
        "commands_s": statistics.median(pass_s),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in passes]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl: Workload, seed: int, tally: Tally) -> dict:
    plain = run_child(wl, "plain")
    plain_outputs = read_outputs(wl)
    tally.check(wl, plain)
    traced = run_child(wl, "traced")
    tally.check(wl, traced)
    if ([(r["rc"], r["stdout"]) for r in traced["ops"]] != [(r["rc"], r["stdout"]) for r in plain["ops"]]
            or read_outputs(wl) != plain_outputs):
        tally.failed += 1
        print("FAILED: traced outputs differ from untraced outputs", file=sys.stderr)
    probes = run_child(wl, "probe", seed)["probes"]

    trace = traced["trace"]
    with open(os.path.join(wl.dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
    spans, busy, counts = trace["spans"], trace["busy_s"], trace["counts"]

    def calls(*names, parent=None):
        return sum(s[2] for s in spans if s[1] in names and parent in (None, s[0]))

    def self_s(name):
        return sum(s[4] for s in spans if s[1] == name) / 1e9

    disjoint = ("geometry.flats_disjoint", "geometry.projective_disjoint")
    certify_ops = [r for (c, _, _), r in zip(wl.ops, traced["ops"]) if c == "certify"]
    dp_self = self_s("search.max_family")
    metrics = {
        "field.calls": counts.get("field.calls", 0),
        "field.check_calls": counts.get("field.check_calls", 0),
        "field.calls_per_disjoint": _ratio(counts.get("field.calls", 0), calls(*disjoint)),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.subspace_sum.calls": counts.get("linalg.subspace_sum.calls", 0),
        "linalg.contains.calls": counts.get("linalg.contains.calls", 0),
        "geometry.disjoint.calls": calls(*disjoint),
        "geometry.disjoint.us": _ratio(busy.get("geometry.disjoint", 0) * 1e6, calls(*disjoint)),
        "families.verify.pair_checks": calls(
            *disjoint, parent="families.verify_cross_intersecting"),
        "search.candidates.count": counts.get("search.candidates.count", 0),
        "search.compat.calls": calls("search.compatible"),
        "search.compat.edge_frac": _ratio(counts.get("search.compat.edges", 0),
                                          calls("search.compatible")),
        "search.dp.self_s": dp_self,
        "search.nodes": counts.get("search.nodes", 0),
        "search.nodes_per_s": _ratio(counts.get("search.nodes", 0), dp_self),
        "certify.matrix_cells": counts.get("certify.matrix_cells", 0),
        "certify.verify_passes": _ratio(sum(r["verify_calls"] for r in certify_ops),
                                        len(certify_ops)),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": (sum(r["seconds"] for r in traced["ops"])
                             - sum(r["seconds"] for r in plain["ops"])),
    }
    for group in ("linalg.rref", "geometry.disjoint", "geometry.char_vector",
                  "geometry.enumerate", "families.construct", "families.dump",
                  "families.load", "families.verify", "search.candidates",
                  "search.compat", "certify.build", "certify.rank", "certify.identities"):
        metrics[f"{group}.busy_s"] = busy.get(group, 0.0)
    metrics.update(probes)
    metrics.update(command_seconds(wl, plain))

    top = sorted(spans, key=lambda s: -s[4])[:12]
    print("top spans by self time (parent > name: calls, total s, self s):", file=sys.stderr)
    for parent, name, n, total, own in top:
        print(f"  {parent or '-'} > {name}: {n}, {total / 1e9:.3f}, {own / 1e9:.3f}",
              file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "crossflats", "__init__.py")):
        print(f"error: no crossflats package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = build_workload(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        values = per_layer(wl, args.seed, tally)
    else:
        values = end_to_end(wl, args.seconds, tally)
    for note in sorted(tally.notes):
        print(note, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"ops attempted {tally.attempted}, failed {tally.failed}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
