"""Command-line front end.

Subcommands: construct, verify, certify, search, hyperplanes, points.
Exit codes: 0 success, 1 verification/certification failure, 2 usage,
input or output error (such as a closed stdout), 3 search node budget
exceeded.

Each command declares its arguments once, as data in _COMMANDS.
Well-formed argv (exact option names, each at most once; values that do
not start with "-" and convert; nothing missing or left over) is read
off that table directly and builds no parser.  Any other argv (help,
usage errors, spellings such as --opt=value) goes to the full argparse
tree, built for that call alone, which prints help and errors itself;
argparse is imported only on that path.
"""

from __future__ import annotations

import json
import os
import sys
import types

from .certify import certificate_rows, certify_projective_bound
from .families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    FamilyViolation,
    construct_extremal_affine,
    construct_lower_bound_affine,
    dump_family,
    load_family,
    verify_cross_intersecting,
)
from .field import MAX_ORDER, Field, exceeds_max_order, prime_factors
from .geometry import enumerate_projective_points
from .linalg import Space, enumerate_hyperplanes
from .search import (
    DEFAULT_CANDIDATE_CAP,
    BudgetExceeded,
    candidates_affine,
    candidates_projective,
    max_family,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# construct and hyperplanes refuse to write more field entries than this.
MAX_OUTPUT_ENTRIES = 1 << 19


def parse_prime_power(text: str) -> Field:
    """Accept q as a plain prime power ("9") or explicit "p^k" ("3^2").

    Field checks p and k (bounds first, then primality); a plain value
    is bounded by MAX_ORDER before it is factored.
    """
    if "^" in text:
        base, _, exp = text.partition("^")
        try:
            p, k = int(base), int(exp)
        except ValueError:
            raise ValueError(f"cannot parse field order {text!r}") from None
    else:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"cannot parse field order {text!r}") from None
        if not 2 <= value <= MAX_ORDER:
            raise ValueError(
                f"field order must be between 2 and {MAX_ORDER}, got {value}")
        factors = prime_factors(value)
        if len(factors) != 1:
            raise ValueError(f"{text} is not a prime power")
        p, k = factors[0], 0
        while value > 1:
            value //= p
            k += 1
    return Field(p, k)


def non_negative_int(text: str) -> int:
    """The type of count options: an integer >= 0."""
    value = int(text)
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_family(fam: FamilyPair, out: str | None):
    text = dump_family(fam)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _read_family(path: str) -> FamilyPair:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_family(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _bound_hyperplane_work(n: int, field: Field, per_hyperplane: int):
    """Refuse, before anything is enumerated, a walk over more than
    MAX_ORDER vectors of F_q^n, or an output of more than
    MAX_OUTPUT_ENTRIES field entries: per_hyperplane entries for each of
    the t = (q^n - 1)/(q - 1) hyperplanes."""
    if n < 1:
        return  # the command itself rejects the dimension
    q = field.q
    if exceeds_max_order(q, n):
        raise ValueError(f"F_{q}^{n} is too large to enumerate: q^n exceeds {MAX_ORDER}")
    if (q ** n - 1) // (q - 1) * per_hyperplane > MAX_OUTPUT_ENTRIES:
        raise ValueError(f"n = {n}, q = {q} would output more than "
                         f"{MAX_OUTPUT_ENTRIES} field entries")


def cmd_construct(args) -> int:
    field = parse_prime_power(args.q)
    # Each pair is two flats of n^2 entries (rep and n - 1 direction rows);
    # the full family has two pairs per hyperplane, --lower-bound one.
    pairs = 1 if args.lower_bound else 2
    _bound_hyperplane_work(args.n, field, pairs * 2 * args.n * args.n)
    if args.lower_bound:
        fam = construct_lower_bound_affine(args.n, field)
    else:
        fam = construct_extremal_affine(args.n, field)
    _write_family(fam, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    fam = _read_family(args.file)
    report = verify_cross_intersecting(fam)
    payload = {"ok": report.ok, "m": fam.m, "kind": fam.kind}
    lines = [f"kind: {fam.kind}", f"m: {fam.m}", f"ok: {str(report.ok).lower()}"]
    if report.violation is not None:
        i, j, reason = report.violation
        payload["violation"] = {"i": i, "j": j, "reason": reason}
        lines.append(f"violation: ({i}, {j}) {reason}")
    payload["pair_checks"] = report.pair_checks
    payload["eliminations"] = report.eliminations
    lines += [f"pair_checks: {report.pair_checks}", f"eliminations: {report.eliminations}"]
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_certify(args) -> int:
    fam = _read_family(args.file)
    try:
        report = certify_projective_bound(fam)
    except FamilyViolation as exc:
        i, j, reason = exc.violation
        print(f"family does not verify: ({i}, {j}) {reason}", file=sys.stderr)
        return EXIT_FAILED
    payload = {name: getattr(report, name) for name in report._fields}
    lines = [
        f"m: {report.m}",
        f"t: {report.t}",
        f"rank: {report.rank}",
        f"independent: {str(report.independent).lower()}",
        f"bound_confirmed: {str(report.bound_confirmed).lower()} (m <= {report.t - 1})",
        f"evaluation_table_ok: {str(report.evaluation_table_ok).lower()}",
    ]
    if report.q2_bound is not None:
        lines.append(f"q2_bound: {report.q2_bound}")
    if args.emit_matrix:
        rows = certificate_rows(fam)
        payload["matrix"] = [list(row) for row in rows]
        lines.append("matrix:")
        lines.extend("  " + " ".join(str(c) for c in row) for row in rows)
    _emit(args, payload, lines)
    return EXIT_OK if report.bound_confirmed else EXIT_FAILED


def cmd_search(args) -> int:
    field = parse_prime_power(args.q)
    if args.kind == AFFINE:
        cands = candidates_affine(args.n, field, args.restricted,
                                  max_candidates=args.max_candidates)
    else:
        if args.restricted:
            raise ValueError("--restricted applies to affine searches only")
        cands = candidates_projective(args.n, field,
                                      max_candidates=args.max_candidates)
    report = max_family(cands, limit=args.budget)
    payload = {
        "max_size": report.max_size,
        "witness": list(report.witness),
        "nodes_explored": report.nodes_explored,
        "states": report.states,
        "restricted": args.restricted,
        "candidates": len(cands),
        "blocks": report.blocks,
    }
    lines = [
        f"candidates: {len(cands)}",
        f"max_size: {report.max_size}",
        f"witness: {list(report.witness)}",
        f"nodes_explored: {report.nodes_explored}",
        f"states: {report.states}",
        f"restricted: {str(args.restricted).lower()}",
        f"blocks: {report.blocks}",
    ]
    _emit(args, payload, lines)
    if args.out is not None:
        pairs = tuple((cands[i].A, cands[i].B) for i in report.witness)
        _write_family(FamilyPair(args.kind, field, args.n, pairs), args.out)
    return EXIT_OK


def _emit_vectors(args, field: Field, key: str, vectors) -> int:
    """A listing: the count, then one vector per line."""
    payload = {"n": args.n, "q": field.q, "count": len(vectors),
               key: [list(v) for v in vectors]}
    lines = [f"count: {len(vectors)}"]
    lines.extend("(" + ", ".join(str(c) for c in v) + ")" for v in vectors)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hyperplanes(args) -> int:
    field = parse_prime_power(args.q)
    _bound_hyperplane_work(args.n, field, args.n)
    normals = [h.normal for h in enumerate_hyperplanes(Space(field, args.n))]
    return _emit_vectors(args, field, "normals", normals)


def cmd_points(args) -> int:
    field = parse_prime_power(args.q)
    return _emit_vectors(args, field, "points", enumerate_projective_points(args.n, field))


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text",
                        "help": "output format (default: text)"})
_FILE = ("file", {"help": "family file"})
_LISTING = (("--n", {"type": int, "required": True}), ("--q", {"required": True}), _FORMAT)

# name -> (help, command, its arguments as (flag, add_argument keywords)),
# in help order.  Both the argparse parsers and _well_formed read them.
_COMMANDS = {
    "construct": ("build the extremal affine family", cmd_construct, (
        ("--n", {"type": int, "required": True, "help": "ambient dimension"}),
        ("--q", {"required": True, "help": "field order, e.g. 4 or 2^2"}),
        ("--lower-bound", {"action": "store_true",
                           "help": "first half only: t pairs instead of 2t"}),
        ("--out", {"default": None, "help": "family file path (default: stdout)"}),
    )),
    "verify": ("check the cross-intersecting conditions", cmd_verify, (_FILE, _FORMAT)),
    "certify": ("rank certificate for a projective family", cmd_certify, (
        _FILE,
        ("--emit-matrix", {"action": "store_true",
                           "help": "include the certificate matrix in the output"}),
        _FORMAT,
    )),
    "search": ("exhaustive maximum-family search", cmd_search, (
        ("--n", {"type": int, "required": True}),
        ("--q", {"required": True}),
        ("--kind", {"choices": (AFFINE, PROJECTIVE), "required": True}),
        ("--restricted", {"action": "store_true",
                          "help": "affine only: hyperplane-coset candidates"}),
        ("--budget", {"type": non_negative_int, "default": None, "help": "node budget"}),
        ("--max-candidates", {"type": non_negative_int, "default": DEFAULT_CANDIDATE_CAP}),
        ("--out", {"default": None, "help": "write the witness family file here"}),
        _FORMAT,
    )),
    "hyperplanes": ("list the canonical hyperplane normals", cmd_hyperplanes, _LISTING),
    "points": ("list the projective point order", cmd_points, _LISTING),
}


def build_parser():
    """The full tree: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="crossflats",
        description="Cross-intersecting families of affine flats and "
                    "projective subspaces over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
    return parser


def _well_formed(name: str, tokens: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse gives for ``name`` and its tokens, read off
    the argument table without argparse, or None unless the tokens are
    well formed: exact option names, each at most once; values and
    positionals that do not start with "-", each value of its declared
    type and among its choices; every required option and positional
    present.  Such tokens mean the same to argparse, so the namespace is
    its own: every dest with its default, and ``command``."""
    options, positionals = {}, []
    for flag, keywords in _COMMANDS[name][2]:
        if flag.startswith("-"):
            options[flag] = keywords
        else:
            positionals.append(flag)
    given, words = {}, []
    tokens = iter(tokens)
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            if token.startswith("-"):
                return None
            words.append(token)
        elif token in given:
            return None
        elif keywords.get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, "-")  # a missing value fails as a "-" one
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except Exception:  # argparse converts it again and reports the error
                return None
            if value not in keywords.get("choices", (value,)):
                return None
            given[token] = value
    if len(words) != len(positionals) or any(
            keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    args = types.SimpleNamespace(command=name, **dict(zip(positionals, words)))
    for flag, keywords in options.items():
        default = keywords.get("default", False if keywords.get("action") else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse(argv: list[str]):
    """Well-formed argv (see _well_formed) builds no parser; any other
    argv gets the full tree, which prints help and usage errors itself."""
    if argv and argv[0] in _COMMANDS:
        args = _well_formed(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _silence_stdout():
    """Point a closed stdout's fd at devnull, so the interpreter's final
    flush does not fail again (the SIGPIPE note in Python's signal docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # no real fd to redirect
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout, e.g. `| head`
        _silence_stdout()
        return EXIT_USAGE


def _run(argv) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse already reported to stderr
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command][1](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
