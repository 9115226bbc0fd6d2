"""Command-line front end.

Exit codes: 0 success / solutions found, 1 exhaustively nonexistent (or
failed verification), 2 usage or file error (or a walk deeper than
Python's recursion limit), 3 method inapplicable, 4 node budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import catalog as catalog_mod
from . import constructions
from . import margins as margins_mod
from .exhaust import MethodInapplicable, icw_census, plan, search
from .groupring import (
    WitnessFormatError,
    fold,
    verify,
    weight,
    witness_format,
    witness_parse,
)
from .orbittable import build, default_factorization, render

EXIT_OK = 0
EXIT_NONE = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_BUDGET = 4


def _factorization(args):
    """The split n = d * m given by --d and --m, or None for the default."""
    if (args.d is None) != (args.m is None):
        raise ValueError("--d and --m must be given together")
    return None if args.d is None else (args.d, args.m)


def _read_witness(path: str):
    try:
        return witness_parse(Path(path).read_text())
    except (OSError, WitnessFormatError) as exc:
        raise WitnessFormatError(f"cannot read witness: {exc}") from exc


def cmd_orbits(args) -> int:
    if args.multiplier is None and args.k is None:
        print("orbits needs --multiplier or --k", file=sys.stderr)
        return EXIT_USAGE
    fact = _factorization(args)
    if args.k is None:  # no weight: the table of the supplied multiplier
        t = args.multiplier
        table = build(args.n, *(fact or default_factorization(args.n, 0, t)), t)
    else:
        table = plan(args.n, args.k, args.multiplier, 1, fact).table
    if fact is None and table.d == 1:
        print(f"orbits of Z_{args.n} under x -> {table.multiplier}x (no coprime split):")
        for rep, members in table.partition.orbits:
            print(f"  <{rep}>_{len(members)} = {{{', '.join(map(str, members))}}}")
        return EXIT_OK
    print(f"orbit table for n={args.n} = {table.d} x {table.m}, multiplier {table.multiplier}")
    print(render(table), end="")
    return EXIT_OK


def cmd_margins(args) -> int:
    config = plan(args.n, args.k, args.multiplier, args.coeff_bound, _factorization(args))
    for (part, bound), consistent in zip(config.folds, config.margin_solutions()):
        if part.modulus == 1:
            continue
        raw = margins_mod.count_margin_solutions(config.s, part.sizes, bound)
        print(f"fold onto Z_{part.modulus}: orbit sizes {part.sizes}, |b_i| <= {bound}")
        print(f"  {raw} solutions of the two moment equations")
        print(f"  {len(consistent)} remain after full fold consistency")
        for sol in consistent:
            print(f"    b = {sol.values}  scaled = {sol.scaled}")
    return EXIT_OK


def _kind(n: int, k: int, bound: int) -> str:
    """CW(n,k) for an honest weighing matrix, ICW_bound(n,k) otherwise."""
    return f"CW({n},{k})" if bound == 1 else f"ICW_{bound}({n},{k})"


def cmd_search(args) -> int:
    count = args.mode == "count"  # an all-mode search that lists no classes
    outcome = search(
        args.n,
        args.k,
        multiplier=args.multiplier,
        coeff_bound=args.coeff_bound,
        mode="all" if count else args.mode,
        node_budget=args.node_budget,
        jobs=args.jobs,
    )
    print(
        f"{_kind(args.n, args.k, args.coeff_bound)}: {outcome.classes} equivalence classes "
        f"({outcome.solutions_found} solutions found, "
        f"{outcome.leaves_tested} candidates tested, {outcome.nodes_visited} nodes)"
    )
    solutions = () if count else outcome.solutions
    for sol in solutions:
        print(f"  {sol}")
    if args.out and solutions:
        Path(args.out).write_text(witness_format(solutions[0], args.k))
        print(f"witness written to {args.out}")
    if not outcome.exhaustive:
        print("node budget exceeded; search is NOT exhaustive", file=sys.stderr)
        return EXIT_BUDGET
    if outcome.classes == 0:
        print("exhaustively none: margin systems and orbit search rule every candidate out")
        return EXIT_NONE
    return EXIT_OK


def cmd_verify(args) -> int:
    elem, k, bound = _read_witness(args.witness)
    ok = verify(elem, k, bound)
    kind = _kind(elem.order, k, elem.max_abs_coeff() or 1)
    if not ok:
        print(f"{kind}: FAILED verification")
        return EXIT_NONE
    pos, neg = len(elem.positives), len(elem.negatives)
    print(f"{kind}: OK, |P|={pos} |N|={neg}")
    return EXIT_OK


def cmd_fold(args) -> int:
    elem, k, _ = _read_witness(args.witness)
    b = fold(elem, args.m)
    print(f"fold onto Z_{args.m}: {list(b.coeffs)}")
    print(f"sum = {sum(b.coeffs)}, sum of squares = {sum(c*c for c in b.coeffs)} (k = {k})")
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.what == "cw14m":
        if args.m is None:
            print("construct cw14m needs --m", file=sys.stderr)
            return EXIT_USAGE
        out = constructions.cw14m_family(args.m)
    else:
        if len(args.inputs) != 2:
            print(f"construct {args.what} needs exactly two witness files", file=sys.stderr)
            return EXIT_USAGE
        (a, _, _), (b, _, _) = map(_read_witness, args.inputs)
        build = constructions.kronecker if args.what == "kronecker" else constructions.type_ii
        out = build(a, b)
    k = weight(out)
    print(f"constructed {_kind(out.order, k, out.max_abs_coeff())}: {out}")
    if args.out:
        Path(args.out).write_text(witness_format(out, k))
        print(f"witness written to {args.out}")
    return EXIT_OK


def _catalog_root(args) -> Path:
    if args.dir:
        return Path(args.dir)
    return Path(os.environ.get("CW_CATALOG_DIR", "cw_catalog"))


def _print_warnings(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def cmd_catalog(args) -> int:
    root = _catalog_root(args)
    if args.action == "seed":
        cat = catalog_mod.seed_known_results(root)
        _print_warnings(cat.warnings)
        print(f"seeded {len(cat.records)} records into {root}")
        return EXIT_OK
    cat = catalog_mod.Catalog(root)
    _print_warnings(cat.warnings)
    loaded = len(cat.warnings)
    try:
        return _catalog_action(cat, args)
    finally:
        _print_warnings(cat.warnings[loaded:])  # the ones the action added


def _catalog_action(cat, args) -> int:
    if args.action == "status":
        if args.n is None or args.k is None:
            print("catalog status needs --n and --k", file=sys.stderr)
            return EXIT_USAGE
        rec = cat.record(args.n, args.k)
        if rec is None:
            print(f"({args.n},{args.k}): open (no record)")
        else:
            wit = f", witness {rec.witness}" if rec.witness else ""
            print(f"({args.n},{args.k}): {rec.status} [{rec.provenance}]{wit}")
        return EXIT_OK
    if args.action == "table":
        print(cat.render_table(args.nmax, args.kmax), end="")
        return EXIT_OK
    if args.action == "import":
        if args.path is None:
            print("catalog import needs a path", file=sys.stderr)
            return EXIT_USAGE
        added = cat.import_dir(args.path)
        cat.save()
        print(f"imported {len(added)} witnesses")
        return EXIT_OK
    if args.action == "close":
        added = cat.close_under_constructions()
        cat.save()
        for rec in added:
            print(f"added ({rec.n},{rec.k}): {rec.provenance}")
        print(f"{len(added)} new records")
        return EXIT_OK
    return EXIT_USAGE  # pragma: no cover


def cmd_census(args) -> int:
    rows = icw_census(mode="all", jobs=args.jobs)
    print("n     k    d  m   t   |M|  classes  solutions")
    for r in rows:
        print(
            f"{r.n:<5} {r.k:<4} {r.d:<2} {r.m:<3} {r.multiplier:<3} {r.multiplier_order:<4} "
            f"{r.classes:<8} {r.solutions_found}"
        )
    return EXIT_OK


def seed_demo() -> int:
    """Walk through the order-63, weight-16 search end to end."""
    n, k = 63, 16
    config = plan(n, k)
    table = config.table
    print(f"demo: n = {n} = {table.d} x {table.m}, k = {k}, multiplier {table.multiplier}")
    print()
    print(render(table), end="")
    print()
    for (part, bound), sols in zip(config.folds, config.margin_solutions()):
        print(f"margins onto Z_{part.modulus} (orbit sizes {part.sizes}, bound {bound}):")
        for sol in sols:
            print(f"  b = {sol.values}  scaled = {sol.scaled}")
    print()
    outcome = search(n, k)
    print(f"search: {outcome.classes} equivalence classes")
    for sol in outcome.solutions:
        pos = ", ".join(map(str, sol.positives))
        neg = ", ".join(map(str, sol.negatives))
        print(f"  P = {{{pos}}}")
        print(f"  N = {{{neg}}}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cwm", description="circulant weighing matrix toolkit"
    )
    ap.add_argument("--seed-demo", action="store_true", help="run the worked walk-through")
    ap.add_argument("--stats", action="store_true", help="print a timing line at the end")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("orbits", help="render the orbit table")
    p.set_defaults(run=cmd_orbits)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--multiplier", "-t", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("margins", help="solve the intersection-number systems")
    p.set_defaults(run=cmd_margins)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--multiplier", "-t", type=int, default=None)
    p.add_argument("--coeff-bound", type=int, default=1)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("search", help="exhaustive orbit search")
    p.set_defaults(run=cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--multiplier", "-t", type=int, default=None)
    p.add_argument("--coeff-bound", type=int, default=1)
    p.add_argument("--mode", choices=("first", "all", "count"), default="all")
    p.add_argument("--jobs", "-j", type=int, default=1)
    p.add_argument(
        "--node-budget", type=int, default=None,
        help="nodes for the walk units, split evenly; the margin and pair lifts run unbudgeted",
    )
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", help="check a witness file")
    p.set_defaults(run=cmd_verify)
    p.add_argument("witness")

    p = sub.add_parser("fold", help="intersection numbers of a witness")
    p.set_defaults(run=cmd_fold)
    p.add_argument("witness")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("construct", help="build new matrices from old")
    p.set_defaults(run=cmd_construct)
    p.add_argument("what", choices=("kronecker", "cw14m", "type2"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("catalog", help="result catalog")
    p.set_defaults(run=cmd_catalog)
    p.add_argument("action", choices=("seed", "status", "table", "import", "close"))
    p.add_argument("path", nargs="?")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--dir", type=str, default=None)

    p = sub.add_parser("census", help="contracted searches for the open cases")
    p.set_defaults(run=cmd_census)
    p.add_argument("--jobs", "-j", type=int, default=1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        if args.seed_demo:
            code = seed_demo()
        elif args.command:
            code = args.run(args)
        else:
            ap.print_help()
            code = EXIT_USAGE
    except MethodInapplicable as exc:
        print(f"method inapplicable: {exc}", file=sys.stderr)
        code = EXIT_INAPPLICABLE
    except (ValueError, OSError, RecursionError, catalog_mod.CatalogIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if args.stats:
        print(f"[stats] elapsed {time.time() - t0:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
