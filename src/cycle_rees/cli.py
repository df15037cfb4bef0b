"""Command-line front end.

`build_parser` declares each subcommand once, with its handler and JSON
layout.  Handlers map one-to-one onto the library operations and return
(JSON payload, text, exit code); `run` alone renders and writes.  All
output is deterministic (JSON keys sorted, polynomials in canonical order).
Exit codes: 0 success, 1 mathematical assertion failed, 2 usage error, 3
budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Callable

from .classify import (
    circulant_rank,
    classification_table,
    classify,
    cm_type_odd,
    fiber_dimension,
    hilbert_closed_form_n_minus_2,
    render_table,
    verify_hilbert,
)
from .groebner import Budget, BudgetExceeded, gb_certificate, is_groebner_basis
from .monomial_ideals import initial_ideal, is_squarefree, x_condition
from .orders import product_order
from .rees import (
    PathIdealSpec,
    family_half,
    family_n_minus_2,
    fiber_ideal,
    path_ideal,
    pfaffian_fiber_sign,
    rees_ideal,
    sym_relations,
)
from .rings import InvariantError

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_Result = tuple[object, str, int]


def _budget_secs(args: argparse.Namespace) -> float:
    """Seconds per computation, from --budget-secs."""
    if args.budget_secs > 0:
        return args.budget_secs
    raise ValueError(f"--budget-secs must be a positive number of seconds, got {args.budget_secs!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycle-rees",
        description="Rees algebras of path ideals of cycles: classification and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(
        p: argparse.ArgumentParser,
        handler: Callable[[argparse.Namespace], _Result],
        indent: int | None = None,
        budget: bool = True,
        formats: tuple[str, ...] = ("text", "json"),
    ) -> None:
        """Give p its handler and JSON indent, then the common flags after its own."""
        p.set_defaults(handler=handler, indent=indent)
        p.add_argument("--format", choices=formats, default="text")
        if budget:
            p.add_argument("--budget-secs", type=float, default=60.0, help="per-computation budget in seconds (default 60)")

    p = sub.add_parser("classify", help="classify one (n, t) cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--timings", action="store_true", help="include stage timings in JSON output")
    declare(p, _cmd_classify, indent=2, formats=("text", "json", "csv"))

    p = sub.add_parser("table", help="classification grid over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--timings", action="store_true")
    declare(p, _cmd_table, indent=2, formats=("text", "json", "csv"))

    p = sub.add_parser("fiber-dim", help="dimension of the fiber cone")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--check-rank", action="store_true", help="cross-check against the circulant rank")
    declare(p, _cmd_fiber_dim, budget=False)

    p = sub.add_parser("hilbert", help="Hilbert series of the Rees algebra at t = n-2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="certify the t = n-2 family as J and compare the series of its grevlex initial ideal with the closed form")
    declare(p, _cmd_hilbert)

    p = sub.add_parser("cm-type", help="Cohen-Macaulay type of the Rees algebra, odd n")
    p.add_argument("--n", type=int, required=True)
    declare(p, _cmd_cm_type)

    p = sub.add_parser("verify-gb", help="check a named family is a Groebner basis")
    p.add_argument("--family", choices=("n2", "half"), required=True)
    p.add_argument("--n", type=int, required=True)
    declare(p, _cmd_verify_gb)

    p = sub.add_parser("pfaffian", help="Pfaffian of the Jacobian dual relation matrix, even n")
    p.add_argument("--n", type=int, required=True)
    declare(p, _cmd_pfaffian, budget=False)

    p = sub.add_parser("ideal", help="print generators of a named ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--which", choices=("path", "sym", "rees", "fiber", "family"), required=True)
    declare(p, _cmd_ideal, indent=2)

    return parser


def _cmd_classify(args) -> _Result:
    record = classify(args.n, args.t, budget_secs=_budget_secs(args))
    code = EXIT_BUDGET if record.klass == "timeout" else EXIT_OK
    return [record.to_json(include_ms=args.timings)], record.klass + "\n", code


def _cmd_table(args) -> _Result:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be a positive number of processes, got {args.jobs!r}")
    records = classification_table(args.n_min, args.n_max, budget_secs=_budget_secs(args), jobs=args.jobs)
    code = EXIT_BUDGET if any(r.klass == "timeout" for r in records) else EXIT_OK
    return [r.to_json(include_ms=args.timings) for r in records], render_table(records), code


def _cmd_fiber_dim(args) -> _Result:
    dim = fiber_dimension(args.n, args.t)
    if not args.check_rank:
        return {"fiber_dim": dim}, f"{dim}\n", EXIT_OK
    rank = circulant_rank(args.n, args.t)
    ok = rank == dim
    text = f"{dim} (rank check: {'ok' if ok else 'FAILED'})\n"
    return {"fiber_dim": dim, "rank": rank, "rank_check": ok}, text, EXIT_OK if ok else EXIT_ASSERTION


def _cmd_hilbert(args) -> _Result:
    series = hilbert_closed_form_n_minus_2(args.n)
    if not args.verify:
        return series.to_json(), f"{series}\n", EXIT_OK
    verified = verify_hilbert(args.n, Budget(seconds=_budget_secs(args)))
    text = f"{series}\ninitial-ideal recomputation: {'match' if verified else 'MISMATCH'}\n"
    return {**series.to_json(), "verified": verified}, text, EXIT_OK if verified else EXIT_ASSERTION


def _cmd_cm_type(args) -> _Result:
    value = cm_type_odd(args.n, Budget(seconds=_budget_secs(args)))
    return {"cm_type": value, "n": args.n}, f"{value}\n", EXIT_OK


def _cmd_verify_gb(args) -> _Result:
    fam = family_n_minus_2(args.n) if args.family == "n2" else family_half(args.n)
    polys = list(fam.values())
    order = product_order(polys[0].ring)
    ok, cert = is_groebner_basis(polys, order, Budget(seconds=_budget_secs(args)))
    ini = initial_ideal(polys, order)
    squarefree = is_squarefree(ini)
    xcond = x_condition(ini)
    payload = {
        "family": args.family,
        "n": args.n,
        "groebner": ok,
        "squarefree_initial": squarefree,
        "x_condition": xcond,
        "certificate": gb_certificate(polys, order),
    }
    text = (
        f"groebner basis: {'yes' if ok else 'NO'}\n"
        f"squarefree initial ideal: {'yes' if squarefree else 'NO'}\n"
        f"x-condition: {'yes' if xcond else 'NO'}\n"
    )
    if cert is not None:
        i, j, remainder = cert
        payload["failure"] = {"pair": [i, j], "remainder": remainder.to_text()}
        text += f"offending pair {i},{j} with remainder {remainder.to_text()}\n"
    return payload, text, EXIT_OK if ok else EXIT_ASSERTION


def _cmd_pfaffian(args) -> _Result:
    sign, pf = pfaffian_fiber_sign(args.n)
    payload = {"n": args.n, "pfaffian": pf.to_text(), "sign_vs_fiber_relation": sign}
    return payload, f"Pf(A) = {pf.to_text()}\nequals {'+' if sign > 0 else '-'}(fiber relation)\n", EXIT_OK


def _cmd_ideal(args) -> _Result:
    spec = PathIdealSpec(args.n, args.t)
    if args.which == "path":
        ideal = path_ideal(spec)
    elif args.which == "sym":
        ideal = sym_relations(spec)
    elif args.which == "rees":
        ideal = rees_ideal(spec, Budget(seconds=_budget_secs(args)))
    elif args.which == "fiber":
        budget = Budget(seconds=_budget_secs(args))
        ideal = fiber_ideal(rees_ideal(spec, budget), budget)
    else:
        if args.t == args.n - 2:
            fam = family_n_minus_2(args.n)
        elif args.n % 2 == 0 and args.t == args.n // 2:
            fam = family_half(args.n)
        else:
            raise ValueError("--which family needs t = n-2 or t = n/2")
        texts = {name: p.to_text() for name, p in fam.items()}
        return texts, "".join(f"{name} = {text}\n" for name, text in texts.items()), EXIT_OK
    texts = [g.to_text() for g in ideal.generators]
    return {"generators": texts}, "".join(f"{text}\n" for text in texts) or "0\n", EXIT_OK


def run(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload, text, code = args.handler(args)
    except BudgetExceeded:
        payload, text, code = {"error": "budget exceeded"}, "budget exceeded\n", EXIT_BUDGET
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=args.indent) + "\n")
    elif args.format == "csv":
        writer = csv.DictWriter(out, ("n", "t", "class", "gcd", "fiber_dim"), extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(payload)
    else:
        out.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
