"""Command-line front end: label, minors, toric, verify, certify, oracle.

Instance files are JSON: {"outer": {"a": [1,1], "b": [7,5]},
"hole": {"a": [2,2], "b": [5,4]}}, with an outer box at most MAX_SIDE
cells wide and tall.  Exit codes: 0 verified/ok, 1 violation, 2 input,
argument or file error, 3 resource exceeded: the --budget of S-pair
reductions, or the engine's degree cap on a monomial.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .binom import (
    DEGREVLEX,
    GroebnerBasis,
    TermOrder,
    ZERO,
    parse_binomial,
    reduce as binom_reduce,
)
from .errors import (
    ConfigInvalid,
    NotInKernel,
    ParseError,
    PolytoricError,
    ResourceBudgetExceeded,
    VertexOutsidePolyomino,
)
from .grid import RectDiffConfig, build_rect_diff, enumerate_inner_minors
from .labelling import (
    build_label_map,
    render_label_csv,
    render_label_grid,
    render_label_json,
)
from .toric import build_matrix, lattice_kernel, toric_generators
from .verify import (
    MembershipCertifier,
    check_theorem,
    kernel_binomials_up_to_degree,
    quadratic_scan,
)

def _pair(value, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in value
        )
    ):
        raise ParseError(f"field {where} must be a pair of non-negative integers")
    return (value[0], value[1])


def instance_from_dict(data, where: str = "instance") -> RectDiffConfig:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    corners = {}
    for rect in ("outer", "hole"):
        block = data.get(rect)
        if not isinstance(block, dict):
            raise ParseError(f"{where}: field {rect} must be an object with a and b")
        for corner in ("a", "b"):
            if corner not in block:
                raise ParseError(f"{where}: missing field {rect}.{corner}")
            corners[(rect, corner)] = _pair(block[corner], f"{rect}.{corner}")
    return RectDiffConfig.of(
        corners[("outer", "a")],
        corners[("outer", "b")],
        corners[("hole", "a")],
        corners[("hole", "b")],
    )


def load_instance(path: str) -> RectDiffConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read instance file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer past Python's
        # digit limit for int(str).
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return instance_from_dict(data, where=path)


def cmd_label(args) -> int:
    lm = build_label_map(load_instance(args.instance))
    if args.format == "grid":
        sys.stdout.write(render_label_grid(lm))
    elif args.format == "json":
        sys.stdout.write(render_label_json(lm))
    else:
        sys.stdout.write(render_label_csv(lm))
    return 0


def cmd_minors(args) -> int:
    cfg = load_instance(args.instance)
    minors = enumerate_inner_minors(build_rect_diff(cfg))
    sys.stdout.write("".join(f"{minor}\n" for minor in minors))
    return 0


def cmd_toric(args) -> int:
    lm = build_label_map(load_instance(args.instance))
    for g in toric_generators(lm, order=TermOrder(args.order), budget=args.budget):
        print(g)
    return 0


def cmd_verify(args) -> int:
    cfg = load_instance(args.instance)
    report = check_theorem(cfg, order=TermOrder(args.order), budget=args.budget)
    payload = report.to_json()
    if args.report:
        try:
            Path(args.report).write_text(payload)
        except OSError as exc:
            raise ParseError(f"cannot write report file: {exc}") from exc
    else:
        sys.stdout.write(payload)
    if report.budget_exceeded_stage is not None:
        print(f"budget exceeded in stage {report.budget_exceeded_stage}",
              file=sys.stderr)
        return 3
    return 0 if report.ideals_equal else 1


def cmd_certify(args) -> int:
    cfg = load_instance(args.instance)
    target = parse_binomial(args.binomial)
    try:
        cert = MembershipCertifier(cfg).certify(target)
    except NotInKernel:
        print("NOT IN KERNEL")
        return 1
    for term in cert.terms:
        sign = "+" if term.sign > 0 else "-"
        print(f"{sign} ({term.multiplier}) * ({term.generator})")
    print("EXPANSION OK")
    return 0


def _rational_rank(entries) -> int:
    """Rank over the rationals by fraction-free (Bareiss) row elimination,
    all in integers; a code path separate from the integer column
    elimination behind the kernel.

    After k pivots every entry below the pivot rows is a (k+1)-minor of
    the input (Sylvester's identity), so the division by the previous
    pivot is exact, and the entries stay as small as those minors."""
    rows = [list(row) for row in entries]
    rank = 0
    prev = 1
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pivval = pivot_row[col]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col]
            rows[i] = [(pivval * x - factor * y) // prev
                       for x, y in zip(rows[i], pivot_row)]
        prev = pivval
        rank += 1
    return rank


def cmd_oracle(args) -> int:
    cfg = load_instance(args.instance)
    lm = build_label_map(cfg)
    minors = enumerate_inner_minors(build_rect_diff(cfg))
    failures = 0

    scan = quadratic_scan(lm)
    ok = not scan.violations and len(scan.balanced_pairs) == len(minors)
    failures += not ok
    print(f"{'ok' if ok else 'FAIL'} quadratic scan: "
          f"{len(scan.balanced_pairs)} balanced pairs, "
          f"{len(minors)} inner minors, {len(scan.violations)} violations")

    ok = not scan.hole_violations
    failures += not ok
    print(f"{'ok' if ok else 'FAIL'} hole containment: "
          f"{len(scan.hole_violations)} violations")

    matrix = build_matrix(lm)
    kernel = lattice_kernel(matrix)  # every vector re-checked by A z = 0
    expected = len(matrix.cols) - _rational_rank(matrix.entries)
    ok = len(kernel) == expected
    failures += not ok
    print(f"{'ok' if ok else 'FAIL'} kernel exactness: dimension "
          f"{len(kernel)}, rationally expected {expected}")

    try:
        # Wrapped once, so every reduce below reuses one packed basis.
        jp = GroebnerBasis(
            DEGREVLEX, tuple(toric_generators(lm, budget=args.budget))
        )
    except ResourceBudgetExceeded as exc:
        raise ResourceBudgetExceeded(
            f"budget exceeded in stage toric_generators: {exc}"
        ) from exc
    # ``toric_generators`` starts its saturation from every degree-2
    # binomial listed here, so the degree-2 part of this check holds by
    # construction.  Its degree-3 part stays an independent witness, as
    # do the sympy oracle and the test that a saturation from the kernel
    # basis alone gives the same basis.
    low_degree = kernel_binomials_up_to_degree(lm, 3)
    bad = sum(1 for f in low_degree if binom_reduce(f, jp, DEGREVLEX) is not ZERO)
    ok = bad == 0
    failures += not ok
    print(f"{'ok' if ok else 'FAIL'} degree<=3 completeness: "
          f"{len(low_degree)} kernel binomials, {bad} not reducing to zero")

    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` on a bad argument instead of printing the
    usage block and exiting, so ``main`` reports it on one ``error:``
    line and returns 2; the subcommand parsers are of this class too."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polytoric",
        description="Inner-minor and toric ideals of rectangle-minus-"
                    "rectangle polyominoes, with machine verification "
                    "of their equality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--instance", required=True, help="instance JSON path")

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help="S-pair reduction cap per Groebner run, 0 or more; "
                       "pairs the Hilbert series proves zero are not counted")

    p = sub.add_parser("label", help="render the vertex labelling")
    add_common(p)
    p.add_argument("--format", choices=("grid", "json", "csv"), default="grid")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("minors", help="list the inner minors")
    add_common(p)
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("toric", help="list the reduced toric basis")
    add_common(p)
    p.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex")
    add_budget(p)
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("verify", help="verify ideal equality, write a report")
    add_common(p)
    p.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex")
    add_budget(p)
    p.add_argument("--report", default=None, help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="certify ideal membership of a binomial")
    add_common(p)
    p.add_argument("binomial", help="e.g. 'x[1,1]*x[2,2] - x[1,2]*x[2,1]'")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="run the brute-force check suites")
    add_common(p)
    add_budget(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise ParseError(f"--budget must be 0 or more, not {args.budget}")
        return args.func(args)
    except (ParseError, ConfigInvalid, VertexOutsidePolyomino) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PolytoricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
