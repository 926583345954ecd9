"""Command-line front end.

Subcommands: bracket, rank, verify, centralizer, solve, structure,
g2-check, catalog.  Exit status 0 on success or pass, 1 on a
verification failure, 2 on usage or expression errors, 3 on an internal
error (a failed invariant, reported as a ``record kind=error
class=internal`` line on stderr), 141 (128 + SIGPIPE), with nothing on
stderr, when stdout is a pipe whose reader has closed it.  All numbers
print as exact rationals; output is deterministic.

``LVF_CATALOG`` in the environment points the catalog-consuming
subcommands at a catalog file instead of the builtin one.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from lvf import catalog as catmod
from lvf import verify as vermod
from lvf.errors import InternalError, LvfError, ParseError
from lvf.expr import as_fraction
from lvf.fields import format_field, generic_rank
from lvf.obstruction import b2_sanity_control, g2_obstruction
from lvf.parsing import check_dimension, check_params, parse_field
from lvf.roots import (
    ROOT_SYSTEMS,
    b2_sl4_model,
    build_chevalley,
    format_constants_table,
    get_root_system,
)
from lvf.solve import AnsatzSpace, BracketConstraint, centralizer, exponent_vector, solve


def _load_catalog() -> List[catmod.Realization]:
    """The catalog file ``LVF_CATALOG`` names, or the builtin catalog; a
    file with no record is refused, so that nothing passes silently."""
    path = os.environ.get("LVF_CATALOG")
    if not path:
        return catmod.load_builtin()
    entries = catmod.read(path, verify=False)
    if not entries:
        raise LvfError(f"catalog file {path} holds no realization record")
    return entries


def _add_param(params: Dict[str, Fraction], name: str, value: str):
    """Set ``params[name]``; refuse a name that is not an identifier or
    that ``params`` already holds."""
    if not (name.isascii() and name.isidentifier()):
        raise LvfError(f"bad parameter name '{name}'")
    if name in params:
        raise LvfError(f"parameter {name} defined twice")
    params[name] = as_fraction(value)


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise LvfError(f"bad --param '{pair}', expected name=p/q")
        name, _, value = pair.partition("=")
        _add_param(out, name.strip(), value.strip())
    return out


def _check_param_names(entries: List[catmod.Realization], params: Dict[str, Fraction]):
    """Refuse a parameter name that none of ``entries`` declares."""
    declared = list(dict.fromkeys(n for e in entries for n in e.param_names()))
    unknown = sorted(set(params) - set(declared))
    if unknown:
        owner = f"{entries[0].id} has no" if len(entries) == 1 else "no entry has"
        raise LvfError(
            f"{owner} parameter {', '.join(unknown)} "
            f"(declared: {', '.join(declared) or 'none'})"
        )


def _cmd_bracket(args) -> int:
    params = tuple(_parse_params(args.param))
    x = parse_field(args.x, args.dim, params)
    y = parse_field(args.y, args.dim, params)
    print(format_field(x.bracket(y)))
    return 0


def _cmd_rank(args) -> int:
    params = tuple(_parse_params(args.param))
    fields = [parse_field(text, args.dim, params) for text in args.fields]
    print(generic_rank(fields))
    return 0


def _cmd_verify(args) -> int:
    entries = _load_catalog()
    if args.form:
        entries = [e for e in entries if e.id == args.form]
        if not entries:
            print(f"unknown catalog id '{args.form}'", file=sys.stderr)
            return 2
    params = _parse_params(args.param)
    _check_param_names(entries, params)
    summary = vermod.verify_all(entries, params)
    if args.format == "records":
        for line in summary.to_records():
            print(line)
    else:
        print(summary.to_text())
    return 0 if summary.passed else 1


def _cmd_centralizer(args) -> int:
    entries = {e.id: e for e in _load_catalog()}
    if args.form not in entries:
        print(f"unknown catalog id '{args.form}'", file=sys.stderr)
        return 2
    entry = entries[args.form]
    params = _parse_params(args.param)
    _check_param_names([entry], params)
    assignment = entry.default_assignment()
    assignment.update(params)
    gens = list(entry.generators_at(assignment).values())
    ansatz = AnsatzSpace(entry.dim, max_degree=args.max_degree)
    result = centralizer(gens, ansatz)
    rank = generic_rank(result.basis)
    print(f"centralizer of {entry.id} at degree {args.max_degree}:")
    for b in result.basis:
        print(f"  {format_field(b)}")
    print(f"dimension {result.dimension}, generic rank {rank}")
    return 0


@contextlib.contextmanager
def _at_line(path: str, lineno: int):
    """Report an input error as ``<path>:<line>: <message>``."""
    try:
        yield
    except InternalError:
        raise
    except (ValueError, LvfError) as exc:
        raise LvfError(f"{path}:{lineno}: {exc}") from exc


_AXES = {"x": 0, "y": 1, "z": 2, "w": 3}


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LvfError(f"{what} must be an integer, not '{text}'") from None


def _degree_value(text: str) -> int:
    degree = _integer(text, "ansatz degree")
    if degree < 0:
        raise LvfError(f"ansatz degree must be at least 0, not {degree}")
    return degree


def _component_index(name: str, dim: int) -> int:
    """The 0-based index of a ``components`` entry, written as an axis
    letter or as a number from 1."""
    index = _AXES.get(name)
    if index is None:
        try:
            index = int(name) - 1
        except ValueError:
            raise LvfError(f"unknown component '{name}'") from None
    if not 0 <= index < dim:
        raise LvfError(f"component {name} is out of range for dimension {dim}")
    return index


def _read_solve_file(path: str):
    """The constraints and the ansatz of a solve file.  A repeated
    ``dim``, ``degree`` or ``components`` line, a parameter named twice
    and a component listed twice are refused at the line of the repeat;
    ``exponents`` lines add up."""
    dim = 3
    dim_line = None
    params: Dict[str, Fraction] = {}
    param_lines = []  # (line, names)
    exponents = []  # (line, vector)
    degree_line, degree_text = None, "2"
    components_line, component_names = None, None
    constraints = []  # (line, kind, eigenvalue or target text, field text)
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            with _at_line(path, lineno):
                if head in ("dim", "degree", "components") and head in seen:
                    raise LvfError(f"repeated {head} line")
                seen.add(head)
                if head == "dim":
                    dim, dim_line = _integer(rest, "dimension"), lineno
                elif head == "params":
                    names = []
                    for chunk in rest.split():
                        if "=" not in chunk:
                            raise LvfError(f"bad parameter '{chunk}', expected name=p/q")
                        name, _, value = chunk.partition("=")
                        _add_param(params, name, value)
                        names.append(name)
                    param_lines.append((lineno, names))
                elif head == "exponents":
                    for chunk in rest.replace("(", " ").replace(")", " ").split():
                        vec = tuple(as_fraction(q) for q in chunk.split(","))
                        exponents.append((lineno, vec))
                elif head == "degree":
                    degree_line, degree_text = lineno, rest
                elif head == "components":
                    components_line, component_names = lineno, rest.split()
                elif head == "eigen":
                    value, _, expr = rest.partition(":")
                    constraints.append((lineno, "eigen", as_fraction(value.strip()), expr.strip()))
                elif head == "zero":
                    expr = rest.lstrip(": ").strip()
                    constraints.append((lineno, "zero", None, expr))
                elif head == "equals":
                    known, _, target = rest.partition("->")
                    constraints.append((lineno, "equals", target.strip(), known.strip()))
                else:
                    raise LvfError(f"unknown directive '{head}'")
    pnames = tuple(params)

    def field(text):
        parsed = parse_field(text, dim, pnames)
        return parsed.subst_params(params) if params else parsed

    if constraints or exponents or component_names is not None or params:
        # refused at its own line before anything is read against it (the
        # parser builds tables of size dim); a bare ansatz is left to
        # AnsatzSpace, whose size check runs first
        with _at_line(path, dim_line):
            check_dimension(dim)
    # a parameter named like a builtin of the final dimension is refused
    # at its own line, whether or not a constraint reads it
    for lineno, names in param_lines:
        with _at_line(path, lineno):
            check_params(dim, names)
    built = []
    for lineno, kind, extra, expr in constraints:
        with _at_line(path, lineno):
            if kind == "eigen":
                built.append(BracketConstraint.eigen(field(expr), extra))
            elif kind == "zero":
                built.append(BracketConstraint.commutes(field(expr)))
            else:
                built.append(BracketConstraint.equals(field(expr), field(extra)))
    for lineno, vec in exponents:
        with _at_line(path, lineno):
            exponent_vector(vec, dim)
    # checked once the whole file is read, so that a later dim line counts
    with _at_line(path, degree_line):
        degree = _degree_value(degree_text)
    components = None
    if component_names is not None:
        with _at_line(path, components_line):
            if not component_names:
                # an empty search space has no solutions to report
                raise LvfError("components lists no component")
            components = []
            for name in component_names:
                index = _component_index(name, dim)
                if index in components:
                    raise LvfError(f"component {name} listed twice")
                components.append(index)
    try:
        ansatz = AnsatzSpace(dim, [vec for _, vec in exponents], degree, components)
    except LvfError as exc:
        # the size check runs first, so an oversized file says so; a
        # dimension out of range is still reported at the dim line
        try:
            check_dimension(dim)
        except LvfError:
            raise LvfError(f"{path}:{dim_line}: {exc}") from exc
        raise
    return built, ansatz


def _cmd_solve(args) -> int:
    constraints, ansatz = _read_solve_file(args.file)
    result = solve(constraints, ansatz)
    print(f"ansatz dimension {result.ansatz_dim}, matrix rank {result.matrix_rank}")
    if result.inconsistency:
        print(f"inconsistent: {result.inconsistency}")
        return 1
    if result.particular is not None:
        print(f"particular: {format_field(result.particular)}")
    print(f"solution dimension {result.dimension}")
    for b in result.basis:
        print(f"  {format_field(b)}")
    return 0


def _cmd_structure(args) -> int:
    system = get_root_system(args.type)
    lines = [f"root system {system.label}"]
    cm = system.cartan_matrix()
    lines.append(f"cartan matrix [[{cm[0][0]}, {cm[0][1]}], [{cm[1][0]}, {cm[1][1]}]]")
    names = ", ".join(system.root_name(r) for r in system.positive_roots())
    lines.append(f"positive roots: {names}")
    chev = None
    if args.model:
        if args.model == "sl4":
            if system.label != "B2":
                print("the sl4 model realizes B2 only", file=sys.stderr)
                return 2
            chev = build_chevalley(system, b2_sl4_model())
        else:
            entries = {e.id: e for e in _load_catalog()}
            if args.model not in entries:
                print(f"unknown model '{args.model}'", file=sys.stderr)
                return 2
            entry = entries[args.model]
            expected = {"a2": "A2", "b2": "B2"}.get(entry.family)
            if expected is None:
                print(
                    f"catalog entry {entry.id} is not an A2 or B2 realization",
                    file=sys.stderr,
                )
                return 2
            if expected != system.label:
                print(
                    f"catalog entry {entry.id} realizes {expected}, not "
                    f"{system.label}",
                    file=sys.stderr,
                )
                return 2
            gens = entry.generators_at(entry.default_assignment())
            simple = {
                (1, 0): gens["X_alpha"],
                (-1, 0): gens["X_malpha"],
                (0, 1): gens["X_beta"],
                (0, -1): gens["X_mbeta"],
            }
            chev = build_chevalley(system, simple)
    if args.format == "records":
        print(f"record kind=rootsystem type={system.label} "
              f"cartan={cm[0][0]},{cm[0][1]},{cm[1][0]},{cm[1][1]}")
        for r in system.positive_roots():
            print(f"record kind=root name={system.root_name(r)} coords={r[0]},{r[1]}")
        if chev is not None:
            for r, s, n in chev.constants_table():
                print(
                    f"record kind=constant r={system.root_name(r)} "
                    f"s={system.root_name(s)} n={n}"
                )
    else:
        print("\n".join(lines))
        if chev is not None:
            scaled = {
                system.root_name(r): s for r, s in sorted(chev.scalings.items()) if s != 1
            }
            if scaled:
                joined = ", ".join(f"X_{n} by {s}" for n, s in scaled.items())
                print(f"(negative simple vectors rescaled: {joined})")
            print(format_constants_table(chev))
    return 0


def _cmd_g2_check(args) -> int:
    ansatz = AnsatzSpace(3, max_degree=args.max_degree)
    report = g2_obstruction(args.form, ansatz)
    control_line = None
    if args.control:
        control = b2_sanity_control()
        control_line = control.to_text()
        control_ok = control.validated
    else:
        control_ok = True
    if args.format == "records":
        for line in report.to_records():
            print(line)
        if control_line:
            print(f"record kind=control validated={'true' if control_ok else 'false'}")
    else:
        if args.verbose:
            print(report.to_text())
        else:
            if report.verdict == "obstructed":
                vanished = " or ".join(f"{v} = 0" for v in report.vanished_vectors)
                print(f"OBSTRUCTED: {vanished}")
            else:
                print("COUNTEREXAMPLE-CANDIDATE (see --verbose output)")
        if control_line:
            print(control_line)
    if report.verdict != "obstructed" or not control_ok:
        return 1
    return 0


def _cmd_catalog(args) -> int:
    entries = _load_catalog()
    if args.action == "list":
        for entry in entries:
            print(f"{entry.id}  dim {entry.dim}  rank {entry.expected_rank}  {entry.source}")
        return 0
    if args.action == "show":
        if not args.target:
            print("catalog show needs an entry id", file=sys.stderr)
            return 2
        for entry in entries:
            if entry.id == args.target:
                print(catmod.dumps([entry]), end="")
                return 0
        print(f"unknown catalog id '{args.target}'", file=sys.stderr)
        return 2
    if args.action == "export":
        if not args.target:
            print("catalog export needs a path", file=sys.stderr)
            return 2
        catmod.write(args.target, entries)
        print(f"wrote {len(entries)} realizations to {args.target}")
        return 0
    print(f"unknown catalog action '{args.action}'", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvf",
        description="exact toolkit for Lie algebras of vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two vector fields")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--param", action="append", metavar="name=p/q")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("rank", help="generic rank of a family of fields")
    p.add_argument("fields", nargs="+")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--param", action="append", metavar="name=p/q")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="verify catalog realizations")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true")
    group.add_argument("--form", metavar="ID")
    p.add_argument("--param", action="append", metavar="name=p/q")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("centralizer", help="centralizer inside a bounded ansatz")
    p.add_argument("--form", required=True, metavar="ID")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--param", action="append", metavar="name=p/q")
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("solve", help="solve bracket constraints from a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("structure", help="root system data and constants")
    p.add_argument("--type", required=True, choices=sorted(ROOT_SYSTEMS))
    p.add_argument("--model", metavar="sl4|CATALOG_ID")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("g2-check", help="short-root extension obstruction")
    p.add_argument("--form", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--control", action="store_true", help="also run the B2 control")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_g2_check)

    p = sub.add_parser("catalog", help="list, show or export the catalog")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("target", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        # a closed pipe surfaces here, not in the interpreter's final flush
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away: stay silent, and keep the flush at exit
        # from failing on the same pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f'record kind=error class=internal message="{exc}"', file=sys.stderr)
        return 3
    except (LvfError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
