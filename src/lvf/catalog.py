"""Built-in library of canonical realizations and its text format.

Sixteen entries: three Heisenberg forms, four sl2 forms, four sl2 x sl2
forms, three A2 forms and two B2 forms.  Each entry carries generators
(as expression text), the bracket relations that pin the presentation,
parameter defaults and polynomial constraints, the expected generic
rank, and whether the span must be semisimple.

Stored forms are corrected where the classical listing does not close
under the stated brackets; every correction is recorded in the entry's
``notes``.  ``load_builtin`` checks nothing; ``lvf verify`` and the
tests check the builtin entries, and ``loads`` checks every entry it
reads with ``check_entry`` (the verifier is the arbiter).
Derived generators (Cartan elements, root vectors for non-simple roots)
are computed from the primary ones by exact brackets at build time.

One constructor, ``_entry``, builds every entry, builtin or read from
text: it parses the generator texts, adds the derived generators,
reads the relations with ``_parse_relation`` and refuses a malformed
entry (dimension, expected rank, missing or repeated generators,
parameters named like a builtin).

The serialization is a UTF-8 structured text, one ``realization`` record
per entry; writing is canonical, so a given catalog always produces the
same bytes.  The reader runs on the parser's tokenizer
(``parsing._Tokens``) under the catalog's own token pattern, and the
text is tokenized once: each ``rel`` statement's tokens, up to its
``;``, are detached from the record's and handed to ``_parse_relation``
as they are, while a builtin relation string is tokenized by
``_parse_relation`` itself.  A refusal is a ``CatalogError`` naming an
offset into the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from lvf.errors import CatalogError, LvfError
from lvf.expr import ExpPoly, as_fraction, check_digits, join_signed, signed_term
from lvf.fields import VectorField, format_field, generic_rank
from lvf.parsing import _Tokens, check_dimension, check_params, parse_field, parse_scalar

Coef = Tuple[Fraction, str]


@dataclass(frozen=True)
class Relation:
    """[a, b] = sum of coef*generator (empty rhs means zero)."""

    a: str
    b: str
    rhs: Tuple[Coef, ...] = ()

    def label(self) -> str:
        return f"[{self.a}, {self.b}] = {format_rhs(self.rhs)}"


def format_rhs(rhs: Sequence[Coef]) -> str:
    return join_signed(signed_term(c, name) for c, name in rhs)


@dataclass(frozen=True)
class Realization:
    """One catalog entry; immutable after construction."""

    id: str
    dim: int
    params: Tuple[Tuple[str, Fraction], ...]
    constraints: Tuple[str, ...]  # scalar expressions that must vanish
    generators: Tuple[Tuple[str, VectorField], ...]
    relations: Tuple[Relation, ...]
    expected_rank: int
    expect_semisimple: bool
    source: str
    notes: str = ""
    # the constraint texts parsed, in the same order
    constraint_exprs: Tuple[ExpPoly, ...] = field(default=(), compare=False)

    @property
    def family(self) -> str:
        return self.id.split(".")[0]

    def param_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def default_assignment(self) -> Dict[str, Fraction]:
        return {name: value for name, value in self.params}

    def generator_map(self) -> Dict[str, VectorField]:
        return dict(self.generators)

    def constraint_polys(self) -> List[ExpPoly]:
        return list(self.constraint_exprs)

    def constraints_satisfied(self, assignment: Dict[str, Fraction]) -> bool:
        return all(
            poly.subst_params(assignment).is_zero()
            for poly in self.constraint_polys()
        )

    def generators_at(self, assignment: Dict[str, Fraction]) -> Dict[str, VectorField]:
        return {
            name: gen.subst_params(assignment) if not gen.is_parameter_free() else gen
            for name, gen in self.generators
        }


# -- entry construction -------------------------------------------------------


def _entry(
    id: str,
    gens: Sequence[Tuple[str, str]],
    rels: Sequence[Union[str, _Tokens]],
    expected_rank: int = 0,
    expect_semisimple: bool = False,
    source: str = "",
    params: Sequence[Tuple[str, str]] = (),
    constraints: Sequence[str] = (),
    notes: str = "",
    dim: int = 3,
    derived: Sequence[Tuple[str, str, str, Fraction]] = (),
) -> Realization:
    """The one constructor of entries, builtin or read from text.

    ``gens`` are expression texts, ``rels`` relation texts or the
    tokens of relation statements (``_parse_relation``), ``params``
    (name, literal) pairs.  ``derived`` rows (name, a, b, scale) add the
    generator scale*[a, b] of generators already present.  Refused with
    CatalogError: a dimension outside 1..MAX_DIM, an expected rank
    outside 0..dim, no generator, a generator or parameter name used
    twice, a parameter named like a builtin, a generator or constraint
    text that does not parse, a malformed relation.
    """
    names = [name for name, _ in gens] + [row[0] for row in derived]
    pnames = tuple(name for name, _ in params)
    where = ""
    try:
        check_dimension(dim)
        if not 0 <= expected_rank <= dim:
            raise LvfError(f"expected_rank {expected_rank} is outside 0..{dim}")
        if not names:
            raise LvfError("no generator")
        for what, seq in (("generator", names), ("parameter", pnames)):
            twice = sorted({name for name in seq if seq.count(name) > 1})
            if twice:
                raise LvfError(f"{what} {', '.join(twice)} defined twice")
        check_params(dim, pnames)
        gen_map = {}
        for name, text in gens:
            where = f"generator {name}: "
            gen_map[name] = parse_field(text, dim, pnames)
        polys = []
        for text in constraints:
            where = f"constraint {text!r}: "
            polys.append(parse_scalar(text, dim, pnames))
    except LvfError as exc:
        raise CatalogError(f"{id}: {where}{exc}") from exc
    for name, a, b, scale in derived:
        gen_map[name] = gen_map[a].bracket(gen_map[b]) * scale
    return Realization(
        id=id,
        dim=dim,
        params=tuple((n, as_fraction(v)) for n, v in params),
        constraints=tuple(constraints),
        constraint_exprs=tuple(polys),
        generators=tuple((n, gen_map[n]) for n in names),
        relations=tuple(_parse_relation(r) for r in rels),
        expected_rank=expected_rank,
        expect_semisimple=expect_semisimple,
        source=source,
        notes=notes,
    )


def _relation_error(text: str):
    """The refusal of the relation ``text``, for ``_Tokens``."""

    def error(message, pos):
        return CatalogError(f"bad relation {text.strip()!r}: {message}")

    return error


def _parse_relation(rel: Union[str, _Tokens]) -> Relation:
    """Read ``[a, b] = rhs`` from a relation text or from the tokens of
    a ``rel`` statement (``_relation_tokens``): rhs is ``0`` or a signed
    sum of generators, each with an optional ``p/q*`` coefficient, like
    ``2*X - 1/2*H``."""
    toks = _Tokens(rel, _CAT_TOKEN, _relation_error(rel)) if isinstance(rel, str) else rel
    error = toks.error
    toks.expect("punct", "[")
    a = toks.expect("name")
    toks.expect("punct", ",")
    b = toks.expect("name")
    toks.expect("punct", "]")
    toks.expect("punct", "=")
    if toks.peek()[:2] == ("num", "0") and toks.i + 1 == len(toks.items):
        return Relation(a, b, ())
    rhs: List[Coef] = []
    while not rhs or toks.peek()[0] is not None:
        kind, value, pos = toks.next()
        sign = 1
        if kind == "punct" and value in ("+", "-"):
            sign = -1 if value == "-" else 1
            kind, value, pos = toks.next()
        elif rhs:
            raise error(f"expected '+' or '-', found {value!r}", pos)
        coef = Fraction(1)
        if kind == "num":
            try:
                coef = as_fraction(value)
            except LvfError as exc:
                raise error(str(exc), pos) from None
            toks.expect("punct", "*")
            kind, value, pos = toks.next()
        if kind != "name":
            raise error(f"expected name, found {value!r}", pos)
        rhs.append((sign * coef, value))
    return Relation(a, b, tuple(rhs))


_SL2_RELS = ["[H, X] = X", "[H, Y] = -Y", "[X, Y] = H"]

_SL2X2_RELS = [
    "[X, Xm] = H",
    "[Y, Ym] = Ht",
    "[H, X] = X",
    "[H, Xm] = -Xm",
    "[Ht, Y] = Y",
    "[Ht, Ym] = -Ym",
    "[H, Y] = 0",
    "[H, Ym] = 0",
    "[Ht, X] = 0",
    "[Ht, Xm] = 0",
    "[X, Y] = 0",
    "[X, Ym] = 0",
    "[Xm, Y] = 0",
    "[Xm, Ym] = 0",
]

_A2_RELS = [
    "[X_alpha, X_malpha] = H_alpha",
    "[X_beta, X_mbeta] = H_beta",
    "[H_alpha, X_alpha] = 2*X_alpha",
    "[H_alpha, X_beta] = -X_beta",
    "[H_alpha, X_malpha] = -2*X_malpha",
    "[H_alpha, X_mbeta] = X_mbeta",
    "[H_beta, X_alpha] = -X_alpha",
    "[H_beta, X_beta] = 2*X_beta",
    "[H_beta, X_malpha] = X_malpha",
    "[H_beta, X_mbeta] = -2*X_mbeta",
    "[X_alpha, X_beta] = X_ab",
    "[X_malpha, X_mbeta] = X_mab",
    "[X_alpha, X_mbeta] = 0",
    "[X_beta, X_malpha] = 0",
    "[X_alpha, X_ab] = 0",
    "[X_beta, X_ab] = 0",
    "[X_malpha, X_ab] = X_beta",
    "[X_mbeta, X_ab] = -X_alpha",
    "[X_ab, X_mab] = -H_alpha - H_beta",
]

_A2_DERIVED = [
    ("H_alpha", "X_alpha", "X_malpha", Fraction(1)),
    ("H_beta", "X_beta", "X_mbeta", Fraction(1)),
    ("X_ab", "X_alpha", "X_beta", Fraction(1)),
    ("X_mab", "X_malpha", "X_mbeta", Fraction(1)),
]

_B2_RELS = [
    "[X_alpha, X_malpha] = H_alpha",
    "[X_beta, X_mbeta] = H_beta",
    "[H_alpha, X_alpha] = 2*X_alpha",
    "[H_alpha, X_beta] = -X_beta",
    "[H_alpha, X_malpha] = -2*X_malpha",
    "[H_alpha, X_mbeta] = X_mbeta",
    "[H_beta, X_alpha] = -1/2*X_alpha",
    "[H_beta, X_beta] = 1/2*X_beta",
    "[H_beta, X_malpha] = 1/2*X_malpha",
    "[H_beta, X_mbeta] = -1/2*X_mbeta",
    "[X_alpha, X_mbeta] = 0",
    "[X_beta, X_malpha] = 0",
    "[X_alpha, X_beta] = X_ab",
    "[X_beta, X_ab] = X_a2b",
    "[X_malpha, X_mbeta] = X_mab",
    "[X_mbeta, X_mab] = X_ma2b",
    "[X_alpha, X_ab] = 0",
    "[X_beta, X_a2b] = 0",
    "[X_mbeta, X_ma2b] = 0",
    "[H_alpha, X_ab] = X_ab",
    "[H_alpha, X_a2b] = 0",
    "[X_malpha, X_ab] = X_beta",
]

_B2_DERIVED = [
    ("H_alpha", "X_alpha", "X_malpha", Fraction(1)),
    ("H_beta", "X_beta", "X_mbeta", Fraction(1)),
    ("X_ab", "X_alpha", "X_beta", Fraction(1)),
    ("X_a2b", "X_beta", "X_ab", Fraction(1)),
    ("X_mab", "X_malpha", "X_mbeta", Fraction(1)),
    ("X_ma2b", "X_mbeta", "X_mab", Fraction(1)),
]

_HEIS_RELS = ["[X, Y] = Z", "[Z, X] = 0", "[Z, Y] = 0"]

_builtin_cache: Optional[List[Realization]] = None


def load_builtin() -> List[Realization]:
    """The sixteen canonical realizations, in catalog order."""
    global _builtin_cache
    if _builtin_cache is not None:
        return list(_builtin_cache)
    entries = [
        _entry(
            "heisenberg.1",
            gens=[("Z", "Dx"), ("X", "Dy"), ("Y", "y*Dx + Dz")],
            rels=_HEIS_RELS,
            expected_rank=3,
            expect_semisimple=False,
            source="Heisenberg family, canonical form 1",
        ),
        _entry(
            "heisenberg.2",
            gens=[("Z", "Dx"), ("X", "Dy"), ("Y", "y*Dx + lambda*Dy")],
            rels=_HEIS_RELS,
            expected_rank=2,
            expect_semisimple=False,
            source="Heisenberg family, canonical form 2",
            params=[("lambda", "0")],
            notes="free constant lambda; any rational value is admissible",
        ),
        _entry(
            "heisenberg.3",
            gens=[("Z", "Dx"), ("X", "Dy"), ("Y", "y*Dx + z*Dy")],
            rels=_HEIS_RELS,
            expected_rank=2,
            expect_semisimple=False,
            source="Heisenberg family, canonical form 3",
        ),
        _entry(
            "sl2.1",
            gens=[("H", "Dx"), ("X", "exp(x)*Dx"), ("Y", "-1/2*exp(-x)*Dx")],
            rels=_SL2_RELS,
            expected_rank=1,
            expect_semisimple=True,
            source="sl2 family, canonical form 1",
            notes=(
                "classical listing gives the generator pair exp(x)*Dx, "
                "exp(-x)*Dx; Y is rescaled by -1/2 and H = Dx is added so the "
                "stated relations close (same 3-dimensional span)"
            ),
        ),
        _entry(
            "sl2.2",
            gens=[
                ("H", "Dx"),
                ("X", "exp(x)*Dy"),
                ("Y", "exp(-x)*(y*Dx + (y^2/2 + l)*Dy)"),
            ],
            rels=_SL2_RELS,
            expected_rank=2,
            expect_semisimple=True,
            source="sl2 family, canonical form 2",
            params=[("l", "0")],
            notes=(
                "classical listing prints (y^2/2 + l)*Dz; bracket closure "
                "forces Dy, stored corrected"
            ),
        ),
        _entry(
            "sl2.3",
            gens=[
                ("H", "Dx"),
                ("X", "exp(x)*Dy"),
                ("Y", "exp(-x)*(y*Dx + (y^2/2 + z)*Dy)"),
            ],
            rels=_SL2_RELS,
            expected_rank=2,
            expect_semisimple=True,
            source="sl2 family, canonical form 3",
            notes=(
                "classical listing prints (y^2/2 + z)*Dz; bracket closure "
                "forces Dy, stored corrected"
            ),
        ),
        _entry(
            "sl2.4",
            gens=[
                ("H", "Dx"),
                ("X", "exp(x)*Dy"),
                ("Y", "exp(-x)*(y*Dx + y^2/2*Dy + Dz)"),
            ],
            rels=_SL2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="sl2 family, canonical form 4",
        ),
        _entry(
            "sl2xsl2.1",
            gens=[
                ("H", "Dx"),
                ("Ht", "Dy"),
                ("X", "exp(x)*Dz"),
                ("Xm", "exp(-x)*(z*Dx + (z^2/2 + beta)*Dz)"),
                ("Y", "exp(y)*Dy"),
                ("Ym", "-1/2*exp(-y)*Dy"),
            ],
            rels=_SL2X2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="sl2 x sl2 family, canonical form 1",
            params=[("beta", "0")],
            notes="Ym rescaled by -1/2 so [Y, Ym] = Ht holds exactly",
        ),
        _entry(
            "sl2xsl2.2",
            gens=[
                ("H", "Dx"),
                ("Ht", "Dy"),
                ("X", "exp(x)*Dz"),
                ("Xm", "exp(-x)*(z*Dx + z^2/2*Dz)"),
                ("Y", "exp(y)*(Dx - Dy + z*Dz)"),
                ("Ym", "1/2*exp(-y)*(Dx + Dy + z*Dz)"),
            ],
            rels=_SL2X2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="sl2 x sl2 family, canonical form 2",
            notes="Ym rescaled by 1/2 so [Y, Ym] = Ht holds exactly",
        ),
        _entry(
            "sl2xsl2.3",
            gens=[
                ("H", "Dx"),
                ("Ht", "Dy"),
                ("X", "exp(x)*Dz"),
                ("Xm", "exp(-x)*(z*Dx + a*Dy + (z^2/2 + b)*Dz)"),
                ("Y", "exp(y)*(Dx - Dy + (z + a)*Dz)"),
                ("Ym", "1/2*exp(-y)*(Dx + Dy + (z - a)*Dz)"),
            ],
            rels=_SL2X2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="sl2 x sl2 family, canonical form 3",
            params=[("a", "2"), ("b", "-2")],
            constraints=["a^2 + 2*b"],
            notes=(
                "constraint a^2 + 2*b = 0 makes [Xm, Y] and [Xm, Ym] vanish; "
                "Ym rescaled by 1/2"
            ),
        ),
        _entry(
            "sl2xsl2.4",
            gens=[
                ("H", "Dx"),
                ("Ht", "Dy"),
                ("X", "exp(x)*Dx"),
                ("Xm", "-1/2*exp(-x)*Dx"),
                ("Y", "exp(y)*Dy"),
                ("Ym", "-1/2*exp(-y)*Dy"),
            ],
            rels=_SL2X2_RELS,
            expected_rank=2,
            expect_semisimple=True,
            source="sl2 x sl2 family, canonical form 4 (rank 2)",
            notes="Xm and Ym rescaled by -1/2 so the stated relations close",
        ),
        _entry(
            "a2.1",
            gens=[
                ("X_alpha", "Dy"),
                ("X_beta", "y*Dx"),
                ("X_malpha", "-x*y*Dx - y^2*Dy"),
                ("X_mbeta", "x*Dy"),
            ],
            derived=_A2_DERIVED,
            rels=_A2_RELS,
            expected_rank=2,
            expect_semisimple=True,
            source="A2 family, canonical form 1",
            notes="planar form; g2-check scan order lists it as form 2",
        ),
        _entry(
            "a2.2",
            gens=[
                ("X_alpha", "Dy"),
                ("X_beta", "y*Dx"),
                ("X_malpha", "-x*y*Dx - y^2*Dy + y*Dz"),
                ("X_mbeta", "x*Dy"),
            ],
            derived=_A2_DERIVED,
            rels=_A2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="A2 family, canonical form 2",
            notes="g2-check scan order lists it as form 3",
        ),
        _entry(
            "a2.3",
            gens=[
                ("X_alpha", "Dy"),
                ("X_beta", "y*Dx + Dz"),
                ("X_malpha", "-x*y*Dx - y^2*Dy + (y*z - x)*Dz"),
                ("X_mbeta", "x*Dy - z^2*Dz"),
            ],
            derived=_A2_DERIVED,
            rels=_A2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="A2 family, canonical form 3",
            notes="rank-3 form; g2-check scan order lists it as form 1",
        ),
        _entry(
            "b2.1",
            gens=[
                ("X_alpha", "exp(x)*(Dx + Dy + z*Dz)"),
                ("X_malpha", "exp(-x)*(-Dx + Dy + z*Dz)"),
                ("X_beta", "exp((-x+y)/2)*(Dx - Dy - (z + 1/4)*Dz)"),
                ("X_mbeta", "exp((x-y)/2)*(z*Dx + (z + 1/2)*Dy + (z^2 + z/4)*Dz)"),
            ],
            derived=_B2_DERIVED,
            rels=_B2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="B2 family, canonical form 1",
            notes=(
                "H_beta = [X_beta, X_mbeta] is 1/4 of the coroot "
                "normalization; rescaling X_mbeta by 4 gives the standard "
                "rank-2 structure constants of the sl(4) model"
            ),
        ),
        _entry(
            "b2.2",
            gens=[
                ("X_alpha", "exp(x)*(-Dx + Dy + (z + 1)*Dz)"),
                ("X_malpha", "exp(-x)*(Dx + Dy + (z - 1)*Dz)"),
                ("X_beta", "exp((-x+y)/2)*(Dy + (z - 1)*Dz)"),
                (
                    "X_mbeta",
                    "exp((x-y)/2)*(Dx + ((z + 1)/2 - 1)*Dy"
                    " + ((z + 1)^2/2 - (z + 1))*Dz)",
                ),
            ],
            derived=_B2_DERIVED,
            rels=_B2_RELS,
            expected_rank=3,
            expect_semisimple=True,
            source="B2 family, canonical form 2",
            notes=(
                "the classical listing keeps a free nonzero constant a; the "
                "family is equivalent to a = 1 under z -> z/a (up to "
                "generator rescaling), stored at a = 1"
            ),
        ),
    ]
    _builtin_cache = entries
    return list(entries)


def get(entry_id: str) -> Realization:
    for entry in load_builtin():
        if entry.id == entry_id:
            return entry
    raise CatalogError(f"unknown catalog id '{entry_id}'")


# -- verification of entry invariants ----------------------------------------


def check_entry(entry: Realization, assignment: Optional[Dict[str, Fraction]] = None):
    """Raise CatalogError if a relation or the rank invariant fails."""
    if assignment is None:
        assignment = entry.default_assignment()
    if not entry.constraints_satisfied(assignment):
        raise CatalogError(
            f"{entry.id}: parameter assignment violates a constraint"
        )
    gens = entry.generators_at(assignment)
    for rel in entry.relations:
        residual = _relation_residual(rel, gens)
        if not residual.is_zero():
            raise CatalogError(
                f"{entry.id}: relation {rel.label()} fails; residual {residual}"
            )
    actual = generic_rank(list(gens.values()))
    if actual != entry.expected_rank:
        raise CatalogError(
            f"{entry.id}: generic rank {actual} != expected {entry.expected_rank}"
        )


def _relation_residual(rel: Relation, gens: Dict[str, VectorField]) -> VectorField:
    try:
        lhs = gens[rel.a].bracket(gens[rel.b])
    except KeyError as missing:
        raise CatalogError(f"relation references unknown generator {missing}")
    return _subtract_rhs(rel, gens, lhs)


def _subtract_rhs(rel: Relation, gens: Dict[str, VectorField], lhs: VectorField) -> VectorField:
    """``lhs``, the bracket ``[a, b]``, minus the relation's right-hand side."""
    for c, name in rel.rhs:
        if name not in gens:
            raise CatalogError(f"relation references unknown generator '{name}'")
        lhs = lhs - gens[name] * c
    return lhs


# -- serialization ------------------------------------------------------------


def write(path: str, entries: Sequence[Realization]):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(entries))


def dumps(entries: Sequence[Realization]) -> str:
    lines: List[str] = []
    for entry in entries:
        lines.append(f"realization {entry.id} {{")
        lines.append(f"  dim {entry.dim};")
        params = " ".join(f"{n} = {v};" for n, v in entry.params)
        lines.append(f"  params {{ {params} }};" if params else "  params { };")
        cons = " ".join(f'"{c}";' for c in entry.constraints)
        lines.append(f"  constraints {{ {cons} }};" if cons else "  constraints { };")
        for name, gen in entry.generators:
            lines.append(f'  gen {name} = "{format_field(gen)}";')
        for rel in entry.relations:
            lines.append(f"  rel [{rel.a}, {rel.b}] = {format_rhs(rel.rhs)};")
        lines.append(f"  expected_rank {entry.expected_rank};")
        flag = "true" if entry.expect_semisimple else "false"
        lines.append(f"  expect_semisimple {flag};")
        lines.append(f'  source "{entry.source}";')
        if entry.notes:
            lines.append(f'  notes "{entry.notes}";')
        lines.append("}")
    return "\n".join(lines) + "\n"


# the tokens of catalog text: numbers are unsigned, a sign is punctuation
_CAT_TOKEN = re.compile(
    r'\s*(?:"(?P<str>[^"]*)"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)'
    r"|(?P<num>\d+(?:/\d+)?)|(?P<punct>[{}\[\];=,*+-]))"
)


def _syntax_error(message: str, pos: int) -> CatalogError:
    return CatalogError(f"{message} at offset {pos}")


def read(path: str, verify: bool = True) -> List[Realization]:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), verify=verify)


def loads(text: str, verify: bool = True) -> List[Realization]:
    """The records of ``text``; an id already read is refused at the
    offset of its second record."""
    toks = _Tokens(text, _CAT_TOKEN, _syntax_error)
    entries = []
    ids = set()
    while toks.peek()[0] is not None:
        start = toks.peek()[2]
        entry = _read_entry(toks)
        if entry.id in ids:
            raise _syntax_error(f"realization {entry.id} defined twice", start)
        ids.add(entry.id)
        entries.append(entry)
    if verify:
        for entry in entries:
            check_entry(entry)
    return entries


# statements that set one value of a record: a second one is refused
_SCALAR_STATEMENTS = ("dim", "expected_rank", "expect_semisimple", "source", "notes")


def _read_entry(toks: _Tokens) -> Realization:
    """One ``realization`` record, built by ``_entry``; a refusal of the
    constructor names the record's offset."""
    start = toks.peek()[2]
    toks.expect("name", "realization")
    entry_id = toks.expect("name")
    toks.expect("punct", "{")
    fields = {"gens": [], "rels": [], "params": [], "constraints": []}
    while True:
        kind, value, pos = toks.next()
        if (kind, value) == ("punct", "}"):
            break
        if kind != "name":
            raise toks.error(f"unexpected token {value!r}", pos)
        if value in fields and value in _SCALAR_STATEMENTS:
            raise toks.error(f"repeated {value} statement", pos)
        if value in ("dim", "expected_rank"):
            fields[value] = _natural(toks)
        elif value == "expect_semisimple":
            kind, flag, at = toks.next()
            if kind != "name" or flag not in ("true", "false"):
                raise toks.error(f"expected true or false, found {flag!r}", at)
            fields[value] = flag == "true"
        elif value in ("source", "notes"):
            fields[value] = toks.expect("str")
        elif value == "params":
            toks.expect("punct", "{")
            while toks.peek()[1] != "}":
                name = toks.expect("name")
                toks.expect("punct", "=")
                sign = toks.next()[1] if toks.peek()[:2] == ("punct", "-") else ""
                fields["params"].append((name, sign + toks.expect("num")))
                toks.expect("punct", ";")
            toks.expect("punct", "}")
        elif value == "constraints":
            toks.expect("punct", "{")
            while toks.peek()[1] != "}":
                fields["constraints"].append(toks.expect("str"))
                toks.expect("punct", ";")
            toks.expect("punct", "}")
        elif value == "gen":
            name = toks.expect("name")
            toks.expect("punct", "=")
            fields["gens"].append((name, toks.expect("str")))
        elif value == "rel":
            fields["rels"].append(_relation_tokens(toks))
            continue  # the statement's ';' is read
        else:
            raise toks.error(f"unknown field {value!r}", pos)
        toks.expect("punct", ";")
    try:
        return _entry(entry_id, **fields)
    except CatalogError as exc:
        raise CatalogError(f"{exc} (realization at offset {start})") from None


def _natural(toks: _Tokens) -> int:
    """The number of a ``dim`` or ``expected_rank`` statement; a token
    that is no natural number, or has too many digits, names its offset."""
    kind, value, pos = toks.next()
    if kind != "num" or "/" in value:
        raise toks.error(f"expected a natural number, found {value!r}", pos)
    try:
        check_digits(value)
    except LvfError as exc:
        raise toks.error(str(exc), pos) from None
    return int(value)


def _relation_tokens(toks: _Tokens) -> _Tokens:
    """The tokens from the next one up to the statement's ``;``, which
    is read too, detached as a stream whose refusals name the
    statement's text."""
    start = toks.peek()[2]
    for i in range(toks.i, len(toks.items)):
        kind, value, pos = toks.items[i]
        if (kind, value) == ("punct", ";"):
            rel = toks.detach(i, _relation_error(toks.text[start:pos]))
            toks.next()  # the ';'
            return rel
    raise toks.error("end of input inside a statement", len(toks.text))
