"""Rank-2 root systems and the inductive root-vector construction.

Roots are integer pairs in the simple-root basis; inner products come
from a rational Gram matrix per type, so Cartan integers are exact.
Given vector-field realizations of the simple root pairs, the
construction extends them to all roots:

* for a non-simple positive root r, the *first* simple root a_i with
  r - a_i positive defines X_r = [X_{a_i}, X_{r-a_i}] and
  X_{-r} = [X_{-a_i}, X_{-r+a_i}] -- this removes every choice;
* H_{a_i} = [X_{a_i}, X_{-a_i}] must act on every root vector X_r with
  the Cartan integer <r, a_i> as eigenvalue (checked exactly);
* the constants N_{r,s} with [X_r, X_s] = N_{r,s} X_{r+s} are then
  read off, and [X_r, X_s] = 0 is checked whenever r+s is neither zero
  nor a root.

Simple pairs are normalized first (X_{-a_i} rescaled so that
[[X,X_-],X] = 2X); realizations often arrive with other scalings and
the eigenvalue check is meaningless without the standard one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from lvf.errors import (
    CartanRelationViolated,
    LvfError,
    NonRootBracketNonzero,
    ZeroRootVector,
)
from lvf.fields import VectorField
from lvf.parsing import parse_field

Root = Tuple[int, int]


@dataclass(frozen=True)
class RootSystem:
    """Rank-2 root data; first simple root is the long one where lengths differ."""

    label: str
    gram: Tuple[Tuple[int, int], Tuple[int, int]]
    positive: Tuple[Root, ...]

    @property
    def simple(self) -> Tuple[Root, Root]:
        return ((1, 0), (0, 1))

    def all_roots(self) -> Tuple[Root, ...]:
        return self.positive + tuple((-a, -b) for a, b in self.positive)

    def is_root(self, r: Root) -> bool:
        return r in self.positive or (-r[0], -r[1]) in self.positive

    def inner(self, r: Root, s: Root) -> Fraction:
        g = self.gram
        return Fraction(
            r[0] * (g[0][0] * s[0] + g[0][1] * s[1])
            + r[1] * (g[1][0] * s[0] + g[1][1] * s[1])
        )

    def cartan_integer(self, beta: Root, alpha: Root) -> int:
        """<beta, alpha> = 2(beta, alpha)/(alpha, alpha)."""
        if not self.is_root(beta):
            raise LvfError(f"{beta} is not a root of {self.label}")
        if not self.is_root(alpha):
            raise LvfError(f"{alpha} is not a root of {self.label}")
        value = 2 * self.inner(beta, alpha) / self.inner(alpha, alpha)
        if value.denominator != 1:
            raise LvfError("non-integral Cartan number")
        return int(value)

    def cartan_matrix(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """A[i][j] = <alpha_j, alpha_i>."""
        a1, a2 = self.simple
        return (
            (self.cartan_integer(a1, a1), self.cartan_integer(a2, a1)),
            (self.cartan_integer(a1, a2), self.cartan_integer(a2, a2)),
        )

    def is_long(self, r: Root) -> bool:
        norms = {self.inner(s, s) for s in self.positive}
        return self.inner(r, r) == max(norms)

    def positive_roots(self) -> Tuple[Root, ...]:
        return self.positive

    def root_name(self, r: Root) -> str:
        """Readable name like 'alpha+2beta' or '-alpha'."""
        a, b = r
        if (a, b) == (0, 0):
            return "0"
        neg = False
        if a < 0 or (a == 0 and b < 0):
            a, b, neg = -a, -b, True
        parts = []
        if a == 1:
            parts.append("alpha")
        elif a:
            parts.append(f"{a}alpha")
        if b == 1:
            parts.append("beta")
        elif b:
            parts.append(f"{b}beta")
        name = "+".join(parts)
        return f"-({name})" if neg and len(parts) > 1 else ("-" + name if neg else name)


ROOT_SYSTEMS: Dict[str, RootSystem] = {
    "A1xA1": RootSystem("A1xA1", ((2, 0), (0, 2)), ((1, 0), (0, 1))),
    "A2": RootSystem("A2", ((2, -1), (-1, 2)), ((1, 0), (0, 1), (1, 1))),
    "B2": RootSystem("B2", ((4, -2), (-2, 2)), ((1, 0), (0, 1), (1, 1), (1, 2))),
    "G2": RootSystem(
        "G2",
        ((6, -3), (-3, 2)),
        ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
    ),
}


def get_root_system(label: str) -> RootSystem:
    try:
        return ROOT_SYSTEMS[label]
    except KeyError:
        raise LvfError(f"unknown root system '{label}'") from None


def normalize_simple_pair(
    xp: VectorField, xm: VectorField
) -> Tuple[VectorField, VectorField, Fraction]:
    """Rescale ``xm`` so H = [xp, xm] satisfies [H, xp] = 2 xp.

    Returns (scaled xm, its Cartan element H, applied scale): H is the
    bracket of the given pair times the scale, which equals the bracket
    with the scaled ``xm``, term order included.  Raises when the pair
    does not span an sl2 triple in the required way.
    """
    if xp.is_zero() or xm.is_zero():
        raise ZeroRootVector("zero simple root vector")
    h = xp.bracket(xm)
    if h.is_zero():
        raise CartanRelationViolated("[X, X-] = 0 for a simple pair")
    t = h.bracket(xp).constant_multiple_of(xp)
    if t is None or t == 0:
        raise CartanRelationViolated(
            "[[X, X-], X] is not a nonzero multiple of X for a simple pair"
        )
    scale = Fraction(2) / t
    return xm * scale, h * scale, scale


@dataclass
class ChevalleySystem:
    """Realized root vectors, Cartan elements and structure constants."""

    system: RootSystem
    vectors: Dict[Root, VectorField]
    cartan: Dict[Root, VectorField]
    constants: Dict[Tuple[Root, Root], Fraction]
    scalings: Dict[Root, Fraction] = field(default_factory=dict)

    def vector(self, r: Root) -> VectorField:
        return self.vectors[r]

    def n_constant(self, r: Root, s: Root) -> Fraction:
        return self.constants[(r, s)]

    def constants_table(self) -> List[Tuple[Root, Root, Fraction]]:
        return [(r, s, self.constants[(r, s)]) for r, s in sorted(self.constants)]


def build_chevalley(
    system: RootSystem, simple_vectors: Dict[Root, VectorField]
) -> ChevalleySystem:
    """Run the inductive construction from realized simple pairs.

    ``simple_vectors`` maps the four roots (1,0), (-1,0), (0,1), (0,-1)
    to vector fields.  The negatives of the simple vectors are rescaled
    to the standard sl2 normalization first; all checks are exact.
    """
    vectors: Dict[Root, VectorField] = {}
    cartan: Dict[Root, VectorField] = {}
    scalings: Dict[Root, Fraction] = {}
    for a in system.simple:
        neg = (-a[0], -a[1])
        try:
            xp, xm = simple_vectors[a], simple_vectors[neg]
        except KeyError as missing:
            raise LvfError(f"missing simple vector for root {missing}") from None
        xm, cartan[a], scale = normalize_simple_pair(xp, xm)
        vectors[a] = xp
        vectors[neg] = xm
        scalings[neg] = scale

    # inductive extension over positive roots in height order
    for r in system.positive:
        if r in system.simple:
            continue
        source = None
        for a in system.simple:
            prev = (r[0] - a[0], r[1] - a[1])
            if prev in system.positive:
                source = (a, prev)
                break
        if source is None:
            raise LvfError(f"no simple step into root {r}")
        a, prev = source
        neg_a = (-a[0], -a[1])
        neg_prev = (-prev[0], -prev[1])
        neg_r = (-r[0], -r[1])
        vectors[r] = vectors[a].bracket(vectors[prev])
        vectors[neg_r] = vectors[neg_a].bracket(vectors[neg_prev])
        if vectors[r].is_zero():
            raise ZeroRootVector(f"X_{system.root_name(r)} vanishes")
        if vectors[neg_r].is_zero():
            raise ZeroRootVector(f"X_{system.root_name(neg_r)} vanishes")

    # Cartan eigenvalue check for every root vector
    for a in system.simple:
        h = cartan[a]
        for r in system.all_roots():
            expected = system.cartan_integer(r, a)
            residual = h.bracket(vectors[r]) - vectors[r] * Fraction(expected)
            if not residual.is_zero():
                raise CartanRelationViolated(
                    f"[H_{system.root_name(a)}, X_{system.root_name(r)}] != "
                    f"{expected} X_{system.root_name(r)}"
                )

    # structure constants and non-root vanishing
    constants: Dict[Tuple[Root, Root], Fraction] = {}
    roots = system.all_roots()
    for r in roots:
        for s in roots:
            if r == s:
                continue
            total = (r[0] + s[0], r[1] + s[1])
            if total == (0, 0):
                continue
            w = vectors[r].bracket(vectors[s])
            if system.is_root(total):
                n = w.constant_multiple_of(vectors[total])
                if n is None:
                    raise CartanRelationViolated(
                        f"[X_{system.root_name(r)}, X_{system.root_name(s)}] is not "
                        f"a multiple of X_{system.root_name(total)}"
                    )
                constants[(r, s)] = n
            elif not w.is_zero():
                raise NonRootBracketNonzero(
                    f"[X_{system.root_name(r)}, X_{system.root_name(s)}] != 0 "
                    f"although {system.root_name(r)} + {system.root_name(s)} is not a root"
                )
    return ChevalleySystem(system, vectors, cartan, constants, scalings)


def b2_sl4_model() -> Dict[Root, VectorField]:
    """Simple root vectors of the standard rank-2 model inside sl(4).

    Realized on C^4; the first simple root is the long one.  Used to fix
    the structure constants of the B2 realizations on C^3.
    """
    return {
        (1, 0): parse_field("y*Dz", dim=4),
        (-1, 0): parse_field("z*Dy", dim=4),
        (0, 1): parse_field("x*Dy + z*Dw", dim=4),
        (0, -1): parse_field("y*Dx + w*Dz", dim=4),
    }


def format_constants_table(chev: ChevalleySystem) -> str:
    """Plain-text table of the N_{r,s} constants, stable order."""
    sys_ = chev.system
    lines = [f"structure constants for {sys_.label} (N[r][s] with [X_r, X_s] = N X_(r+s))"]
    for r, s, n in chev.constants_table():
        lines.append(f"N[{sys_.root_name(r)}][{sys_.root_name(s)}] = {n}")
    return "\n".join(lines)
