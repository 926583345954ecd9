"""Builtin catalog content and the serialization round trip."""

import contextlib
import random
import re
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lvf import catalog, parsing
from lvf.errors import CatalogError
from lvf.parsing import parse_field, parse_scalar


def test_sixteen_entries():
    entries = catalog.load_builtin()
    assert len(entries) == 16
    families = {}
    for e in entries:
        families.setdefault(e.family, []).append(e.id)
    assert len(families["heisenberg"]) == 3
    assert len(families["sl2"]) == 4
    assert len(families["sl2xsl2"]) == 4
    assert len(families["a2"]) == 3
    assert len(families["b2"]) == 2


def test_heisenberg_1_content():
    entry = catalog.get("heisenberg.1")
    gens = entry.generator_map()
    assert gens["Z"] == parse_field("Dx")
    assert gens["X"] == parse_field("Dy")
    assert gens["Y"] == parse_field("y*Dx + Dz")
    assert entry.expected_rank == 3


def test_heisenberg_ranks():
    assert [catalog.get(f"heisenberg.{i}").expected_rank for i in (1, 2, 3)] == [3, 2, 2]


def test_a2_3_content():
    gens = catalog.get("a2.3").generator_map()
    assert gens["X_mbeta"] == parse_field("x*Dy - z^2*Dz")


def test_b2_1_content():
    gens = catalog.get("b2.1").generator_map()
    target = parse_field("exp((x-y)/2)*(z*Dx + (z + 1/2)*Dy + (z^2 + z/4)*Dz)")
    assert gens["X_mbeta"] == target


def test_all_entries_check(subtests=None):
    for entry in catalog.load_builtin():
        catalog.check_entry(entry)


def test_constraint_gate():
    entry = catalog.get("sl2xsl2.3")
    assert entry.constraints == ("a^2 + 2*b",)
    assert entry.constraints_satisfied({"a": Fraction(2), "b": Fraction(-2)})
    assert not entry.constraints_satisfied({"a": Fraction(2), "b": Fraction(0)})
    with pytest.raises(CatalogError):
        catalog.check_entry(entry, {"a": Fraction(2), "b": Fraction(0)})


def test_constraints_parsed_on_load(monkeypatch):
    entry = catalog.loads(catalog.dumps([catalog.get("sl2xsl2.3")]))[0]
    assert entry.constraint_polys() == [parse_scalar("a^2 + 2*b", 3, ("a", "b"))]

    def refuse(*args):
        raise AssertionError("constraint parsed again")

    monkeypatch.setattr(catalog, "parse_scalar", refuse)
    assert entry.constraints_satisfied({"a": Fraction(2), "b": Fraction(-2)})


def test_unknown_id():
    with pytest.raises(CatalogError):
        catalog.get("b2.9")


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        entries = catalog.load_builtin()
        path = tmp_path / "catalog.lvf"
        catalog.write(str(path), entries)
        back = catalog.read(str(path))
        assert [e.id for e in back] == [e.id for e in entries]
        for a, b in zip(entries, back):
            assert dict(a.generators) == dict(b.generators)
            assert a.relations == b.relations
            assert a.params == b.params
        # canonical writer: write(read(write(x))) == write(x)
        assert catalog.dumps(back) == catalog.dumps(entries)

    def test_empty_catalog(self):
        assert catalog.loads("") == []

    def test_corrupted_relation_detected(self):
        text = catalog.dumps(catalog.load_builtin())
        bad = text.replace('gen Y = "y*Dx + Dz";', 'gen Y = "y*Dx + x*Dz";', 1)
        with pytest.raises(CatalogError) as info:
            catalog.loads(bad)
        assert "[Z, Y]" in str(info.value)

    def test_parse_error_with_location(self):
        with pytest.raises(CatalogError) as info:
            catalog.loads("realization a { dim 3 ??? }")
        assert "offset" in str(info.value)

    def test_shifting_free_parameter_is_harmless(self):
        # l is a free family constant: replacing l by l+1 in the only
        # generator carrying it lands on another member of the family,
        # so every relation still holds
        text = catalog.dumps([catalog.get("sl2.2")])
        shifted = text.replace("l*exp(-x)", "l*exp(-x) + exp(-x)")
        assert catalog.loads(shifted)[0].id == "sl2.2"

    def test_tampered_coefficient_detected(self):
        # breaking the quadratic coefficient ruins [X, Y] = H
        text = catalog.dumps([catalog.get("sl2.2")])
        bad = text.replace("1/2*y^2*exp(-x)", "y^2*exp(-x)")
        with pytest.raises(CatalogError) as info:
            catalog.loads(bad)
        assert "[X, Y]" in str(info.value)


# -- the reader on malformed and re-spaced text --------------------------------

_SMALL = 'realization bad.1 {{ {} }}'


@pytest.mark.parametrize("body, message", [
    ('dim -3; expected_rank 0; expect_semisimple true;',
     "expected a natural number, found '-' at offset 24"),
    ('dim 3/2; gen X = "Dx";', "expected a natural number, found '3/2' at offset 24"),
    ('dim 0; gen X = "Dx";', "bad.1: dimension must be at least 1, not 0 (realization at offset 0)"),
    ('dim 65; gen X = "Dx";', "bad.1: dimension must be at most 64, not 65"),
    ('expected_rank 4; gen X = "Dx";', "bad.1: expected_rank 4 is outside 0..3"),
    ('dim 3; expected_rank 0; expect_semisimple true;', "bad.1: no generator (realization at offset 0)"),
    ('gen X = "Dx"; gen X = "Dy";', "bad.1: generator X defined twice"),
    ('params { l = 0; l = 1; }; gen X = "l*Dx";', "bad.1: parameter l defined twice"),
    ('gen X = "Dx"; expect_semisimple yes;', "expected true or false, found 'yes' at offset 52"),
    ('gen X = "Dx +";', "bad.1: generator X: unexpected token ''"),
    ('params { a = 1; }; constraints { "a +"; }; gen X = "Dx";',
     "bad.1: constraint 'a +': unexpected token ''"),
    ('gen X = "Dx"; rel [X X] = X;', "bad relation '[X X] = X': expected ',', found 'X'"),
    ('gen X = "Dx"; rel [X, X] = X X;', "bad relation '[X, X] = X X': expected '+' or '-'"),
    ('gen X = "Dx"; rel [X, X] = ;', "bad relation '[X, X] =': expected name, found ''"),
    ('dim 3; dim 2; gen X = "Dx";', "repeated dim statement at offset 27"),
    ('expected_rank 1; gen X = "Dx"; expected_rank 1;', "repeated expected_rank statement at offset 51"),
    ('expect_semisimple false; expect_semisimple true; gen X = "Dx";',
     "repeated expect_semisimple statement at offset 45"),
    ('source "a"; gen X = "Dx"; source "b";', "repeated source statement at offset 46"),
    ('notes "a"; notes "a"; gen X = "Dx";', "repeated notes statement at offset 31"),
    ('gen X = "Dx"; rel [X, X] = 1/0*X;',
     "bad relation '[X, X] = 1/0*X': zero denominator in '1/0' (realization at offset 0)"),
    ('params { x = 1; }; gen X = "Dx";',
     "bad.1: parameter x named like a builtin (realization at offset 0)"),
    ('params { exp = 1; Dy = 2; }; gen X = "Dx";', "bad.1: parameter Dy, exp named like a builtin"),
    # a refusal of the generators comes before one of the relations
    ('gen X = "Dx +"; rel [X, X] = 1/0*X;', "bad.1: generator X: unexpected token ''"),
    ('params { x = 1; }; gen X = "Dx +"; rel [X X] = X;',
     "bad.1: parameter x named like a builtin"),
])
def test_malformed_entry_refused(body, message):
    with pytest.raises(CatalogError) as info:
        catalog.loads(_SMALL.format(body), verify=False)
    assert message in str(info.value)
    assert "offset" in str(info.value)


def test_repeated_id_refused_at_its_second_record():
    first = 'realization a { gen X = "Dx"; }\n'
    text = first + 'realization b { gen X = "Dx"; }\nrealization a { gen X = "Dy"; }\n'
    with pytest.raises(CatalogError) as info:
        catalog.loads(text, verify=False)
    assert str(info.value) == f"realization a defined twice at offset {2 * len(first)}"
    builtin = catalog.load_builtin()
    with pytest.raises(CatalogError, match=r"realization b2\.2 defined twice at offset"):
        catalog.loads(catalog.dumps(builtin + builtin[-1:]), verify=False)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(),
    reason="the interpreter converts integers of any length",
)
@pytest.mark.parametrize("field", ["dim", "expected_rank"])
def test_over_long_count_refused(field):
    text = _SMALL.format(f'{field} {"1" * 5000}; gen X = "Dx";')
    at = text.index("1" * 5000)
    with pytest.raises(CatalogError, match=f"literal has 5000 digits.* at offset {at}$"):
        catalog.loads(text, verify=False)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(),
    reason="the interpreter converts integers of any length",
)
def test_over_long_relation_coefficient_names_its_relation():
    text = _SMALL.format(f'gen X = "Dx"; rel [X, X] = {"1" * 5000}*X;')
    with pytest.raises(CatalogError) as info:
        catalog.loads(text, verify=False)
    limit = sys.get_int_max_str_digits()
    assert str(info.value) == (
        f"bad relation '[X, X] = {'1' * 5000}*X': literal has 5000 digits; "
        f"at most {limit} are accepted (realization at offset 0)"
    )


def test_parameter_named_like_a_builtin_of_another_dimension():
    # z and Dz are no builtin names in dimension 2
    text = _SMALL.format('dim 2; params { z = 1; Dz = 2; }; gen X = "z*Dz*Dx"; expected_rank 1;')
    (entry,) = catalog.loads(text, verify=False)
    assert entry.param_names() == ("z", "Dz")
    assert entry.generators[0][1] == parse_field("z*Dz*Dx", 2, ("z", "Dz"))


def test_relations_read_from_the_record_tokens(monkeypatch):
    # the file is tokenized once, and each relation is read from the
    # tokens of its statement; a builtin relation text is tokenized once
    texts = []

    def tokens(text, *args):
        texts.append(text)
        return parsing._Tokens(text, *args)

    monkeypatch.setattr(catalog, "_Tokens", tokens)
    text = catalog.dumps(catalog.load_builtin())
    assert catalog.loads(text, verify=False) == catalog.load_builtin()
    assert texts == [text]
    assert catalog._parse_relation("[H, X] = 2*X") == catalog.Relation("H", "X", ((2, "X"),))
    assert texts == [text, "[H, X] = 2*X"]


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("entry", catalog.load_builtin(), ids=lambda e: e.id)
def test_text_cut_at_any_token_boundary_refused(entry):
    text = catalog.dumps([entry])
    ends = [m.end() for m in catalog._CAT_TOKEN.finditer(text)]
    assert ends[-1] == len(text.rstrip())
    with _time_limit(2):
        for end in ends[:-1]:
            with pytest.raises(CatalogError, match="offset"):
                catalog.loads(text[:end], verify=False)


def test_builtin_relations_read_back_from_text():
    builtin = catalog.load_builtin()
    back = catalog.loads(catalog.dumps(builtin), verify=False)
    for a, b in zip(builtin, back):
        assert a.relations == b.relations
        for rel in a.relations:
            assert catalog._parse_relation(rel.label()) == rel


def _respaced(tokens, rng):
    """``tokens`` joined by random whitespace, often none (except
    between two tokens that would merge), so statements share lines."""
    out = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        word = re.match(r"[\w.]", tok) and re.search(r"[\w.]$", prev)
        out.append(rng.choice([" ", "\n", "\t  ", " \n "] + [""] * (not word)))
        out.append(tok)
    return "".join(out)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_respaced_catalog_reads_back_equal(seed):
    builtin = catalog.load_builtin()
    text = catalog.dumps(builtin)
    tokens = [m.group(0).lstrip() for m in catalog._CAT_TOKEN.finditer(text)]
    respaced = _respaced(tokens, random.Random(seed))
    assert catalog.loads(respaced, verify=False) == builtin
