"""Write perfbench/reference.json, the expected answers every run checks.

Verdicts and catalog invariants are the paper's claims; digests pin the
exact outputs of the commit this is run at.  Regenerate only at a commit
whose outputs are known good, and say so in the change that does it:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from lvf import catalog, solve  # noqa: E402
import workloads as w  # noqa: E402


def g2_reference() -> dict:
    ref = {}
    for form in (1, 2, 3):
        report = w.obstruction.g2_obstruction(form, solve.AnsatzSpace(3, max_degree=w.G2_DEGREE))
        ref[f"form{form}"] = {"verdict": "obstructed", "digest": w.digest(report.to_records())}
    control = w.obstruction.b2_sanity_control()
    ref["b2-control"] = {"verdict": "validated", "digest": w.digest([control.to_text()])}
    return ref


def catalog_reference() -> dict:
    ref = {}
    for entry in catalog.load_builtin():
        value = w.PARAM_POOL[0] if entry.id in w.FREE_PARAM else None
        report = w.verify.verify_realization(entry, w.entry_params(entry.id, value))
        ref[entry.id] = {
            "result": "PASS",
            "expected_rank": entry.expected_rank,
            "expect_semisimple": entry.expect_semisimple,
            "digest": w.digest(w.verify_records(report)),
        }
    return ref


def solve_reference() -> dict:
    ref = {}
    ansatz = solve.AnsatzSpace(3, max_degree=w.SOLVE_DEGREE)
    for entry in catalog.load_builtin():
        values = w.PARAM_POOL if entry.id in w.FREE_PARAM else (None,)
        for value in values:
            params = w.entry_params(entry.id, value)
            gens = entry.generators_at({k: Fraction(v) for k, v in params.items()})
            result = solve.centralizer(list(gens.values()), ansatz)
            ref[w.param_key(entry.id, params)] = {
                "rank": solve.generic_rank(result.basis),
                "digest": w.digest(w.basis_lines(result.basis)),
            }
    return ref


def main():
    reference = {
        "g2-obstruction": g2_reference(),
        "catalog-verify": catalog_reference(),
        "constraint-solve": solve_reference(),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
