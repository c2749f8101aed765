"""The plain records: equality and hashing where they key caches, and validation
that python -O keeps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gassmann.certify import mult_subspace_echelon
from gassmann.heisenberg import heisenberg_group
from gassmann.rings import FieldSpec, LinearMap, TruncRingSpec, make_field, make_trunc_ring
from gassmann.schreier import _unit_tables

SRC = Path(__file__).resolve().parent.parent / "src"


def test_specs_built_twice_are_equal_and_share_the_cached_group():
    # make_field hands out one object per (p, m); a spec built again from its fields
    # is another object, which must find the same cached group, echelon basis and
    # element tables
    spec = make_field(2, 3)
    again = FieldSpec(spec.p, spec.m, spec.modulus)
    assert make_field(2, 3) is spec and again is not spec
    assert again == spec and hash(again) == hash(spec)
    assert heisenberg_group(again) is heisenberg_group(spec)
    assert mult_subspace_echelon(again) is mult_subspace_echelon(spec)
    assert _unit_tables(again) is _unit_tables(spec)
    ring = make_trunc_ring(3, 2)
    assert TruncRingSpec(3, 2) == ring and hash(TruncRingSpec(3, 2)) == hash(ring)
    assert heisenberg_group(TruncRingSpec(3, 2)) is heisenberg_group(ring)
    assert spec.modulus == (1, 0, 1, 1) and FieldSpec(2, 3, (1, 1, 0, 1)) != spec
    assert TruncRingSpec(3, 3) != ring


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_a_spec_never_equals_the_other_kind_or_a_tuple(p, n):
    field, ring = make_field(p, n), make_trunc_ring(p, n)
    assert field != ring and ring != field
    assert heisenberg_group(field) is not heisenberg_group(ring)
    for spec, fields in ((field, (p, n, field.modulus)), (ring, (p, n))):
        assert spec != fields and fields != spec
        assert spec not in {fields: 0}
    assert {field: 0, ring: 1}[ring] == 1


def test_a_linear_map_is_equal_by_its_p_and_rows_only():
    f, again = LinearMap.identity(2, 2), LinearMap(2, ((1, 0), (0, 1)))
    assert f == again and hash(f) == hash(again) and f is not again
    assert len({f, LinearMap.from_flat(2, (1, 0, 0, 1), 2)}) == 1
    assert f != LinearMap(3, f.rows)
    for other in ((2, f.rows), f.rows, f.flatten(), make_field(2, 2), make_trunc_ring(2, 2)):
        assert f != other and other != f


VALIDATION_SCRIPT = """
from fractions import Fraction
from gassmann.certify import ProductFamily
from gassmann.errors import SpecMismatch
from gassmann.planner import RationalInterval
from gassmann.rings import LinearMap, make_field
from gassmann.schreier import SpectrumPolynomial

F2, F3 = make_field(2, 1), make_field(3, 1)
cases = [
    (SpecMismatch, lambda: ProductFamily((), ())),
    (SpecMismatch, lambda: ProductFamily((F2,), ())),
    (SpecMismatch, lambda: ProductFamily((F2, F2), (LinearMap.zero(2, 1),) * 2)),
    (SpecMismatch, lambda: ProductFamily((F2,), (LinearMap.zero(3, 1),))),
    (ValueError, lambda: RationalInterval(Fraction(1), Fraction(0))),
    (SpecMismatch, lambda: SpectrumPolynomial(())),
    (SpecMismatch, lambda: SpectrumPolynomial((2, 1))),
]
raised = []
for error, build in cases:
    try:
        build()
    except error as exc:
        raised.append(type(exc).__name__)
ProductFamily((F2, F3), (LinearMap.zero(2, 1), LinearMap.zero(3, 1)))
RationalInterval(Fraction(0), Fraction(0))
SpectrumPolynomial((1, -1))
print(" ".join(raised), __debug__)
"""


@pytest.mark.parametrize("flags, debug", [([], True), (["-O"], False)], ids=["plain", "-O"])
def test_record_validation_raises_under_python_O(flags, debug):
    # ProductFamily, RationalInterval and SpectrumPolynomial validate by explicit raises
    # in their constructors, so python -O, which drops asserts, keeps every check
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, *flags, "-c", VALIDATION_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (
        0, f"{' '.join(['SpecMismatch'] * 4)} ValueError SpecMismatch SpecMismatch {debug}\n"
    ), done.stderr
