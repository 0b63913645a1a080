"""What kronrec's result records promise: their checks, their immutability and their repr."""

import importlib
import math
import pkgutil
import re
from fractions import Fraction

import pytest

import kronrec
from kronrec.density import (
    CriticalEpsilonEstimate,
    DensityBound,
    DensityWitness,
    NonDensityCertificate,
    RealFactorization,
)
from kronrec.errors import DomainError
from kronrec.intervals import Interval
from kronrec.lattice_structure import CanonicalBasisM, LatticeBases, NewtonPolygon, SegmentCertificate
from kronrec.poly_core import ComplexRootSet, IntPolynomial, MahlerMeasure, RootEnclosure
from kronrec.toeplitz import GramResult, GrowthReport, LaurentSymbol, TrenchData

UNIT = Interval(1.0, 2.0)
POLY = IntPolynomial((-2, 1))
POLYGON_FIELDS = (3, ((0, 1), (1, 0)), ((0, 1), (1, 0)), (Fraction(-1),), (1,))
SEGMENT_FIELDS = (1, Fraction(-1), 1, 0, 1, True, True, 0, 0)
POLYGON = NewtonPolygon(*POLYGON_FIELDS)
SEGMENT = SegmentCertificate(*SEGMENT_FIELDS)

# one valid instance of every public record class, built from its fields in order
SAMPLES = {
    Interval: (1.0, 2.0),
    IntPolynomial: ((-2, 1),),
    RootEnclosure: (2 + 0j, 1e-12, 1),
    ComplexRootSet: (POLY, (RootEnclosure(2 + 0j, 1e-12, 1),)),
    MahlerMeasure: (2.0, 1e-15),
    LaurentSymbol: ((Fraction(-2), Fraction(5), Fraction(-2)), 1, 1),
    TrenchData: (Fraction(3),),
    GramResult: (Fraction(3),),
    GrowthReport: ((5,), UNIT),
    DensityBound: (UNIT, UNIT, UNIT, UNIT, UNIT),
    RealFactorization: ((-2.0, 1.0), (1.0,), 0.5),
    DensityWitness: ((0.5,), (0.25,), (1,), 0.0, 0.5, 0.5),
    CriticalEpsilonEstimate: (Fraction(1, 2), Fraction(1, 2), "exact"),
    NonDensityCertificate: (Fraction(1, 2), True),
    NewtonPolygon: POLYGON_FIELDS,
    SegmentCertificate: SEGMENT_FIELDS,
    CanonicalBasisM: (1, POLYGON, ((Fraction(1),),), ((0,),), (SEGMENT,)),
    LatticeBases: (((1,),), 1),
}


def _public_classes():
    for info in pkgutil.iter_modules(kronrec.__path__):
        module = importlib.import_module(f"kronrec.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_"):
                if not issubclass(obj, Exception):
                    yield obj


def _field_names(cls):
    """Annotated fields along the class's own hierarchy, base first."""
    return [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__annotations__", {})]


def test_samples_cover_every_public_record_class():
    assert set(_public_classes()) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    args = SAMPLES[cls]
    fields = _field_names(cls)
    assert len(fields) == len(args)
    record = cls(*args)
    for name, value in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == value


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (1.0, math.nan), (2.0, 1.0)])
def test_interval_rejects_nan_and_reversed_ends(lo, hi):
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid interval [{lo}, {hi}]')}$"):
        Interval(lo, hi)


def test_record_repr_names_the_fields():
    assert repr(Interval(1.0, 2.0)) == "Interval(lo=1.0, hi=2.0)"
    assert repr(POLY) == "IntPolynomial(coeffs=(-2, 1))"
    assert repr(GramResult(Fraction(3))) == "GramResult(determinant=Fraction(3, 1))"


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ((), "a polynomial needs at least one coefficient"),
        ((1.5, 1), "coefficients must be int, got float"),
        ((1, 0), "leading coefficient must be nonzero (strip trailing zeros)"),
    ],
)
def test_int_polynomial_rejects(coeffs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        IntPolynomial(coeffs)


@pytest.mark.parametrize(
    "coeffs, r, s, message",
    [
        ((1,), -1, 1, "band widths must be nonnegative"),
        ((1, 2), 0, -1, "band widths must be nonnegative"),
        ((1, 2), 1, 1, "coefficient count must equal r + s + 1"),
        ((0, 1, 2), 1, 1, "outermost symbol coefficients must be nonzero"),
        ((1, 2, 0), 1, 1, "outermost symbol coefficients must be nonzero"),
    ],
)
def test_laurent_symbol_rejects(coeffs, r, s, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        LaurentSymbol(coeffs, r, s)


def test_laurent_symbol_coerces_its_coefficients_to_fractions():
    symbol = LaurentSymbol((-2, 5, -2), 1, 1)
    assert symbol.coeffs == (Fraction(-2), Fraction(5), Fraction(-2))
    assert all(type(c) is Fraction for c in symbol.coeffs)
    assert symbol == LaurentSymbol((Fraction(-2), Fraction(5), Fraction(-2)), 1, 1)
