"""The result records: reprs, immutability, equality and hashing.

The twelve plain records are named tuples and IntMatrix and CharPoly are
__slots__ classes that validate in their constructors; the reprs below
were taken from the frozen dataclasses they replace.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import padicsmith
from padicsmith import (
    Convention,
    analyze,
    char_poly,
    enumerate_density,
    local_profile,
    newton_polygon,
    sample_correspondent,
    smith_form,
    verify_rem_stability,
)
from padicsmith.charpoly import CharPoly
from padicsmith.classify import ClassificationReport
from padicsmith.density import (
    DensityRow,
    GLCountReport,
    OrbitCheckReport,
    PartitionCell,
    gl_count,
    orbit_stabilizer_check,
)
from padicsmith.exact import IntMatrix
from padicsmith.newton import EigenvalueValuations, NewtonPolygon
from padicsmith.smith import LocalSmithProfile, SmithData
from padicsmith.transform import (
    StabilityReport,
    SuccessRateReport,
    TransformSample,
    single_attempt_success_rate,
)

PINNED_REPRS = [
    (
        lambda: enumerate_density(2, 1, 2),
        "DensityRow(p=2, m=1, n=2, convention=<Convention.ALL: 'all'>, total=16, char_count=9, "
        "corr_count=13, partitions={(0, 0): PartitionCell(size=1, char_count=1), "
        "(1, 0): PartitionCell(size=9, char_count=6), (1, 1): PartitionCell(size=6, char_count=2)})",
    ),
    (
        lambda: analyze([[2, 1, 0], [0, 4, 2], [6, 0, 8]], 2),
        "ClassificationReport(p=2, n=3, rank=3, f_vals=(1, 3, 2), delta_vals=(0, 1, 2), "
        "profile=(0, 1, 1), eig_vals=EigenvalueValuations(p=2, values=(Fraction(2, 3), "
        "Fraction(2, 3), Fraction(2, 3)), zero_count=0), p_characterized=False, "
        "p_correspondent=False, degenerate=False)",
    ),
    (
        lambda: analyze([[0, 1], [0, 0]], 3),
        "ClassificationReport(p=3, n=2, rank=1, f_vals=(INFINITY,), delta_vals=(0,), profile=(0,), "
        "eig_vals=EigenvalueValuations(p=3, values=(), zero_count=2), p_characterized=False, "
        "p_correspondent=False, degenerate=True)",
    ),
    (
        lambda: smith_form([[2, 4], [6, 8]], want_transforms=True),
        "SmithData(n=2, diag=(2, 4), P=IntMatrix(n=2, rows=((1, 0), (3, -1))), "
        "Q=IntMatrix(n=2, rows=((1, -2), (0, 1))))",
    ),
    (lambda: smith_form([[2, 4], [6, 8]]), "SmithData(n=2, diag=(2, 4), P=None, Q=None)"),
    (
        lambda: local_profile([[2, 4, 0], [6, 8, 0], [0, 0, 9]], 2),
        "LocalSmithProfile(p=2, exponents=(0, 1, 2))",
    ),
    (
        lambda: verify_rem_stability([[4, 1], [2, 6]], 2, 4),
        "StabilityReport(p=2, m=4, profile=(0, 1), reduced_profile=(0, 1), f_vals=(1, 1), "
        "reduced_f_vals=(1, 1), a_characterized=False, reduced_characterized=False)",
    ),
    (lambda: char_poly([[1, 2], [3, 4]]), "CharPoly(n=2, coeffs=(-5, -2))"),
    (
        lambda: newton_polygon(char_poly([[1, 2], [3, 4]]), 2),
        "NewtonPolygon(p=2, degree=2, points=((0, 0), (1, 0), (2, 1)))",
    ),
    (
        lambda: gl_count(2, 1, 2),
        "GLCountReport(p=2, m=1, n=2, order=6, ratio=Fraction(8, 3), exhaustive_count=6)",
    ),
    (
        lambda: orbit_stabilizer_check(2, 1, (0, 0)),
        "OrbitCheckReport(p=2, m=1, exponents=(0, 0), class_size=6, "
        "pair_count_per_member=Fraction(6, 1), ok=True)",
    ),
    (
        lambda: sample_correspondent([[1, 2], [3, 4]], 7, seed=3),
        "TransformSample(p=7, bound=7, attempts=3, U=IntMatrix(n=2, rows=((1, 1), (5, 3))), "
        "V=IntMatrix(n=2, rows=((4, 6), (4, 3))), result=IntMatrix(n=2, rows=((40, 42), (144, 150))), "
        "report=ClassificationReport(p=7, n=2, rank=2, f_vals=(0, 0), delta_vals=(0, 0), "
        "profile=(0, 0), eig_vals=EigenvalueValuations(p=7, values=(Fraction(0, 1), Fraction(0, 1)), "
        "zero_count=0), p_characterized=True, p_correspondent=True, degenerate=False))",
    ),
    (
        lambda: single_attempt_success_rate(2, 101, 101, 20, 0),
        "SuccessRateReport(n=2, p=101, bound=101, trials=20, successes=18, "
        "floor=Fraction(91, 101), ok=True)",
    ),
]


NAMED_TUPLES = (
    ClassificationReport,
    PartitionCell,
    DensityRow,
    GLCountReport,
    OrbitCheckReport,
    NewtonPolygon,
    EigenvalueValuations,
    SmithData,
    LocalSmithProfile,
    TransformSample,
    SuccessRateReport,
    StabilityReport,
)


@pytest.mark.parametrize("make, expected", PINNED_REPRS)
def test_repr_is_pinned(make, expected):
    assert repr(make()) == expected


def _one_of_each():
    """Two independently built, equal instances of each of the 14 record types."""
    M = IntMatrix(2, ((1, 2), (3, 4)))
    report = analyze(M, 7)
    pairs = []
    for build in (
        lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        lambda: CharPoly(2, (-5, -2)),
        lambda: analyze([[1, 2], [3, 4]], 7),
        lambda: PartitionCell(size=9, char_count=6),
        lambda: enumerate_density(2, 1, 2),
        lambda: GLCountReport(p=2, m=1, n=2, order=6, ratio=Fraction(8, 3), exhaustive_count=6),
        lambda: OrbitCheckReport(2, 1, (0, 0), 6, Fraction(6), True),
        lambda: NewtonPolygon(p=2, degree=2, points=((0, 0), (1, 0), (2, 1))),
        lambda: EigenvalueValuations(p=3, values=(Fraction(1, 2),) * 2, zero_count=1),
        lambda: smith_form([[2, 4], [6, 8]], want_transforms=True),
        lambda: LocalSmithProfile(p=2, exponents=(0, 1)),
        lambda: TransformSample(7, 7, 1, M, M, M, report),
        lambda: SuccessRateReport(2, 101, 101, 20, 18, Fraction(91, 101), True),
        lambda: StabilityReport(2, 4, (0, 1), (0, 1), (1, 1), (1, 1), False, False),
    ):
        pairs.append((build(), build()))
    return pairs


def test_all_fourteen_types_are_covered():
    assert {type(a) for a, _ in _one_of_each()} == {IntMatrix, CharPoly, *NAMED_TUPLES}


@pytest.mark.parametrize("a, b", _one_of_each(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment_and_deletion(a, b):
    field = (getattr(a, "_fields", None) or a.__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        setattr(a, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize("a, b", _one_of_each(), ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(a, b):
    assert a == b and not a != b
    if isinstance(a, DensityRow):
        # its partitions field is a dict, as it was in the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


def test_value_classes_compare_only_within_their_type():
    M = IntMatrix(1, ((5,),))
    assert M != (1, ((5,),))
    assert CharPoly(1, (5,)) != M
    assert M != IntMatrix(1, ((6,),))
    with pytest.raises(TypeError):
        iter(M)


def test_named_tuples_keep_their_field_order_and_defaults():
    assert SmithData(2, (1, 2)) == SmithData(n=2, diag=(1, 2), P=None, Q=None)
    row = enumerate_density(2, 1, 2)
    assert row._replace(total=17).total == 17 and row.total == 16
    assert row.convention is Convention.ALL
    for cls in NAMED_TUPLES:
        # the annotations document the fields, so they must name them in order
        assert tuple(cls.__annotations__) == cls._fields, cls


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, ()), "matrix dimension must be >= 1, got 0"),
        ((2, ((1, 2),)), "expected 2 rows of 2 entries"),
        ((2, ((1, 2), (3,))), "expected 2 rows of 2 entries"),
        ((1, ((1.0,),)), "entries must be int, got 1.0"),
        ((1, ((True,),)), "entries must be int, got True"),
    ],
)
def test_int_matrix_refuses_malformed_input(args, message):
    with pytest.raises(ValueError) as exc:
        IntMatrix(*args)
    assert str(exc.value) == message


def test_charpoly_refuses_a_wrong_coefficient_count():
    with pytest.raises(ValueError) as exc:
        CharPoly(2, (1,))
    assert str(exc.value) == "expected 2 coefficients, got 1"


def test_no_module_imports_dataclasses():
    # every record is built without dataclass code generation at import
    package = Path(padicsmith.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
