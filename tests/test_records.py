"""The ten public records keep their value semantics, and importing the
package loads neither ``dataclasses`` nor ``inspect``, nor ``typing``."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fekete import (
    ConstructionOutput,
    Eq8Sample,
    ExplicitDomain,
    FullDomain,
    IntervalDomain,
    LimitBracket,
    MuChainCertificate,
    QSequence,
    SequencePrefix,
    TwoGoodChain,
    Violation,
    ViolationReport,
    mu_chain_certificate,
)
from fekete.constructions import ENUMERATION_TAG

SRC = Path(__file__).resolve().parents[1] / "src"

_VIOLATION = Violation(1, 1, Fraction(1))
_SAMPLE = Eq8Sample(4, 1, Fraction(1))

# class, its fields in order, a value for each, how many of the last have
# defaults (the values given there are the defaults)
CASES = [
    (Violation, ("n", "m", "deficit"), (1, 2, Fraction(1, 2)), 0),
    (
        ViolationReport,
        ("domain", "pairs_checked", "violations"),
        (FullDomain(), 2, (_VIOLATION,)),
        0,
    ),
    (QSequence, ("n_lo", "values"), (1, (Fraction(3, 2), Fraction(3, 2))), 0),
    (
        ConstructionOutput,
        ("b", "c", "slopes", "coverage", "a", "enumeration"),
        (
            SequencePrefix([Fraction(-1, 2), Fraction(-1, 3)]),
            (Fraction(1, 2), Fraction(2, 3)),
            {Fraction(-1, 2): 1, Fraction(-1, 6): 2},
            {1: 1},
            SequencePrefix([Fraction(0), Fraction(1)]),
            ENUMERATION_TAG,
        ),
        1,
    ),
    (
        TwoGoodChain,
        ("n", "k", "beta", "chain", "merge_trace"),
        (7, 2, 3, ((2, 2, 3), (3, 4), (7,)), ((2, 2, 4), (3, 4, 7))),
        0,
    ),
    (Eq8Sample, ("n", "k", "bound"), (4, 1, Fraction(1)), 0),
    (
        LimitBracket,
        ("N", "min_slope", "argmin_k", "eq8_samples"),
        (1, Fraction(2, 3), 3, (_SAMPLE,)),
        0,
    ),
    (
        MuChainCertificate,
        ("mu", "N", "k", "N1", "N2", "n", "u", "v", "doubling_covered"),
        (Fraction(3, 2), 1, 4, 4, 2, 5, (5, 10, 20, 40, 80), (5, 12, 30, 75, 187), True),
        0,
    ),
    (IntervalDomain, ("variant", "N", "mu", "slack"), ("full", 1, None, 0), 3),
    (ExplicitDomain, ("pairs",), (frozenset({(1, 2), (3, 3)}),), 0),
]
_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=_IDS)
def test_records_keep_their_value_semantics(index):
    cls, fields, values, defaults = CASES[index]
    record = cls(*values)
    assert type(record) is cls and cls.__match_args__ == fields
    assert [getattr(record, name) for name in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:len(values) - defaults]) == record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    other = CASES[index - 1]
    assert record != other[0](*other[2])
    assert record.__eq__(other[0](*other[2])) is NotImplemented
    assert record.__eq__(values) is NotImplemented and record != values
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and copy is not record
    if cls is ConstructionOutput:
        with pytest.raises(TypeError):
            hash(record)
        record.coverage = {}
        assert record.coverage == {} and record != copy
        return
    assert hash(record) == hash(cls(*values)) == hash(copy)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert copy == record


def test_records_repr_exactly():
    assert repr(Violation(1, 2, Fraction(1, 2))) == "Violation(n=1, m=2, deficit=Fraction(1, 2))"
    assert repr(FullDomain()) == "IntervalDomain(variant='full', N=1, mu=None, slack=0)"
    assert repr(IntervalDomain("muband", 4, "3/2")) == (
        "IntervalDomain(variant='muband', N=4, mu=Fraction(3, 2), slack=0)"
    )
    assert repr(ExplicitDomain([(2, 1)])) == "ExplicitDomain(pairs=frozenset({(1, 2)}))"
    assert repr(mu_chain_certificate("3/2", 1, 5)) == (
        "MuChainCertificate(mu=Fraction(3, 2), N=1, k=4, N1=4, N2=2, n=5,"
        " u=(5, 10, 20, 40, 80), v=(5, 12, 30, 75, 187), doubling_covered=True)"
    )
    assert repr(LimitBracket(1, Fraction(2, 3), 3, (_SAMPLE,))) == (
        "LimitBracket(N=1, min_slope=Fraction(2, 3), argmin_k=3,"
        " eq8_samples=(Eq8Sample(n=4, k=1, bound=Fraction(1, 1)),))"
    )


def test_records_construct_by_keyword_with_defaults():
    assert IntervalDomain(variant="threshold", N=3) == IntervalDomain("threshold", 3, None, 0)
    assert IntervalDomain("oneplus", 2, 1, 1).mu == Fraction(1)  # coerced in __post_init__
    assert ExplicitDomain(pairs=[(2, 1), [1, 2]]).pairs == frozenset({(1, 2)})
    b = SequencePrefix([Fraction(1)])
    out = ConstructionOutput(b=b, c=(), slopes={}, coverage={}, a=b)
    assert out.enumeration == ENUMERATION_TAG
    with pytest.raises(TypeError):
        Violation(1, 2)
    with pytest.raises(TypeError):
        Violation(1, 2, Fraction(1), 4)
    with pytest.raises(TypeError):
        Violation(1, 2, deficit=Fraction(1), extra=0)


@pytest.mark.parametrize(
    "args, error",
    [
        (("full", 2), ValueError),
        (("threshold", 0), ValueError),
        (("threshold", 1.0), TypeError),
        (("nope",), ValueError),
        (("muband", 1), ValueError),
        (("muband", 1, Fraction(3, 2), 1), ValueError),
        (("oneplus", 1, Fraction(2), 1), ValueError),
        (("muband", 1, 1.5), TypeError),
    ],
)
def test_interval_domain_rejects_a_variant_its_bounds_do_not_fit(args, error):
    with pytest.raises(error):
        IntervalDomain(*args)


@pytest.mark.parametrize(
    "chain, message",
    [
        (((2, 2, 2), (2, 4), (6,)), "chain endpoints inconsistent"),
        (((2, 2, 3), (3, 4), (6,)), "chain endpoints inconsistent"),
        (((1, 6), (7,)), "is not 2-good"),
    ],
)
def test_two_good_chain_rejects_a_bad_chain(chain, message):
    with pytest.raises(ValueError, match=message):
        TwoGoodChain(7, 2, 3, chain, ())


def test_chain_certificate_dict_is_unchanged():
    assert mu_chain_certificate("3/2", 1, 5).to_json_dict() == {
        "mu": "3/2",
        "N": 1,
        "k": 4,
        "N1": 4,
        "N2": 2,
        "n": 5,
        "u": [5, 10, 20, 40, 80],
        "v": [5, 12, 30, 75, 187],
        "doubling_covered": True,
    }
    assert list(mu_chain_certificate("3/2", 1, 5).to_json_dict()) == [
        "mu", "N", "k", "N1", "N2", "n", "u", "v", "doubling_covered"
    ]


_FOOTPRINT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import fekete, fekete.checker, fekete.cli, fekete.constructions, fekete.limits, fekete.model
assert fekete.__file__.startswith(sys.argv[1]), fekete.__file__
print(sorted(set(sys.argv[2:]) & (set(sys.modules) - before)))
"""


def _loaded_by_import(*names: str) -> str:
    """Which of ``names`` importing the package and its five modules adds
    to ``sys.modules``, printed, in a ``python -S`` process."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, str(SRC), *names],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_import("dataclasses", "inspect") == "[]\n"


def test_importing_the_package_loads_no_typing():
    # every annotation name comes from collections.abc, which functools
    # and re load anyway
    assert _loaded_by_import("typing") == "[]\n"
