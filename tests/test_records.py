"""The immutable value classes: repr, equality, hashing and immutability."""

import math
import pickle

import pytest

from momentflow import (
    AtomicMeasure,
    BoundaryReport,
    ExpPoly,
    FlowParams,
    GaussianMixture,
    HankelMatrix,
    MomentFlow,
    MomentSequence,
    PsdReport,
    RecoveryResult,
    Term,
)
from momentflow.exppoly import Plan

HEAT = FlowParams("heat", 1.0, (0.0,))
MIXTURE = GaussianMixture(1, 1.0, (((0.0,), 1.0, 0.5),))

# (class, keyword arguments, keyword arguments of an unequal instance, repr)
CASES = [
    (MomentSequence, {"n": 1, "degree": 1, "values": {(0,): 1.0, (1,): 0.5}},
     {"n": 1, "degree": 1, "values": {(0,): 1.0, (1,): 0.25}},
     "MomentSequence(n=1, degree=1, values={(0,): 1.0, (1,): 0.5})"),
    (AtomicMeasure, {"n": 1, "atoms": (((0.5,), 2.0),)},
     {"n": 1, "atoms": (((0.5,), 3.0),)},
     "AtomicMeasure(n=1, atoms=(((0.5,), 2.0),))"),
    (GaussianMixture, {"n": 1, "nu": 1.0, "components": (((0.0,), 1.0, 0.5),)},
     {"n": 1, "nu": 2.0, "components": (((0.0,), 1.0, 0.5),)},
     "GaussianMixture(n=1, nu=1.0, components=(((0.0,), 1.0, 0.5),))"),
    (Term, {"coeff": 1.5, "power": 2, "rate": (0, 1)},
     {"coeff": 1.5, "power": 2, "rate": (0, 1), "resonant": True},
     "Term(coeff=1.5, power=2, rate=(0, 1), resonant=False)"),
    (ExpPoly, {"n": 1, "terms": (Term(2.0, 0, (0,)),)},
     {"n": 1, "terms": ()},
     "ExpPoly(n=1, terms=(Term(coeff=2.0, power=0, rate=(0,), resonant=False),))"),
    (Plan, {"rates": (0.0,), "entries": (((1.0, 0, 0),),), "max_power": 0},
     {"rates": (-1.0,), "entries": (((1.0, 0, 0),),), "max_power": 0},
     "Plan(rates=(0.0,), entries=(((1.0, 0, 0),),), max_power=0)"),
    (FlowParams, {"kind": "heat", "nu": 1, "a": (0,)},
     {"kind": "combined", "nu": 1, "a": (0,)},
     "FlowParams(kind='heat', nu=1.0, a=(0.0,))"),
    (MomentFlow,
     {"n": 1, "degree": 0, "params": HEAT, "entries": {(0,): ExpPoly.constant(1, 1.0)}},
     {"n": 1, "degree": 0, "params": HEAT, "entries": {(0,): ExpPoly.constant(1, 2.0)}},
     "MomentFlow(n=1, degree=0, params=FlowParams(kind='heat', nu=1.0, a=(0.0,)), "
     "entries={(0,): ExpPoly(n=1, terms=(Term(coeff=1.0, power=0, rate=(0,), "
     "resonant=False),))})"),
    (HankelMatrix, {"order": 0, "entries": [[2.0]]},
     {"order": 0, "entries": [[3.0]]},
     "HankelMatrix(order=0, entries=array([[2.]]))"),
    (PsdReport, {"status": "positive_definite", "min_eigenvalue": 2.0, "kernel_basis": ()},
     {"status": "positive_definite", "min_eigenvalue": 1.0, "kernel_basis": ()},
     "PsdReport(status='positive_definite', min_eigenvalue=2.0, kernel_basis=())"),
    (BoundaryReport,
     {"distance": math.inf, "interval_closed": True,
      "boundary_sequence": MomentSequence.of_1d([1.0]), "kernel_poly": None,
      "upper_bound": math.inf},
     {"distance": math.inf, "interval_closed": True,
      "boundary_sequence": MomentSequence.of_1d([1.0]), "kernel_poly": None,
      "upper_bound": math.inf, "truncated_odd": True},
     "BoundaryReport(distance=inf, interval_closed=True, "
     "boundary_sequence=MomentSequence(n=1, degree=0, values={(0,): 1.0}), "
     "kernel_poly=None, upper_bound=inf, truncated_odd=False, boundary_atoms=None)"),
    (RecoveryResult,
     {"mixture": MIXTURE, "atoms": ((0.0, 1.0),), "delta": 0.5, "residual": 0.0},
     {"mixture": MIXTURE, "atoms": ((0.0, 1.0),), "delta": 0.5, "residual": 1e-9},
     "RecoveryResult(mixture=GaussianMixture(n=1, nu=1.0, "
     "components=(((0.0,), 1.0, 0.5),)), atoms=((0.0, 1.0),), delta=0.5, "
     "residual=0.0, degenerate_kernel=False)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, kwargs, other, expected", CASES, ids=IDS)
def test_repr(cls, kwargs, other, expected):
    assert repr(cls(**kwargs)) == expected


@pytest.mark.parametrize("cls, kwargs, other, expected", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, other, expected):
    rec = cls(**kwargs)
    assert rec == cls(*kwargs.values())
    assert not rec != cls(*kwargs.values())
    assert rec != cls(**other)
    assert not rec == cls(**other)
    assert rec != tuple(getattr(rec, f) for f in cls.__match_args__)
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls, kwargs, other, expected", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, other, expected):
    rec = cls(**kwargs)
    for name in cls.__match_args__:
        value = getattr(rec, name)
        with pytest.raises(AttributeError, match=name):
            setattr(rec, name, value)
        with pytest.raises(AttributeError, match=name):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("cls", [Term, FlowParams, GaussianMixture])
def test_hash_follows_equality(cls):
    kwargs = next(case[1] for case in CASES if case[0] is cls)
    assert hash(cls(**kwargs)) == hash(cls(*kwargs.values()))
    assert len({cls(**kwargs), cls(*kwargs.values())}) == 1


def test_records_with_a_dict_field_are_unhashable():
    with pytest.raises(TypeError):
        hash(MomentSequence.of_1d([1.0, 0.5]))
