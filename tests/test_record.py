"""The frozen records against ``@dataclass(frozen=True)`` twins.

Every record class of the package is compared with a dataclass built here
from the same name and fields: equality within and across classes, hash,
repr, match args, refused assignment and deletion, keyword construction and
defaults, argument errors, and ordering, which only ``Partition`` has.  Copies
and pickles must come back equal.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest

from partinv._record import Record
from partinv.algebra import (
    FieldSpec,
    MoritaResult,
    OrbitDecomposition,
    Permutation,
    WedderburnShape,
)
from partinv.classify import EquivalenceClass, EquivalenceClasses, classify
from partinv.gcd_symm import DetBounds, GVector, HVector, _Vector
from partinv.oracles import Failure, FamilyResult, VerificationReport
from partinv.partition_poly import PartitionPolynomial
from partinv.partitions import Partition

_FAILURE = Failure("4,1", "equivalent", "inequivalent")
_TABLE = classify(3, 7)

# Each record class, its fields in order, its defaults, and field values
# for two unequal instances.
RECORDS = [
    (Partition, ("parts",), {}, [((8, 2, 1),), ((4, 1),)]),
    (_Vector, ("values",), {}, [((1,),), ((3, 1),)]),
    (GVector, ("values",), {}, [((1,),), ((11, 3, 1),)]),
    (HVector, ("values",), {}, [((1,),), ((7, 2, 1),)]),
    (PartitionPolynomial, ("coefficients",), {}, [((1,),), ((1, -3, 11),)]),
    (DetBounds, ("determinant", "lower", "upper", "distinct"), {},
     [(5, 4, 8, True), (0, 1, 3, False)]),
    (Permutation, ("images",), {}, [((1,),), ((2, 3, 1),)]),
    (OrbitDecomposition, ("ids", "count"), {}, [(((0,),), 1), (((0, 1), (1, 0)), 2)]),
    (FieldSpec, ("characteristic",), {"characteristic": 0}, [(0,), (3,)]),
    (WedderburnShape, ("multiplicities",), {}, [((1,),), ((3, 1),)]),
    (MoritaResult, ("equivalent", "blocks", "signed_values"), {},
     [(True, (4, 4), (-4, 4)), (False, (1, 2), (1, -2))]),
    (EquivalenceClass, ("key", "members"), {},
     [((1,), (Partition((1,)),)), ((4, 1), (Partition((4, 1)), Partition((3, 2))))]),
    (EquivalenceClasses, ("s", "n", "keys", "parts", "class_ids"), {},
     [(1, 1, ((1,),), ((1,),), (0,)),
      (3, 7, _TABLE.keys, _TABLE.parts, _TABLE.class_ids)]),
    (Failure, ("input", "expected", "actual"), {}, [("1", "1", "2"), ("4,1", "yes", "no")]),
    (FamilyResult, ("family", "instances", "failures"), {},
     [("f", 0, ()), ("f", 1, (_FAILURE,))]),
    (VerificationReport, ("families",), {}, [((),), ((FamilyResult("f", 1, ()),),)]),
]
_NAMES = [cls.__name__ for cls, *_ in RECORDS]


def twin(cls, fields, defaults):
    """The ``@dataclass(frozen=True)`` the record class stands for."""
    spec = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, order=cls is Partition)


def pairs():
    """(record, dataclass twin) for every sample of every record class, and
    an equal copy of each, built apart."""
    built = []
    for cls, fields, defaults, samples in RECORDS:
        dc = twin(cls, fields, defaults)
        for args in samples + samples[:1]:
            built.append((cls(*args), dc(*args)))
    return built


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_every_record_class_has_a_twin():
    assert set(all_subclasses(Record)) == {cls for cls, *_ in RECORDS}
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls,fields,defaults,samples", RECORDS, ids=_NAMES)
def test_fields_come_from_the_annotations_in_order(cls, fields, defaults, samples):
    assert cls._fields == fields
    assert cls.__match_args__ == twin(cls, fields, defaults).__match_args__


def test_equality_hash_and_repr_match_the_twins():
    built = pairs()
    for (a, da), (b, db) in itertools.product(built, repeat=2):
        assert (a == b) == (da == db), (a, b)
        assert (a != b) == (da != db), (a, b)
    for record, dc in built:
        assert hash(record) == hash(dc)
        assert repr(record) == repr(dc)


def test_copies_and_pickles_are_equal_records_of_the_same_class():
    for record, _ in pairs():
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_equality_is_only_within_a_class():
    assert GVector((1,)) != HVector((1,))
    assert GVector((1,)) != _Vector((1,))
    assert Partition((1,)) != (1,) and Partition((1,)) != PartitionPolynomial((1,))


@pytest.mark.parametrize("name", ["parts", "values", "other"])
def test_assignment_and_deletion_are_refused_as_by_the_twins(name):
    for record, dc in pairs():
        for change in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as refused:
                change(record)
            with pytest.raises(AttributeError) as expected:
                change(dc)
            assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("cls,fields,defaults,samples", RECORDS, ids=_NAMES)
def test_construction_by_keyword_and_default(cls, fields, defaults, samples):
    dc = twin(cls, fields, defaults)
    for args in samples:
        kwargs = dict(zip(fields, args))
        assert cls(**kwargs) == cls(*args)
        assert repr(cls(**kwargs)) == repr(dc(**kwargs))
        if len(args) > 1:
            assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == cls(*args)
    for bad in (lambda f: f(*samples[0], 0), lambda f: f(*samples[0], unknown=0)):
        with pytest.raises(TypeError):
            bad(dc)
        with pytest.raises(TypeError):
            bad(cls)
    if len(fields) > 1:
        with pytest.raises(TypeError):
            cls(*samples[0], **{fields[0]: samples[0][0]})
    if not defaults:
        with pytest.raises(TypeError):
            dc()
        with pytest.raises(TypeError):
            cls()


def test_field_spec_default():
    dc = twin(FieldSpec, ("characteristic",), {"characteristic": 0})
    assert FieldSpec() == FieldSpec(0) == FieldSpec(characteristic=0)
    assert repr(FieldSpec()) == repr(dc()) == "FieldSpec(characteristic=0)"


def test_partition_orders_like_its_twin_and_nothing_else_orders():
    dc = twin(Partition, ("parts",), {})
    parts = [(8, 2, 1), (4, 1), (4, 1), (3, 2), (5,)]
    for a, b in itertools.product(parts, repeat=2):
        lam, mu, da, db = Partition(a), Partition(b), dc(a), dc(b)
        assert (lam < mu, lam <= mu, lam > mu, lam >= mu) == (da < db, da <= db, da > db, da >= db)
    assert sorted(map(Partition, parts)) == [Partition(p) for p in sorted(parts)]
    for lam, other in [(Partition((1,)), (1,)), (dc((1,)), (1,))]:
        with pytest.raises(TypeError):
            lam < other
        with pytest.raises(TypeError):
            other >= lam
    for record, _ in pairs():
        if type(record) is not Partition:
            with pytest.raises(TypeError):
                record < record


def test_cached_values_stay_out_of_equality_hash_and_repr():
    dc = twin(Partition, ("parts",), {})
    lam, fresh = Partition((8, 2, 1)), Partition((8, 2, 1))
    lam.h, lam.g, lam.polynomial
    assert set(vars(lam)) == {"parts", "h", "g", "polynomial"}
    assert lam == fresh and hash(lam) == hash(fresh) == hash(dc((8, 2, 1)))
    assert repr(lam) == repr(dc((8, 2, 1)))
    table, again = classify(3, 7), classify(3, 7)
    table.classes, table.e
    assert table == again and hash(table) == hash(again) and repr(table) == repr(again)
