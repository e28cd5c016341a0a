"""An oracle for the record classes of hilbloc: the frozen dataclass with the
same fields, built with `dataclasses.make_dataclass`."""

import pickle
from dataclasses import make_dataclass

import pytest


def assert_record(rec, names: str, *others):
    """rec behaves as the frozen dataclass with fields `names` (space-separated)
    did: the same constructor, eq and hash by the field tuple,
    NotImplemented across types, the same repr, no assignment; others are
    records with other fields."""
    assert rec._fields == tuple(names.split())
    fields = tuple(getattr(rec, f) for f in rec._fields)
    oracle = make_dataclass(type(rec).__qualname__, rec._fields, frozen=True)(*fields)
    assert repr(rec) == repr(oracle)
    assert hash(rec) == hash(fields) == hash(oracle)
    twin = type(rec)(*fields)
    assert twin == rec and hash(twin) == hash(rec) and twin is not rec
    assert type(rec)(**dict(zip(rec._fields, fields))) == rec
    assert rec.__eq__(fields) is NotImplemented and rec != fields and rec != oracle
    assert pickle.loads(pickle.dumps(rec)) == rec
    for other in others:
        assert other != rec and not other == rec
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], fields[0])
    with pytest.raises(AttributeError):
        rec.new_attribute = 1
    with pytest.raises(AttributeError):
        delattr(rec, rec._fields[0])
