import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbloc
from hilbloc.localization import TautClass, surface_number
from hilbloc.toric import (
    TLineBundle,
    ToricSurface,
    blowup,
    build_model,
    line_bundle,
    o_bundle,
    p1xp1,
    p2,
)
from hilbloc.universal import invariants
from record_oracle import assert_record
from surface_oracle import SURFACES
from surface_oracle import intersection as oracle_intersection


def intersection(l1, l2):
    """L1 . L2 as the n = 1 integral of c1(L1) c1(L2)."""
    bundles = (("A", TautClass(((l1, 1),))), ("B", TautClass(((l2, 1),))))
    return surface_number(l1.surface, ((("A", 1), ("B", 1)),), bundles)[0]


def c1_squared(model):
    return surface_number(model, ((("T", 1), ("T", 1)),), (("T", "tangent"),))[0]


def test_p2_intersection_form():
    m = p2()
    for a in range(-2, 4):
        for b in range(-2, 4):
            assert intersection(o_bundle(m, a), o_bundle(m, b)) == a * b


def test_p1xp1_intersection_form():
    q = p1xp1()
    for a, b, c, d in ((1, 0, 0, 1), (2, 3, 1, 1), (-1, 2, 2, 0)):
        assert intersection(o_bundle(q, a, b), o_bundle(q, c, d)) == a * d + b * c


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_intersection_matches_the_surface_oracle(data):
    model = data.draw(st.sampled_from(SURFACES))
    coeffs = st.lists(st.integers(-4, 4), min_size=len(model.rays), max_size=len(model.rays))
    l1, l2 = (line_bundle(model, data.draw(coeffs)) for _ in range(2))
    assert intersection(l1, l2) == oracle_intersection(l1, l2)


def _blowups(model, depth):
    yield model
    if depth:
        for i in range(len(model.rays)):
            yield from _blowups(blowup(model, i), depth - 1)


def test_noether_on_rational_surfaces():
    # K^2 + e = 12 chi(O_S) = 12 on p2, p1xp1 and every blowup of them up to depth 3
    for model in (*_blowups(p2(), 3), *_blowups(p1xp1(), 3)):
        (e,) = surface_number(model, ((("T", 2),),), (("T", "tangent"),))
        assert e == model.euler_number
        assert c1_squared(model) + e == 12, model.name


def test_canonical_invariants():
    assert c1_squared(p2()) == 9 and p2().euler_number == 3
    assert c1_squared(p1xp1()) == 8 and p1xp1().euler_number == 4
    bl = blowup(p2(), 0)
    assert c1_squared(bl) == 8 and bl.euler_number == 4


def test_exceptional_curve():
    m = p2()
    bl = blowup(m, 0)
    # the inserted ray's divisor is the exceptional curve: E^2 = -1
    e = line_bundle(bl, (0, 1, 0, 0))
    assert intersection(e, e) == -1
    k = bl.canonical_bundle()
    assert intersection(k, e) == -1  # K.E = -1 for a (-1)-curve


def test_iterated_blowup():
    bl2 = blowup(blowup(p2(), 0), 1)
    assert bl2.euler_number == 5
    assert c1_squared(bl2) == 7


def test_invariants_riemann_roch():
    m = p2()
    for k in range(-1, 4):
        inv = invariants(m, o_bundle(m, k))
        assert inv.chi_O == 1
        assert inv.chi_L == (k + 1) * (k + 2) // 2
    assert_record(inv, "L2 KL K2 e chi_O chi_L", invariants(m, o_bundle(m, 2)))


def test_build_model_specs():
    assert build_model("p2").name == "p2"
    assert build_model("p1xp1").euler_number == 4
    assert build_model("blowup:p2:0").euler_number == 4
    assert build_model("blowup:blowup:p2:0:1").euler_number == 5
    for bad in ("p3", "blowup:p2:9", "blowup:p2", ""):
        with pytest.raises(ValueError):
            build_model(bad)


def test_fan_validation():
    with pytest.raises(ValueError):
        ToricSurface("bad", ((1, 0), (0, 1), (-1, -2)))
    with pytest.raises(ValueError):
        TLineBundle(p2(), (1, 0))  # wrong length


def test_surfaces_and_bundles_are_records():
    m = p2()
    chart = m.charts[1]
    assert repr(chart) == "Chart(index=1, rays=((0, 1), (-1, -1)), w1=(-1, 1), w2=(-1, 0))"
    assert_record(chart, "index rays w1 w2", m.charts[0])
    assert_record(m, "name rays", p1xp1(), ToricSurface("p2", blowup(m, 0).rays))
    assert_record(o_bundle(m, 1), "surface coeffs", o_bundle(m, 2), o_bundle(blowup(m, 0), 1))
    # charts is cached in the instance, and is not a field: an equal surface
    # built afresh has no charts yet and still compares and hashes equal
    assert m.charts is m.charts and "charts" in vars(m)
    fresh = ToricSurface("p2", m.rays)
    assert "charts" not in vars(fresh) and fresh == m and hash(fresh) == hash(m)


def test_a_pickled_record_hashes_afresh_in_another_process():
    # the cached hash of a str field is only valid in the process that computed it
    m = p2()
    hash(m)
    code = (
        "import pickle, sys; m = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(m) == hash((m.name, m.rays)), m.charts[0].index)"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"  # not this process's seed
    env = dict(os.environ, PYTHONPATH=str(Path(hilbloc.__file__).parents[1]), PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(m), capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"0"]
