"""Smooth projective toric surface models: P2, P1xP1 and iterated blowups.

A model is a complete smooth fan in Z^2, given by its rays in cyclic
order.  Charts are the 2-dimensional cones (consecutive ray pairs); the
two chart weights are the dual basis of the cone's rays and serve as the
tangent characters at the torus-fixed point.

Sign convention (the one global choice, validated by the n = 1 acceptance
tests): the local weight of L = sum a_i D_i at the chart spanned by
(v_i, v_{i+1}) is the character m with <m, v_i> = a_i, <m, v_{i+1}> = a_{i+1}.
With tangent weights equal to the dual basis this makes
integral(td * exp c1(L)) = chi(L) come out right on the surface itself.
"""

from __future__ import annotations

from functools import cached_property

from .records import Record


Vec = tuple  # (int, int) character / lattice vector


class Chart(Record):
    def __init__(self, index: int, rays: tuple, w1: Vec, w2: Vec):
        # rays: (v_i, v_{i+1}); w1, w2: the dual basis, w1 dual to v_i
        self._freeze(index, rays, w1, w2)


class ToricSurface(Record):
    def __init__(self, name: str, rays: tuple):
        # rays: in cyclic order, consecutive determinant +1
        n = len(rays)
        if n < 3:
            raise ValueError("a complete fan needs at least 3 rays")
        for i in range(n):
            v, w = rays[i], rays[(i + 1) % n]
            if v[0] * w[1] - v[1] * w[0] != 1:
                raise ValueError(
                    f"rays {v}, {w} do not span a smooth positively-oriented cone"
                )
        self._freeze(name, rays)

    @cached_property
    def charts(self) -> tuple:
        """Built once per surface; not a field, so equality and hash see
        only name and rays."""
        out = []
        n = len(self.rays)
        for i in range(n):
            v, w = self.rays[i], self.rays[(i + 1) % n]
            # dual basis for det(v, w) = +1
            w1 = (w[1], -w[0])
            w2 = (-v[1], v[0])
            out.append(Chart(i, (v, w), w1, w2))
        return tuple(out)

    @property
    def euler_number(self) -> int:
        return len(self.rays)


class TLineBundle(Record):
    """An equivariant line bundle, as ray coefficients of a toric divisor."""

    def __init__(self, surface: ToricSurface, coeffs: tuple):
        if len(coeffs) != len(surface.rays):
            raise ValueError("one coefficient per ray required")
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("divisor coefficients must be integers")
        self._freeze(surface, coeffs)

    def local_weight(self, chart: Chart) -> Vec:
        i = chart.index
        n = len(self.surface.rays)
        a, b = self.coeffs[i], self.coeffs[(i + 1) % n]
        return (
            a * chart.w1[0] + b * chart.w2[0],
            a * chart.w1[1] + b * chart.w2[1],
        )


# -- model construction ------------------------------------------------------------


def p2() -> ToricSurface:
    return ToricSurface("p2", ((1, 0), (0, 1), (-1, -1)))


def p1xp1() -> ToricSurface:
    return ToricSurface("p1xp1", ((1, 0), (0, 1), (-1, 0), (0, -1)))


def blowup(model: ToricSurface, chart_index: int) -> ToricSurface:
    """Blow up the torus-fixed point of the given chart (insert the ray sum)."""
    n = len(model.rays)
    if not 0 <= chart_index < n:
        raise ValueError(f"invalid chart index {chart_index}")
    v, w = model.rays[chart_index], model.rays[(chart_index + 1) % n]
    new_ray = (v[0] + w[0], v[1] + w[1])
    rays = model.rays[: chart_index + 1] + (new_ray,) + model.rays[chart_index + 1 :]
    return ToricSurface(f"blowup:{model.name}:{chart_index}", rays)


def build_model(spec: str) -> ToricSurface:
    """Parse a CLI model spec, spelt exactly: p2 | p1xp1 |
    blowup:<spec>:<chart_index>, the chart index in the digits 0-9 only."""
    if spec == "p2":
        return p2()
    if spec == "p1xp1":
        return p1xp1()
    if spec.startswith("blowup:"):
        body, _, idx = spec.rpartition(":")
        inner = body[len("blowup:"):]
        if not (idx.isascii() and idx.isdigit()):  # int() also reads " 1", "+1", "0_1" and "\u0661"
            raise ValueError(f"bad model spec {spec!r}")
        return blowup(build_model(inner), int(idx))
    raise ValueError(f"unknown surface spec {spec!r}")


def line_bundle(model: ToricSurface, coeffs) -> TLineBundle:
    return TLineBundle(model, tuple(int(c) for c in coeffs))


def o_bundle(model: ToricSurface, *degrees) -> TLineBundle:
    """O(k) on P2 (ray 0), O(k1,k2) on P1xP1 (rays 0 and 1)."""
    coeffs = [0] * len(model.rays)
    for i, d in enumerate(degrees):
        coeffs[i] = int(d)
    return TLineBundle(model, tuple(coeffs))
