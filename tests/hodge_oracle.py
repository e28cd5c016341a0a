"""Hodge numbers of Hilb^n(S) from the Hodge diamond of S alone, by the
product of Goettsche and Soergel (Math. Ann. 296, 1993):

    sum_n sum_{p,q} h^{p,q}(S^[n]) x^p y^q t^n
        = prod_{k >= 1} prod_{p,q} (1 - (-1)^(p+q) x^(p+k-1) y^(q+k-1) t^k)^(-(-1)^(p+q) h^{p,q}(S)).

It uses no localization and no cobordism class, so it is an oracle for
both the Betti numbers of the fixed-point count and the chi_y genus of the
cobordism route."""


def diamond(q: int, pg: int, h11: int) -> dict:
    """{(p, q): h^{p,q}} of a surface with irregularity q, geometric genus pg and h^{1,1}."""
    return {
        (0, 0): 1, (1, 0): q, (0, 1): q, (2, 0): pg, (1, 1): h11, (0, 2): pg,
        (2, 1): q, (1, 2): q, (2, 2): 1,
    }


def hodge_hilb(hodge: dict, order: int) -> list:
    """[{(p, q): h^{p,q}(S^[n])} for n = 0..order], exact integers, zeros left out."""
    table = [{(0, 0): 1}] + [{} for _ in range(order)]
    for k in range(1, order + 1):
        for (p, q), h in hodge.items():
            if not h:
                continue
            sign = (-1) ** (p + q)
            # (1 - s u)^E = sum_j binom(E, j) (-s u)^j, u = x^a y^b t^k, E = -s h
            a, b, exponent = p + k - 1, q + k - 1, -sign * h
            factor, coeff = [], 1
            for j in range(order // k + 1):
                factor.append(coeff)
                coeff = coeff * (exponent - j) * -sign // (j + 1)
            out = [{} for _ in range(order + 1)]
            for n, row in enumerate(table):
                for j, c in enumerate(factor[: (order - n) // k + 1]):
                    target = out[n + j * k]
                    for (x, y), v in row.items():
                        key = (x + a * j, y + b * j)
                        target[key] = target.get(key, 0) + v * c
            table = [{key: v for key, v in row.items() if v} for row in out]
    return table


def betti(hodge_n: dict, n: int) -> list:
    """[b_0, b_1, ..., b_4n] from {(p, q): h^{p,q}} of a variety of dimension 2n."""
    out = [0] * (4 * n + 1)
    for (p, q), h in hodge_n.items():
        out[p + q] += h
    return out


def chi_y(hodge_n: dict) -> dict:
    """{p: sum_q (-1)^q h^{p,q}}: the coefficients of chi_y = sum_p chi(Omega^p) y^p."""
    out = {}
    for (p, q), h in hodge_n.items():
        out[p] = out.get(p, 0) + (-1) ** q * h
    return {p: v for p, v in out.items() if v}
