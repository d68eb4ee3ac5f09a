"""Shared test helpers."""

import numpy as np
import pytest

from fourbody.interval import CInterval, CIntervalArray
from fourbody.polyfield import FieldNodes, Mul, evaluate, node_jacobian
from fourbody.taylor import ScalarSeries2, _fit, cauchy_product


def from_complex_points(grid) -> ScalarSeries2:
    """The series whose coefficients are the point intervals at the
    complex numbers of ``grid``, a 2-d array."""
    a = np.asarray(grid, dtype=complex)
    return ScalarSeries2(a.real, a.real, a.imag, a.imag)


def degree_nodes(prog, N, origin):
    """A FieldNodes on (N, N) set up for degree fills, as the
    homological solve sets it up: its (0, 0) slots hold the scalar
    interpreter's values at ``origin``.  Returns it and the node
    Jacobian there."""
    nodes = FieldNodes(prog, N, N)
    base = evaluate(prog, origin)
    nodes.G[:, 0, 0] = CIntervalArray.of(base)
    return nodes, node_jacobian(prog, base)


def _full_product_nodes(prog, inputs, orders):
    """Every node of the field program as a series, by exact full
    truncated Cauchy products: a product kept through the sum of its
    factors' orders, a sum through the largest of its terms', each
    clamped to ``orders``.  An interpreter independent of the column
    and degree fills of ``polyfield.FieldNodes``, for checking them."""
    OM, ON = orders
    nodes = list(inputs)
    for op in prog.ops:
        if isinstance(op, Mul):
            (ma, na), (mb, nb) = nodes[op.a].orders, nodes[op.b].orders
            nodes.append(cauchy_product(
                nodes[op.a], nodes[op.b],
                orders=(min(OM, ma + mb), min(ON, na + nb))))
            continue
        tm = max(nodes[k].orders[0] for _, k in op.terms)
        tn = max(nodes[k].orders[1] for _, k in op.terms)
        acc = ScalarSeries2.zeros(tm, tn)
        acc[0, 0] = CInterval(op.const)
        for c, k in op.terms:
            acc = acc + _fit(nodes[k], tm, tn) * c
        nodes.append(acc)
    return nodes


def _assert_overlap(*series):
    """Every coefficient enclosure of the series overlaps the others',
    on the largest grid, with zeros past a series' own grid."""
    M = max(s.orders[0] for s in series)
    N = max(s.orders[1] for s in series)
    grids = [_fit(s, M, N) for s in series]
    los = np.maximum.reduce([g.lo for g in grids])
    his = np.minimum.reduce([g.hi for g in grids])
    assert np.all(los <= his)


@pytest.fixture(scope="session")
def full_product_nodes():
    return _full_product_nodes


@pytest.fixture(scope="session")
def assert_overlap():
    return _assert_overlap
