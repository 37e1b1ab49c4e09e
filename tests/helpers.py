"""Test-only helpers built on the package: exact test motions, the DSL
printer and a strategy for DSL expression trees, the mu Riccati
identity, the frame that ``duality_report`` reads, the two-pass Willmore
energy quadrature that ``willmore_energy`` must reproduce, the size of
a jet's non-constant part, a counter of jet products and a guard
against the product's plan kernel."""

import numpy as np
from hypothesis import strategies as st

from lightcone import jets
from lightcone.ambient import ETA, SIGNS, Motion
from lightcone.analysis import WILLMORE_ORDER, _axis_quadrature
from lightcone.charts import sample_axes
from lightcone.dsl import _Parser, _tokenize
from lightcone.frames import (Tolerances, canonical_lift, frame_field,
                              pair_density, side_field)

# motions


def motion_from_generator(skew):
    """exp(S eta) for antisymmetric S; S eta is an o(4,2) generator."""
    s = np.asarray(skew, dtype=float)
    return Motion(_expm(s @ ETA))


def plane_rotation(i, j, angle):
    """Rotation (same-sign axes) or boost (mixed-sign axes) in the
    coordinate plane (e_i, e_j)."""
    t = np.eye(6)
    if SIGNS[i] == SIGNS[j]:
        c, s = np.cos(angle), np.sin(angle)
        t[i, i] = c
        t[j, j] = c
        t[i, j] = s
        t[j, i] = -s
    else:
        c, s = np.cosh(angle), np.sinh(angle)
        t[i, i] = c
        t[j, j] = c
        t[i, j] = s
        t[j, i] = s
    return Motion(t)


def apply(motion, x):
    """Row action x -> x T on the last axis; preserves the light cone."""
    return np.asarray(x) @ motion.matrix


def compose(motion, other):
    """Motion doing ``other`` first, then ``motion``: x (T_other T)."""
    return Motion(other.matrix @ motion.matrix)


def inverse(motion):
    return Motion(ETA @ motion.matrix.T @ ETA)


def _expm(a):
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    Only used to build exact-to-eps test motions from generators; not a
    general-purpose expm.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = 0
    if norm > 0.25:
        squarings = int(np.ceil(np.log2(norm / 0.25)))
        a = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for m in range(1, 40):
        term = term @ a / m
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


# the DSL


def parse_expression(text):
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    parser.expect("end")
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_UNARY_PREC = 2.5  # between * and ^


def print_expression(node):
    text, _ = _print(node)
    return text


def _print(node):
    kind = node[0]
    if kind == "num":
        value = node[1]
        if value == int(value) and abs(value) < 1e15:
            return repr(int(value)), 9
        return repr(value), 9
    if kind == "name":
        return node[1], 9
    if kind == "call":
        inner_text, _ = _print(node[2])
        return "{}({})".format(node[1], inner_text), 9
    if kind == "neg":
        inner_text, prec = _print(node[1])
        if prec < _UNARY_PREC:
            inner_text = "(" + inner_text + ")"
        return "-" + inner_text, _UNARY_PREC
    op = node[1]
    prec = _PREC[op]
    left, lp = _print(node[2])
    right, rp = _print(node[3])
    # left-assoc ops need parens around an equal-precedence right child
    # to reproduce the tree shape; '^' binds right, so there it is the
    # left child that needs them
    if lp < prec or (lp == prec and op == "^"):
        left = "(" + left + ")"
    if rp < prec or (rp == prec and op != "^"):
        right = "(" + right + ")"
    return "{} {} {}".format(left, op, right), prec


def print_program(form, exprs):
    return "{} [{}]".format(form,
                            ", ".join(print_expression(e) for e in exprs))


_leaf = st.sampled_from([("name", "u"), ("name", "v"), ("name", "t"),
                         ("num", 2.0), ("num", 0.5), ("num", 3.0)])


def _extend(children):
    return st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp"]),
                  children),
        st.tuples(st.just("bin"), st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
    )


# expression trees as ``parse_expression`` returns them
ast_trees = st.recursive(_leaf, _extend, max_leaves=12)


# analysis


def mu_riccati_residual(inv, side="left"):
    """|mu_z - mu^2/2 - s| for one adjoint direction."""
    mu = side_field(inv, "mu", side)
    res = mu.z() - mu * mu * 0.5 - inv.s
    return float(np.max(np.abs(res.value)))


def two_pass_energy(chart, nu, nv, order=3, abs_integrand=False):
    """(coarse, fine) quadrature values of the Willmore energy, each
    lifted on its own nodes: the half-resolution pass first, as
    ``willmore_energy`` did before it reused the fine pass."""
    (u0, u1), (v0, v1) = chart.domain

    def single(n_u, n_v):
        xu, wu = _axis_quadrature(u0, u1, n_u, chart.periodic[0])
        xv, wv = _axis_quadrature(v0, v1, n_v, chart.periodic[1])
        raw = chart.lift_at(xu[:, None], xv[None, :], order=order)
        f = pair_density(raw)
        if abs_integrand:
            f = np.abs(f)
        return float(np.einsum("i,j,ij->", wu, wv, f))

    coarse = single(max(2, int(np.ceil(nu / 2))),
                    max(2, int(np.ceil(nv / 2))))
    return coarse, single(nu, nv)


# jets


def nilpotent_norm(jet):
    """Max absolute size of the non-constant coefficients of a jet."""
    s = jet.coef.copy()
    s[0, 0] = 0
    if s.size == 0:
        return 0.0
    return float(np.max(np.abs(s)))


# frames


def sample_frame(chart, nu, nv, order=WILLMORE_ORDER, tol=Tolerances()):
    """Frame of the chart's raw lift at ``order`` on its nu x nv sample
    axes: at ``WILLMORE_ORDER``, the frame ``duality_report`` reads."""
    u, v = sample_axes(chart, nu, nv)
    return frame_field(canonical_lift(chart.lift_at(u, v, order=order)),
                       tol=tol)


def count_products(monkeypatch):
    """A list that gains an entry at every ``jets._mul`` call."""
    products = []
    mul = jets._mul

    def spy_mul(a, b):
        products.append((a.shape, b.shape))
        return mul(a, b)

    monkeypatch.setattr(jets, "_mul", spy_mul)
    return products


def refuse_the_plan(monkeypatch):
    """Make both regimes of the product's plan kernel raise, so that a
    product that reaches it fails."""
    def refuse(*args):
        raise AssertionError("the product reached the plan kernel")

    monkeypatch.setattr(jets, "_block", refuse)
    monkeypatch.setattr(jets, "_wide", refuse)
