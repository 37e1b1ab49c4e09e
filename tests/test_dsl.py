import numpy as np
import pytest
from hypothesis import given, settings

from lightcone import dsl
from lightcone.charts import (SurfaceChart, catalog_chart, embed_flat,
                              sample_grid)
from lightcone.dsl import (chart_from_source, evaluate, free_parameters,
                           parse_program)
from lightcone.errors import (ArityMismatch, DomainError,
                              ParameterOutOfRange, ParseError,
                              UnknownIdentifier)
from lightcone.jets import seed_point

from helpers import (ast_trees, parse_expression, print_expression,
                     print_program)

TORUS_SOURCE = """raw6 [cos(t*u/sqrt(t*t-1))*cos(v),
                        cos(t*u/sqrt(t*t-1))*sin(v),
                        sin(t*u/sqrt(t*t-1))*cos(v),
                        sin(t*u/sqrt(t*t-1))*sin(v),
                        cos(u/sqrt(t*t-1)),
                        sin(u/sqrt(t*t-1))]"""


def test_parse_simple_program():
    form, exprs = parse_program("r3 [u, v, u*v]")
    assert form == "r3"
    assert exprs[0] == ("name", "u")
    assert exprs[2] == ("bin", "*", ("name", "u"), ("name", "v"))


def test_precedence_and_associativity():
    assert parse_expression("u + v * u") == \
        ("bin", "+", ("name", "u"),
         ("bin", "*", ("name", "v"), ("name", "u")))
    assert parse_expression("u ^ 2 ^ 3") == \
        ("bin", "^", ("name", "u"),
         ("bin", "^", ("num", 2.0), ("num", 3.0)))
    assert parse_expression("-u^2") == \
        ("neg", ("bin", "^", ("name", "u"), ("num", 2.0)))
    assert parse_expression("u - v - u") == \
        ("bin", "-", ("bin", "-", ("name", "u"), ("name", "v")),
         ("name", "u"))


def test_number_literals():
    assert parse_expression("1.5e-2") == ("num", 0.015)
    assert parse_expression("2E3") == ("num", 2000.0)
    assert parse_expression(".5") == ("num", 0.5)


MULTILINE = "r3 [cosh(u)*cos(v),\n    cosh(u)*sin(v), u^2 - .5e-1]\n"

# (kind, text, line, col) per token; a ParseError as ("error", char,
# line, col)
TOKEN_TABLE = [
    ("1.2.3", [("num", "1.2", 1, 1), ("num", ".3", 1, 4), ("end", "", 1, 6)]),
    ("1e", [("num", "1", 1, 1), ("ident", "e", 1, 2), ("end", "", 1, 3)]),
    ("1e+5x", [("num", "1e+5", 1, 1), ("ident", "x", 1, 5),
               ("end", "", 1, 6)]),
    (".5", [("num", ".5", 1, 1), ("end", "", 1, 3)]),
    (" .", ("error", ".", 1, 2)),
    ("a\n  b$", ("error", "$", 2, 4)),
    ("1.", [("num", "1.", 1, 1), ("end", "", 1, 3)]),
    ("3E-2", [("num", "3E-2", 1, 1), ("end", "", 1, 5)]),
    ("\u00e9", ("error", "\u00e9", 1, 1)),
    ("\u0663", ("error", "\u0663", 1, 1)),
    ("a\tb?", ("error", "?", 1, 4)),
    ("r3 [u,\r\n\tv, 0]",
     [("ident", "r3", 1, 1), ("[", "[", 1, 4), ("ident", "u", 1, 5),
      (",", ",", 1, 6), ("ident", "v", 2, 2), (",", ",", 2, 3),
      ("num", "0", 2, 5), ("]", "]", 2, 6), ("end", "", 2, 7)]),
    (MULTILINE,
     [("ident", "r3", 1, 1), ("[", "[", 1, 4), ("ident", "cosh", 1, 5),
      ("(", "(", 1, 9), ("ident", "u", 1, 10), (")", ")", 1, 11),
      ("*", "*", 1, 12), ("ident", "cos", 1, 13), ("(", "(", 1, 16),
      ("ident", "v", 1, 17), (")", ")", 1, 18), (",", ",", 1, 19),
      ("ident", "cosh", 2, 5), ("(", "(", 2, 9), ("ident", "u", 2, 10),
      (")", ")", 2, 11), ("*", "*", 2, 12), ("ident", "sin", 2, 13),
      ("(", "(", 2, 16), ("ident", "v", 2, 17), (")", ")", 2, 18),
      (",", ",", 2, 19), ("ident", "u", 2, 21), ("^", "^", 2, 22),
      ("num", "2", 2, 23), ("-", "-", 2, 25), ("num", ".5e-1", 2, 27),
      ("]", "]", 2, 32), ("end", "", 3, 1)]),
]


@pytest.mark.parametrize("text, expected", TOKEN_TABLE)
def test_token_streams(text, expected):
    if expected[0] == "error":
        with pytest.raises(ParseError) as err:
            dsl._tokenize(text)
        _, char, line, col = expected
        assert str(err.value) == "unexpected character %r" % char
        assert (err.value.line, err.value.col) == (line, col)
    else:
        assert [(t.kind, t.text, t.line, t.col)
                for t in dsl._tokenize(text)] == expected


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("r3 [u,, v]")
    assert err.value.line == 1
    assert err.value.col == 7
    with pytest.raises(ParseError) as err:
        parse_program("r3 [u,\n  v @ 2, u]")
    assert err.value.line == 2


def test_unknown_function_at_parse_time():
    with pytest.raises(UnknownIdentifier):
        parse_program("r3 [foo(u), v, u]")


def test_unknown_form():
    with pytest.raises(UnknownIdentifier):
        parse_program("r7 [u, v]")


def test_component_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_program("r3 [u, v]")
    with pytest.raises(ArityMismatch):
        parse_program("raw6 [u, v, u, v]")


def test_function_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_program("r3 [sin(u, v), u, v]")


def test_unbound_name_at_eval_time():
    chart = chart_from_source("r3 [q*u, v, u]")
    U, V = seed_point(0.1, 0.2, 2)
    with pytest.raises(UnknownIdentifier):
        chart.evaluate(U, V)


def test_exponent_must_be_constant():
    chart = chart_from_source("r3 [u^v, u, v]")
    U, V = seed_point(0.5, 2.0, 3)
    with pytest.raises(DomainError):
        chart.evaluate(U, V)


@pytest.mark.parametrize("source", [
    "r3 [u^(v-v+2), u, v]",
    "r3 [(u+2)^(sin(u)^2+cos(u)^2), u, v]",
])
def test_exponent_must_not_read_u_or_v(source):
    # even an exponent that is constant up to rounding: its rounding
    # differs from point to point, so no one value serves every batch
    chart = chart_from_source(source)
    for u, v in [(0.5, 2.0), (np.linspace(0.1, 0.9, 5)[:, None],
                              np.linspace(1.0, 2.0, 3)[None, :])]:
        U, V = seed_point(u, v, 3)
        with pytest.raises(DomainError, match="u or v"):
            chart.evaluate(U, V)


def test_exponent_may_read_parameters():
    chart = chart_from_source("r3 [u^(2*a), u, v]", params={"a": 1.5})
    U, V = seed_point(0.5, 2.0, 3)
    cubed = chart_from_source("r3 [u^3, u, v]").evaluate(U, V)
    assert np.array_equal(chart.evaluate(U, V).coef, cubed.coef)


@pytest.mark.parametrize("source", [
    "r3 [u/0, v, u]",
    "r3 [u/(1-1), v, u]",
    "r3 [u/1e-320, v, u]",
    "r3 [u*0^(-1), v, u]",
    "r3 [u + (-1)^0.5, v, u]",
    "r3 [u*10^400, v, u]",
])
def test_constant_subtrees_stay_finite_and_real(source):
    # Python raises ZeroDivisionError or OverflowError on some of these
    # and turns (-1)^0.5 complex; a chart program must see DomainError
    chart = chart_from_source(source)
    U, V = seed_point(0.1, 0.2, 2)
    with pytest.raises(DomainError):
        chart.evaluate(U, V)


def test_integer_power_at_origin():
    chart = chart_from_source("r3 [u^3, v, u]")
    U, V = seed_point(0.0, 0.0, 4)
    w = chart.evaluate(U, V)
    x1 = w.component(1)
    assert x1.du().du().du().value == pytest.approx(6.0)


def test_pi_and_params_bound():
    chart = chart_from_source("r3 [cos(pi*u), k*v, u]", params={"k": 3.0})
    U, V = seed_point(1.0, 0.5, 1)
    w = chart.evaluate(U, V)
    assert w.component(1).value == pytest.approx(np.cos(np.pi) + 0j)
    assert w.component(2).value == pytest.approx(1.5 + 0j)


def test_scalar_subtree_keeps_full_order():
    # a constant call like sin(1) must not truncate jet order
    chart = chart_from_source("r3 [sin(1)*u, v, u*v]")
    U, V = seed_point(0.3, 0.4, 5)
    w = chart.evaluate(U, V)
    assert w.order == 5
    assert w.component(1).value == pytest.approx(np.sin(1.0) * 0.3)


def test_dsl_torus_matches_catalog():
    t = 2.0
    cat = catalog_chart("torus", t=t)
    dsl = chart_from_source(TORUS_SOURCE, params={"t": t},
                            domain=cat.domain, periodic=cat.periodic)
    u, v = sample_grid(cat, 6, 6)
    a = cat.lift_at(u, v, order=4)
    b = dsl.lift_at(u, v, order=4)
    assert np.max(np.abs(a.c - b.c)) < 1e-12


def test_free_parameters():
    assert free_parameters(TORUS_SOURCE) == ["t"]
    assert free_parameters("r3 [a*u, b*v, u+c]") == ["a", "b", "c"]
    assert free_parameters("r3 [u, v, pi]") == []


def test_params_the_program_does_not_read_are_refused():
    # as a catalog chart refuses a parameter its builder does not take;
    # the coordinates and pi are not parameters either
    for params in ({"a": 2.0}, {"t": 2.0, "a": 2.0}, {"u": 1.0}):
        with pytest.raises(UnknownIdentifier) as exc:
            chart_from_source(TORUS_SOURCE, params=params)
        assert exc.value.context == {
            "names": sorted(set(params) - {"t"}), "available": ["t"]}
    with pytest.raises(UnknownIdentifier) as exc:
        chart_from_source("r3 [u, v, pi]", params={"pi": 3.0})
    assert exc.value.context == {"names": ["pi"], "available": []}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_must_be_finite(value):
    with pytest.raises(ParameterOutOfRange) as exc:
        chart_from_source("r3 [a*u, b*v, u]", params={"a": 1.0, "b": value})
    assert exc.value.context == {"names": ["b"]}


def test_print_round_trip_handwritten():
    cases = [
        "r3 [u + v * u, u ^ 2 ^ 3, -u ^ 2]",
        "r3 [(u + v) * u, u / v / 2, sin(cos(u))]",
        "raw6 [u, v, u - (v - 1), -(u * v), 2 ^ u, sqrt(u + 2)]",
    ]
    for text in cases:
        form, exprs = parse_program(text)
        printed = print_program(form, exprs)
        assert parse_program(printed) == (form, exprs)


@given(ast_trees)
@settings(max_examples=120, deadline=None)
def test_print_parse_round_trip_random(tree):
    printed = print_expression(tree)
    assert parse_expression(printed) == tree


def test_evaluate_matches_manual_jets():
    U, V = seed_point(0.7, 0.3, 4)
    env = {"u": U, "v": V, "pi": np.pi}
    node = parse_expression("(u + 2*v)^2 / cosh(v)")
    got = evaluate(node, env)
    want = (U + V * 2.0).power(2) / V.cosh()
    assert np.max(np.abs(got.c - want.c)) < 1e-13


def test_batched_evaluation():
    chart = chart_from_source("r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]",
                              domain=((-1, 1), (0, 2 * np.pi)),
                              periodic=(False, True))
    u, v = sample_grid(chart, 4, 4)
    w = chart.lift_at(u, v, order=2)
    assert w.batch_shape == (4, 4)
    cat = catalog_chart("catenoid")
    w2 = cat.lift_at(u, v, order=2)
    assert np.max(np.abs(w.c - w2.c)) < 1e-13


def test_number_over_jet_matches_reciprocal_bit_for_bit():
    source = "r3 [2/cosh(u)*cos(v), 2/cosh(u)*sin(v), 1/(2+u)]"

    def lift(U, V):
        r = U.cosh().reciprocal() * 2.0
        return embed_flat([r * V.cos(), r * V.sin(), (2.0 + U).reciprocal(),
                           1.0])

    dsl = chart_from_source(source)
    ref = SurfaceChart("ref", lift, dsl.domain)
    u, v = sample_grid(dsl, 8, 8)
    got = dsl.lift_at(u, v, order=8)
    want = ref.lift_at(u, v, order=8)
    assert got.coef.dtype == want.coef.dtype
    np.testing.assert_array_equal(got.coef, want.coef)
