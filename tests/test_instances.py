import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from pslgaug import (
    InvalidInstance,
    Point,
    PslgError,
    augment_2ec,
    augment_2vc,
    build,
    optimal_augment,
    replay,
    transform,
    verify,
)
from pslgaug import instances
from pslgaug.geom import _DECIMAL, MAX_EXPONENT, to_rational
from pslgaug.instances import (
    GRID,
    generate,
    instance_hash,
    oplog_from_jsonl,
    oplog_to_jsonl,
    parse,
    serialize,
)

# The benchmark's frozen instance pool (perfbench/reference.json) relies on
# generate staying byte-identical.
GOLDEN = {
    (3, 0, 0.5): "3a1bcc220ec4ca85",
    (8, 1, 0.0): "df5b7d594296c1f0",
    (12, 2, 1.0): "f143b26a5f72312e",
    (25, 3, 0.4): "b1635287eb8f2313",
    (40, 4, 0.6): "d3c03ca2bd83db18",
    (76, 5, 0.2): "e01d44e7fc33c581",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generate_golden_hash(case):
    assert instance_hash(generate(*case)) == GOLDEN[case]


@pytest.mark.parametrize("n", [2, 2 * GRID + 1, 10**20])
def test_generate_rejects_a_count_no_grid_can_hold(n, monkeypatch):
    # three points of one grid row are collinear, so at most 2 * GRID points
    # are in general position: past that the draw loop could never end, and
    # generate raises before it draws a point
    def drawn(*args):
        raise AssertionError("generate drew a point")

    monkeypatch.setattr(instances, "collinear_pair", drawn)
    with pytest.raises(InvalidInstance, match=rf"need 3 <= n <= {2 * GRID}"):
        generate(n, 0, 0.3)


def test_parse_gives_ints_for_integral_coordinates():
    doc = {
        "format_version": 1,
        "points": [
            {"id": 0, "x": "12", "y": "-3"},
            {"id": 1, "x": "1e3", "y": "4.0"},
            {"id": 2, "x": "0.5", "y": "7"},
        ],
        "edges": [[0, 1], [1, 2]],
    }
    g = parse(json.dumps(doc))
    assert [(p.x, p.y) for p in g.points] == [(12, -3), (1000, 4), (Fraction(1, 2), 7)]
    assert [(type(p.x), type(p.y)) for p in g.points] == [(int, int), (int, int), (Fraction, int)]


def _fraction_reading(text):
    """The coordinate that parsing by ``Fraction`` made of a decimal string:
    an int when integral."""
    v = Fraction(text)
    return v.numerator if v.denominator == 1 else v


SIGNS = st.sampled_from(["", "+", "-"])
DIGITS = st.text("0123456789", min_size=1, max_size=25)


@given(SIGNS, st.integers(0, 3), st.integers(0, 10**30))
def test_integer_literals_parse_to_the_int_fraction_gave(sign, zeros, value):
    # negative, -0, leading zeros and values beyond int64
    text = sign + "0" * zeros + str(value)
    got = to_rational(text)
    assert type(got) is int
    assert got == _fraction_reading(text)


EXPONENTS = st.tuples(st.sampled_from("eE"), SIGNS, st.integers(0, 40))


@given(SIGNS, DIGITS, st.none() | DIGITS, st.none() | EXPONENTS)
def test_decimal_literals_parse_to_the_same_value_as_before(sign, whole, frac, exp):
    text = sign + whole + ("" if frac is None else "." + frac)
    if exp is not None:
        text += exp[0] + exp[1] + str(exp[2])
    got, before = to_rational(text), _fraction_reading(text)
    assert type(got) is type(before) and got == before


def _regex_reading(text):
    """to_rational's reading of a string by the _DECIMAL grammar alone:
    its result, or its exception type and message."""
    try:
        m = _DECIMAL.fullmatch(text)
        if m is None or (m.group(2) and abs(int(m.group(2))) > MAX_EXPONENT):
            raise ValueError(
                f"{text!r} is no decimal literal (sign, ASCII digits, optional "
                f"fraction, exponent at most {MAX_EXPONENT} in magnitude)"
            )
        return int(text) if m.lastindex is None else _fraction_reading(text)
    except ValueError as e:  # int() also refuses a literal past its digit limit
        return ValueError, str(e)


@given(st.text("+-0123456789\u0663\u0661 ._eE", max_size=12))
@example("+12")
@example("-0")
@example("00012")
@example("-00012")
@example("5" * 5000)
@example("-" + "5" * 5000)
@example("+" + "5" * 5000)
@example("\u0663")
@example("-\u0663")
@example("+\u0663")
@example("+-1")
@example("")
@example("-")
@example("--1")
@example("1_0")
@example(" 12")
def test_the_integer_path_reads_as_the_grammar_does(text):
    # ahead of the regex, an optional sign and ASCII digits go to int()
    try:
        got = to_rational(text)
    except ValueError as e:
        got = ValueError, str(e)
    want = _regex_reading(text)
    assert type(got) is type(want) and got == want


@given(
    st.integers(3, 24),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.3, 0.6]),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20)),
)
def test_parse_of_serialize_gives_back_points_types_and_edges(n, seed, density, digits, offset):
    # per axis, a decimal scale and an integer offset: an affine map that
    # keeps general position and planarity, so a graph with int and with
    # Fraction coordinates, some of them integral
    g = generate(n, seed, density)
    (kx, ky), (ox, oy) = digits, offset
    scaled = [(p.id, Fraction(p.x, 10**kx) + ox, Fraction(p.y, 10**ky) + oy) for p in g.points]
    h = build(scaled, g.edges)
    back = parse(serialize(h))
    assert [(p.id, p.x, p.y, type(p.x), type(p.y)) for p in back.points] == [
        (p.id, p.x, p.y, type(p.x), type(p.y)) for p in sorted(h.points, key=lambda p: p.id)
    ]
    assert back.edges == h.edges


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_serialize_parse_round_trip_is_byte_identical(case):
    g = generate(*case)
    shifted = build([(p.id, Fraction(p.x, 2), p.y - Fraction(1, 8)) for p in g.points], g.edges)
    for h in (g, shifted):
        text = serialize(h)
        assert serialize(parse(text)) == text
    assert instance_hash(parse(serialize(g))) == GOLDEN[case]


def _all_outputs(g):
    """The morph's op log, polygon, final edges, stats and replay report, and
    the added edges, total and verify report of each augmentation; an
    exception's class and message in place of an output."""
    out = {}

    def record(key, fn):
        try:
            out[key] = fn()
        except PslgError as exc:
            out[key] = (type(exc).__name__, str(exc))

    def morph():
        final, poly, log = transform(g)
        jsonl = oplog_to_jsonl(log.steps)
        return jsonl, poly.seq, sorted(final.edges), log.stats, replay(g, oplog_from_jsonl(jsonl))

    def augment(fn, mode):
        res = fn(g)
        return res.added, res.total_added_length, verify(g, res.added, mode)

    record("transform", morph)
    record("heur2ec", lambda: augment(augment_2ec, "2ec"))
    record("heur2vc", lambda: augment(augment_2vc, "2vc"))
    record("opt2ec", lambda: augment(lambda h: optimal_augment(h, "2ec"), "2ec"))
    record("opt2vc", lambda: augment(lambda h: optimal_augment(h, "2vc"), "2vc"))
    return out


def test_int_and_fraction_coordinates_give_identical_outputs():
    # parse and generate give int coordinates; a Point may still carry an
    # integral Fraction, and every output must be the same on it
    for i in range(40):
        g = generate(6 + i % 17, 100 + i, (0.2, 0.4, 0.6, 0.3)[i % 4])
        h = build([Point(p.id, Fraction(p.x), Fraction(p.y)) for p in g.points], g.edges)
        assert all(type(p.x) is int and type(p.y) is int for p in g.points)
        assert all(type(p.x) is Fraction and type(p.y) is Fraction for p in h.points)
        assert _all_outputs(h) == _all_outputs(g), i


def similar(g, scale, offset):
    return build(
        [(p.id, p.x * scale + offset, p.y * scale + offset) for p in g.points],
        sorted(g.edges),
    )


def test_outputs_invariant_under_translation_and_scaling():
    # every decision is exact, so huge offsets and extreme scales must not
    # change a single operation
    for case in ((9, 11, 0.3), (12, 12, 0.5), (15, 13, 0.0), (18, 14, 0.6)):
        g = generate(*case)
        ops = transform(g)[2].steps
        opt = optimal_augment(g, "2vc").added
        heur = augment_2vc(g).added
        for scale, offset in ((1, 10**15), (Fraction(1, 10**12), -(10**15)), (10**9, 0)):
            h = similar(g, scale, offset)
            assert transform(h)[2].steps == ops, (case, scale, offset)
            assert optimal_augment(h, "2vc").added == opt
            assert augment_2vc(h).added == heur
