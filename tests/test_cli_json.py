"""The CLI's JSON emitter: the bytes of ``json.dumps(indent=2)``, with NaN and +-inf as null.

``cli._json_payload`` writes every JSON payload without the ``json`` module's
encoder, and prints each list of records held as a ``cli._Table`` of columns.
The reference here is ``json.dumps`` over a copy of the value in which each
non-finite float is replaced by None, and each table by its list of dicts.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmosc import cli


def _null_nonfinite(value: object) -> object:
    # the reference copy: JSON has no NaN or infinity, so each non-finite float becomes None
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    return value


def _reference(value: object) -> str:
    return json.dumps(_null_nonfinite(value), indent=2, allow_nan=False)


# float repr switches to exponent form at 1e16 and below 1e-4: values on both sides
_SWITCH_POINTS = [
    x
    for edge in (1e16, 1e-4)
    for x in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf))
]
_FLOATS = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]
        + [float(x) for x in _SWITCH_POINTS]
        + [-float(x) for x in _SWITCH_POINTS]
    ),
)
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t\b\fé \ud800\U0001f600a '),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_VALUES)
def test_emitter_prints_the_bytes_of_json_dumps(value):
    assert cli._json_payload(value) == _reference(value)


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), {1: 2.0}, [{"x": {(1,): 0}}], np.float32(1.5)])
def test_emitter_refuses_what_it_cannot_print(value):
    with pytest.raises(TypeError):
        cli._json_payload(value)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


_PAYLOAD_ARGV = [
    ["solve", "--omega0", "1", "--A", "4.5", "--samples", "5"],
    ["solve", "--omega0", "1", "--A", "3", "--b", "0.1"],
    ["verify", "--omega0", "1", "--A", "3"],
    ["jafarov", "--omega0", "1", "--l", "3"],
]


def test_payloads_do_not_go_through_the_json_encoder(monkeypatch):
    expected = [_run(argv) for argv in _PAYLOAD_ARGV]

    def refuse(self, o, _one_shot=False):
        raise AssertionError("a payload went through json.JSONEncoder")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    for argv, (rc, out, err) in zip(_PAYLOAD_ARGV, expected):
        assert out.startswith("{\n") and err == ""
        assert _run(argv) == (rc, out, err)


@pytest.mark.parametrize("samples", ["1", "40"])
@pytest.mark.parametrize("A, b", [("4", "0"), ("4.5", "0"), ("3.5", "0.2")])
def test_solve_samples_print_the_bytes_of_json_dumps(A, b, samples):
    # b = 0 on both polynomial routes (integer and non-integer A), and b != 0
    rc, out, err = _run(["solve", "--omega0", "1", "--A", A, "--b", b, "--samples", samples])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert all(len(w["samples"]) == int(samples) for w in payload["wavefunctions"])


def test_sample_table_prints_nonfinite_psi_as_null():
    xs = [-0.75, -0.25, 0.25, 0.75]
    table = cli._Table(
        ("x", "psi"), ([float.__repr__(x) for x in xs], [math.nan, math.inf, -math.inf, 0.5])
    )
    dict_form = [{"x": x, "psi": v} for x, v in zip(xs, [None, None, None, 0.5])]
    got = cli._json_payload({"wavefunctions": [{"n": 0, "samples": table}]})
    assert got == json.dumps({"wavefunctions": [{"n": 0, "samples": dict_form}]}, indent=2)


@st.composite
def _table_and_dict_form(draw):
    # a table of 0-6 records under 1-4 distinct keys, and its list of dicts.  Each column is
    # a range of ints, a list of floats (plain or np.float64), or a list of JSON texts,
    # which the dict form holds as the values they print
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 6))
    columns, values = [], []
    for _ in keys:
        kind = draw(st.sampled_from(["range", "float", "text"]))
        if kind == "range":
            start = draw(st.integers(-(2**70), 2**70))
            columns.append(range(start, start + rows))
            values.append(list(columns[-1]))
        elif kind == "float":
            column = draw(st.lists(st.one_of(_FLOATS, _FLOATS.map(np.float64)),
                                   min_size=rows, max_size=rows))
            columns.append(draw(st.sampled_from([column, tuple(column)])))
            values.append(column)
        else:
            leaf = st.one_of(_TEXT, _FLOATS.filter(math.isfinite))
            column = draw(st.lists(leaf, min_size=rows, max_size=rows))
            columns.append([json.dumps(v) for v in column])
            values.append(column)
    table = cli._Table(tuple(keys), tuple(columns))
    return table, [dict(zip(keys, record)) for record in zip(*values)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_table_and_dict_form(), st.integers(0, 2))
@example((cli._Table(("n", "energy"), (range(1), [0.5])), [{"n": 0, "energy": 0.5}]), 0)
@example((cli._Table(("x", "psi"), (["-0.5"], [-0.0])), [{"x": -0.5, "psi": -0.0}]), 2)
def test_a_table_prints_the_bytes_of_its_dict_form(case, depth):
    # the table alone, and nested under depth lists or dicts, so that it prints at that indent
    table, dict_form = case
    got, want = table, dict_form
    for level in range(depth):
        if level % 2:
            got, want = [got], [want]
        else:
            got, want = {"t": got}, {"t": want}
    assert cli._json_payload(got) == _reference(want)


@pytest.mark.parametrize(
    "column",
    [[0.5, 1], [0.5, True], [0.5, None], [0.5, "1.0"], [np.float32(1.5)], ["0.5", 1.0]],
    ids=["int", "bool", "none", "str", "float32", "text-then-float"],
)
def test_a_column_entry_that_is_not_a_float_is_refused(column):
    # float.__repr__ refuses it, or the join of a column of texts does; it is never misprinted
    table = cli._Table(("n", "v"), (range(len(column)), column))
    with pytest.raises(TypeError):
        cli._json_payload({"levels": table})
