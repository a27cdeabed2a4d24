"""Shared fixtures: the acceptance-line collector, a call counter and the transform constants.

Lines appended through the acceptance_log fixture are replayed in a
terminal section after the run, where capture cannot swallow them.
"""

import pytest

from pdmosc import pct

_lines: list[str] = []


@pytest.fixture
def acceptance_log():
    return _lines


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name and returns the test's counts.

    The counts are one dict, keyed by name, shared by every wrap in the test;
    each starts at 0, and the wrapper passes every argument through.
    """
    counts = {}

    def wrap(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(owner, name, counted)
        return counts

    return wrap


@pytest.fixture
def pct_map():
    """pct_map(p) gives the transform constants pct.PctMap(a_bar, c_bar) of the model p.

    a_bar = 1/a and c_bar = omega0^2 a^2/4 + 1/a^2 + b^2, from p's half-width a:
    the library sums every energy in closed form and builds no PctMap itself,
    so the transform tests build it here.
    """

    def build(p):
        a2 = p.a * p.a
        # omega0 a^2 stays bounded where omega0^2 would overflow
        return pct.PctMap(1.0 / p.a, 0.25 * p.omega0 * (p.omega0 * a2) + 1.0 / a2 + p.b * p.b)

    return build


def pytest_terminal_summary(terminalreporter):
    if _lines:
        terminalreporter.section("acceptance criteria")
        for line in _lines:
            terminalreporter.write_line(line)
