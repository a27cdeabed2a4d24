"""Shared fixtures: the acceptance-line collector and a call counter.

Lines appended through the acceptance_log fixture are replayed in a
terminal section after the run, where capture cannot swallow them.
"""

import pytest

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


def pytest_terminal_summary(terminalreporter):
    if _lines:
        terminalreporter.section("acceptance criteria")
        for line in _lines:
            terminalreporter.write_line(line)
