"""hardsum._fork.streamed: a forked child's items reach the caller in order,
with its warnings, and an item that does not pickle ends the stream."""
import warnings

import pytest

from conftest import counted_forks, no_child_left
from hardsum._fork import streamed


def _items():
    yield 1
    warnings.warn("after the first item", UserWarning)
    yield 2
    yield lambda: 3       # does not pickle
    yield 4


def test_an_item_that_does_not_pickle_ends_the_stream(monkeypatch):
    calls = counted_forks(monkeypatch)
    got = []
    with pytest.warns(UserWarning, match="^after the first item$"), \
            pytest.raises(RuntimeError, match="^function: <function "):
        with streamed(_items, True) as stream:
            got.extend(stream)
    assert len(calls) == 1 and got == [1, 2]
    no_child_left()


def test_inline_the_stream_is_the_generator(monkeypatch):
    calls = counted_forks(monkeypatch, cpus=1)
    with pytest.warns(UserWarning), streamed(_items, True) as stream:
        got = list(stream)
    assert calls == [] and got[:2] == [1, 2] and got[3] == 4
