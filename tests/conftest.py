import pytest

import secquant.solver


@pytest.fixture
def solve_calls(monkeypatch):
    """Record the (model, channel) of every lane of every threshold search
    the solver runs, in lane order.  Counts lanes, not calls or time."""
    calls = []
    search = secquant.solver._max_channel_divergences

    def counted(models, channels):
        calls.extend(zip(models, channels))
        return search(models, channels)

    monkeypatch.setattr(secquant.solver, "_max_channel_divergences", counted)
    return calls
