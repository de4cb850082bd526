import pytest

import secquant.solver


@pytest.fixture
def solve_calls(monkeypatch):
    """Record the (model, channel) of every threshold search the solver
    runs.  Counts calls, not time."""
    calls = []
    search = secquant.solver.max_channel_divergence

    def counted(model, channel):
        calls.append((model, channel))
        return search(model, channel)

    monkeypatch.setattr(secquant.solver, "max_channel_divergence", counted)
    return calls
