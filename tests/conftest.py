"""Shared fixtures: the committed severe fixture, run once for every test that checks it."""

import pytest

import protofed.cli as cli
from helpers import SEVERE_FIXTURE


@pytest.fixture(scope="session")
def severe_run(tmp_path_factory):
    """``protofed run`` on the severe fixture: its output directory and each strategy's history."""
    out = tmp_path_factory.mktemp("severe") / "out"
    histories = {}
    run_federation = cli.run_federation

    def recording(cfg, clients, strategy):
        histories[strategy] = run_federation(cfg, clients, strategy)
        return histories[strategy]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_federation", recording)
        assert cli.main(["run", str(SEVERE_FIXTURE), "--out", str(out)]) == 0
    return out, histories
