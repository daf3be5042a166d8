"""Metamorphic properties of whole federated runs, compared round by round with ``==``.

fedp3e is FedAvg plus a one-shot prototype exchange, so before that exchange,
or when it never fires, its history is FedAvg's. Local min-max scaling maps a
column multiplied by a power of two to the same bits, so no strategy can tell
the two inputs apart, the exchange included.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.datasets import SCENARIOS
from protofed.federation import STRATEGIES

DIMS = 4


@st.composite
def runs(draw, **overrides):
    """A small synthetic federation: 3 clients of 3 classes, 2–8 rounds of 1–2 epochs."""
    rounds = draw(st.integers(2, 8))
    cfg = dict(
        rounds=rounds,
        trigger_round=draw(st.integers(2, rounds)),
        train=pf.TrainConfig(epochs=draw(st.integers(1, 2)), batch_size=16,
                             learning_rate=0.01, prox_mu=0.1),
        hidden=((8, 1e-3),),
        dropout_p=0.5,
        seed=draw(st.integers(0, 2**16)),
    )
    cfg.update(overrides)
    data = pf.synthesize(pf.SyntheticSpec(3, DIMS, 1, 0.1, 24, seed=draw(st.integers(0, 2**16))))
    plan = pf.build_partition_plan(draw(st.sampled_from(SCENARIOS)), data.class_counts(), 3)
    return pf.FederationConfig(**cfg), pf.partition(data, plan, seed=cfg["seed"])


def _history(cfg, shards, strategy):
    return pf.run_federation(cfg, pf.split_clients(cfg, shards), strategy)


@settings(max_examples=6, deadline=None)
@given(runs(threshold=5e-324))
def test_fedp3e_whose_exchange_never_fires_equals_fedavg(run):
    # The exchange fires only if every earlier round scored an accuracy of exactly 0.
    cfg, shards = run
    p3e = _history(cfg, shards, "fedp3e")
    assume(pf.exchange_round(p3e) is None)
    assert p3e == _history(cfg, shards, "fedavg")


@settings(max_examples=6, deadline=None)
@given(runs(threshold=1.0))
def test_fedp3e_rounds_before_its_exchange_equal_fedavg(run):
    # The exchange fires unless every earlier round scored an accuracy of exactly 1;
    # then every round comes before it.
    cfg, shards = run
    p3e = _history(cfg, shards, "fedp3e")
    before = (pf.exchange_round(p3e) or cfg.rounds + 1) - 1
    assert p3e[:before] == _history(cfg, shards, "fedavg")[:before]


@settings(max_examples=6, deadline=None)
@given(runs(threshold=1.0, trigger_round=1), st.sampled_from(STRATEGIES),
       st.lists(st.integers(-20, 20), min_size=DIMS, max_size=DIMS))
def test_power_of_two_column_scales_leave_every_history_equal(run, strategy, exponents):
    # A round-1 exchange always fires, so fedp3e's GMM fits, reclustering and
    # augmentation all run on the scaled data.
    cfg, shards = run
    scales = np.ldexp(1.0, exponents)
    scaled = [pf.Dataset(s.features * scales, s.labels, s.class_names) for s in shards]
    history = _history(cfg, shards, strategy)
    assert history == _history(cfg, scaled, strategy)
    assert (pf.exchange_round(history) == 1) == (strategy == "fedp3e")
