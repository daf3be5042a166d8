"""Metamorphic properties of whole federated runs, compared round by round with ``==``.

fedp3e is FedAvg plus a one-shot prototype exchange, so before that exchange,
or when it never fires, its history is FedAvg's. FedAvg over one client weights
its update by 1, so it is that client's local training chained round to round.
Local min-max scaling maps a column multiplied by a power of two to the same
bits, so no strategy can tell the two inputs apart, the exchange included. The
server reclusters the uploaded prototypes without regard to which client sent
which.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.datasets import SCENARIOS
from protofed.federation import STRATEGIES, _SEED_INIT, _SEED_TRAIN, _int_seed

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
    data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=DIMS, cluster_spread=0.1,
                                          samples_per_class=24, seed=draw(st.integers(0, 2**16))))
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


@settings(max_examples=6, deadline=None)
@given(runs())
def test_one_client_fedavg_equals_chained_local_training(run):
    cfg, shards = run
    [(train, test)] = pf.split_clients(cfg, shards[:1])
    history = _history(cfg, shards[:1], "fedavg")
    spec = pf.ModelSpec(train.n_features, cfg.hidden, cfg.dropout_p, train.n_classes)
    params = pf.build_model(spec, _int_seed(cfg.seed, _SEED_INIT))
    local = replace(cfg.train, prox_mu=0.0)
    for r, metrics in enumerate(history, 1):
        seed = _int_seed(cfg.seed, _SEED_TRAIN, r, 0)
        params, _ = pf.train_local(params, train, local, seed)
        assert metrics.client_reports == (pf.evaluate(params, test),)


_ROW = st.lists(st.floats(-1.0, 1.0), min_size=DIMS, max_size=DIMS)
_UPLOAD = st.builds(pf.Prototypes, st.dictionaries(st.integers(0, 2), st.lists(_ROW, min_size=1, max_size=3),
                                                   min_size=1))
_TWO_ORDERS = st.lists(_UPLOAD, min_size=1, max_size=4).flatmap(
    lambda uploads: st.tuples(st.just(uploads), st.permutations(uploads)))


@settings(max_examples=25, deadline=None)
@given(_TWO_ORDERS, st.integers(0, 2**32 - 1))
def test_aggregate_prototypes_ignores_the_order_of_the_uploads(orders, seed):
    uploads, shuffled = orders
    gp = pf.aggregate_prototypes(uploads, seed)
    other = pf.aggregate_prototypes(shuffled, seed)
    assert gp.by_class.keys() == other.by_class.keys()
    for class_id, rows in gp.by_class.items():
        assert np.array_equal(rows, other.by_class[class_id])
