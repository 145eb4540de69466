"""Lockstep replicas: every run of a run_experiments call is its solo run.

run_experiments advances the runs of one seed as replicas along a leading
axis of every array, and within a round it stacks the clients that share an
architecture and a row count along the same axis.  The contract is
bit-identity, not a tolerance: each replica's rounds.jsonl equals the one
its config writes alone, one client at a time, and a replica that diverges
fails with its solo message while the others carry on.  The stacked kernels
are checked the same way against their slices.
"""

import copy
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedstruct import cli, federation
from fedstruct.config import architectures, config_from_dict, round_config
from fedstruct.errors import (
    ContractError,
    DegenerateInputError,
    NumericFailureError,
)
from fedstruct.federation import (
    PROTOTYPE_MODES,
    SCENARIOS,
    PrototypeSet,
    RoundConfig,
    _accuracy,
    _class_means,
    aggregate_prototypes,
    fixed_hypersphere_prototypes,
    run_experiments,
)
from fedstruct.losses import (
    KNOWN_LOSSES,
    _PAIRWISE_KERNELS,
    _UNIT_ROW_LOSSES,
    AlignmentKind,
    _contrastive,
    loss_contrastive,
    pairwise_loss,
)
from fedstruct.models import (
    ArchitectureSpec,
    _backward_and_step,
    _forward,
    _softmax_cross_entropy,
    build_model,
    replicate,
)
from fedstruct.data import DatasetShard
from fedstruct.tensor import _check_norms, _kept, _unit_rows
from oracles import gcsa_per_side, rcsa_per_side
from solo import run_one, stack_of_one, train_step
from fedstruct.runner import build_shards, run_scenario, run_scenarios, write_rounds_jsonl

# the README's demo.json at seed 1, and test_cli's TINY and UNSTABLE configs
DEMO = {
    "dataset": {"classes": 5, "input_dim": 8, "samples_per_class": 40},
    "partition": {"clients": 4, "alpha": 0.5},
    "training": {"rounds": 10, "batch_size": 16, "local_epochs": 1},
    "seed": 1,
}
TINY = {
    "dataset": {"classes": 3, "input_dim": 5, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.5},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"rounds": 2, "batch_size": 8, "local_epochs": 1, "learning_rate": 0.1},
}
UNSTABLE = {
    "dataset": {"classes": 3, "input_dim": 6, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.3},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"alignment": "mse", "rounds": 8, "batch_size": 8,
                 "local_epochs": 1, "learning_rate": 1000.0,
                 "prototype_mode": "fixed_hypersphere"},
}
# the five losses under five weight pairs, so that each alignment term sees
# a different set of loss kinds
MIXED = list(zip(KNOWN_LOSSES, (1.0, 0.5, 0.0, 2.0, 1.0), (1.0, 0.0, 2.0, 0.5, 1.0)))
KNOWN_KINDS = {loss: AlignmentKind.parse(loss, 0.5) for loss in KNOWN_LOSSES}


def _setup(payload, scenario, mode):
    payload = copy.deepcopy(payload)
    payload["training"]["prototype_mode"] = mode
    cfg = config_from_dict(payload)
    _, shards = build_shards(cfg)
    kwargs = dict(rounds=cfg.training.rounds, seed=cfg.seed,
                  num_classes=cfg.dataset.classes, scenario=scenario)
    return cfg, shards, architectures(cfg), kwargs


def _round_config(cfg, loss, lam, gamma):
    point = copy.deepcopy(cfg)
    point.training.alignment, point.training.lam, point.training.gamma = loss, lam, gamma
    return round_config(point)


def _jsonl(reports) -> bytes:
    buf = io.StringIO()
    for rep in reports:
        buf.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    return buf.getvalue().encode()


def _solo(shards, archs, rc, kwargs):
    """The rounds.jsonl bytes of one config run alone, or its failure message."""
    try:
        return _jsonl(run_one(shards, archs, rc, **kwargs))
    except NumericFailureError as exc:
        return str(exc)


def _lockstep(shards, archs, rcs, kwargs):
    return [str(r) if isinstance(r, NumericFailureError) else _jsonl(r)
            for r in run_experiments(shards, archs, rcs, **kwargs)]


@pytest.mark.parametrize("mode", PROTOTYPE_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("payload", [DEMO, TINY], ids=["demo", "tiny"])
def test_every_replica_equals_its_solo_run(payload, scenario, mode):
    cfg, shards, archs, kwargs = _setup(payload, scenario, mode)
    mixed = [_round_config(cfg, *point) for point in MIXED]
    grid = [_round_config(cfg, "gcsa", lam, gamma) for lam in (0.0, 2.0) for gamma in (0.0, 2.0)]
    for rcs in (mixed, grid):
        got = _lockstep(shards, archs, rcs, kwargs)
        want = [_solo(shards, archs, rc, kwargs) for rc in rcs]
        assert all(isinstance(w, bytes) for w in want)
        assert got == want


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_diverging_replicas_fail_alone_with_their_solo_message(scenario):
    cfg, shards, archs, kwargs = _setup(UNSTABLE, scenario, "fixed_hypersphere")
    weights = (0.0, 1000.0)
    rcs = [_round_config(cfg, "mse", lam, gamma) for lam in weights for gamma in weights]
    got = _lockstep(shards, archs, rcs, kwargs)
    want = [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert got == want
    assert isinstance(want[0], bytes)  # the weight-free baseline survives
    assert all(isinstance(w, str) and w.startswith("round ") for w in want[1:])


@pytest.mark.parametrize("scenario, failed_round", [("hetero", 7), ("homo_shared", 4)])
def test_aggregate_mode_replicas_fail_alone_with_their_solo_message(scenario, failed_round):
    # with aggregated prototypes a replica can also fail after training, in
    # the upload pass, and leave the stack before the server aggregates
    cfg, shards, archs, kwargs = _setup(UNSTABLE, scenario, "aggregate")
    weights = (0.0, 1000.0)
    rcs = [_round_config(cfg, "mse", lam, gamma) for lam in weights for gamma in weights]
    got = _lockstep(shards, archs, rcs, kwargs)
    assert got == [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert isinstance(got[0], bytes)
    assert all(g.startswith(f"round {failed_round}: ") for g in got[1:])
    after_training = [g for g in got[1:] if not g.startswith(f"round {failed_round}: client ")]
    assert len(after_training) == (2 if scenario == "hetero" else 0)


# test_cli's overflow config: training stays finite, a round's prototypes do not
OVERFLOWING = {
    "dataset": {"classes": 3, "input_dim": 16, "samples_per_class": 40, "noise": 0.0},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[]], "feature_dim": 4},
    "training": {"rounds": 2, "batch_size": 8, "local_epochs": 1, "learning_rate": 1e-310},
}


@pytest.mark.parametrize("separation, mode, where", [
    (2e307, "aggregate", "aggregation"),
    (3e307, "aggregate", "upload"),
    (3e307, "fixed_hypersphere", "upload"),
])
def test_overflowing_prototypes_fail_each_replica_with_its_solo_message(separation, mode, where):
    payload = copy.deepcopy(OVERFLOWING)
    payload["dataset"]["separation"] = separation
    cfg, shards, archs, kwargs = _setup(payload, "hetero", mode)
    rcs = [_round_config(cfg, loss, 0.0, 0.0) for loss in ("mse", "gcsa", "contrastive")]
    got = _lockstep(shards, archs, rcs, kwargs)
    assert got == [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert got == [f"round 0: {where} produced non-finite prototypes"] * 3


# a small domain-shift config at participation 0.5, for the digest below
SHIFTED = {
    "dataset": {"classes": 4, "input_dim": 6, "samples_per_class": 30},
    "partition": {"scheme": "domain_shift", "clients": 6, "shift_scale": 1.0},
    "model": {"hidden_widths": [[], [8], [12, 8]], "feature_dim": 5},
    "training": {"rounds": 4, "batch_size": 8, "local_epochs": 1,
                 "participation_fraction": 0.5},
    "seed": 3,
}


def test_lockstep_runs_match_pinned_digest(tmp_path):
    # sha256 over every rounds.jsonl and prototype snapshot of the five
    # losses in lockstep, in every scenario and prototype mode; recorded
    # from the engine that kept one PrototypeSet per client upload
    h = hashlib.sha256()
    for scenario in SCENARIOS:
        for mode in PROTOTYPE_MODES:
            payload = copy.deepcopy(SHIFTED)
            payload["model"]["scenario"] = scenario
            payload["training"]["prototype_mode"] = mode
            cfg = config_from_dict(payload)
            dirs = [tmp_path / scenario / mode / loss for loss, _, _ in MIXED]
            for run, snapshots in zip(run_scenarios(cfg, MIXED, snapshot_dirs=dirs), dirs):
                h.update(_jsonl(run.reports))
                for k in range(cfg.training.rounds):
                    h.update((snapshots / f"round_{k}.csv").read_bytes())
    assert h.hexdigest() == "7bd3c1951fae51af1ba2747d1bbcc4bd63b92d720e39594aac9b038238a36ef7"


def _one_client_per_stack(monkeypatch):
    monkeypatch.setattr(federation, "_stack_groups", lambda clients, keys: [[i] for i in clients])


def _stack_sizes(monkeypatch):
    """Record the size of every stack group the engine forms."""
    sizes = []
    group = federation._stack_groups

    def recorded(clients, keys):
        groups = group(clients, keys)
        sizes.extend(len(g) for g in groups)
        return groups

    monkeypatch.setattr(federation, "_stack_groups", recorded)
    return sizes


# four equal domain-shift shards, at points whose loss-term sums or whose
# round prototypes overflow, so that replicas fail in and after training
DIVERGING = [
    ({**TINY, "partition": {"scheme": "domain_shift", "clients": 4},
      "training": {**TINY["training"], "learning_rate": 1e-300}},
     [("mse", 0.0, 0.0), ("mse", 2e307, 0.0), ("contrastive", 5e307, 0.0),
      ("contrastive", 1e308, 0.0), ("cosine", 1e308, 0.0), ("mse", 1e308, 0.0)]),
    ({**OVERFLOWING, "dataset": {**OVERFLOWING["dataset"], "separation": 6e307},
      "partition": {"scheme": "domain_shift", "clients": 4, "shift_scale": 0.0}},
     [("mse", 0.0, 0.0), ("gcsa", 0.0, 0.0)]),
]


def test_failure_messages_match_their_pin():
    # every run's failure message, or "ok", for the diverging configs above
    # in every scenario and prototype mode; recorded from the engine that
    # replayed a failing phase one client at a time
    def overflowing(separation):
        return {**OVERFLOWING, "dataset": {**OVERFLOWING["dataset"], "separation": separation}}

    runs = ([(UNSTABLE, [("mse", lam, gamma) for lam in (0.0, 1000.0) for gamma in (0.0, 1000.0)])]
            + DIVERGING
            + [(overflowing(s), [(loss, 0.0, 0.0) for loss in ("mse", "gcsa", "contrastive")])
               for s in (2e307, 3e307)])
    lines = []
    for payload, points in runs:
        for scenario in SCENARIOS:
            for mode in PROTOTYPE_MODES:
                cfg, shards, archs, kwargs = _setup(payload, scenario, mode)
                got = _lockstep(shards, archs, [_round_config(cfg, *p) for p in points], kwargs)
                lines += [g if isinstance(g, str) else "ok" for g in got]
    assert len(lines) == 108 and lines.count("ok") == 31
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "09af309a3c6afaeba65c1956bf39b5493ca550ed5d2a8b881cc2f444a72b1091"


@pytest.mark.parametrize("mode", PROTOTYPE_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stacked_clients_equal_one_client_at_a_time(monkeypatch, scenario, mode):
    runs = [(SHIFTED, MIXED)] + DIVERGING

    def results():
        out = []
        for payload, points in runs:
            cfg, shards, archs, kwargs = _setup(payload, scenario, mode)
            out.append(_lockstep(shards, archs, [_round_config(cfg, *p) for p in points], kwargs))
        return out

    with monkeypatch.context() as patch:
        sizes = _stack_sizes(patch)
        stacked = results()
    assert max(sizes) > 1  # clients did run as stacks
    _one_client_per_stack(monkeypatch)
    assert stacked == results()
    assert all(isinstance(run, bytes) for run in stacked[0])
    assert any(isinstance(run, str) for runs in stacked[1:] for run in runs)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stacked_clients_with_their_own_labels_equal_their_solo_runs(scenario):
    # equal-sized shards whose label counts differ from client to client, so
    # that every stack's clients upload different class counts
    rng = np.random.default_rng(15)
    shards = [DatasetShard(i, rng.standard_normal((12, 5)), rng.integers(0, 3, 12),
                           rng.standard_normal((6, 5)), rng.integers(0, 3, 6))
              for i in range(4)]
    archs = [ArchitectureSpec((), 4), ArchitectureSpec((8,), 4)]
    kwargs = dict(rounds=3, seed=2, num_classes=3, scenario=scenario)
    base = RoundConfig(alignment=KNOWN_KINDS["gcsa"], batch_size=4, local_epochs=1)
    rcs = [RoundConfig(**{**base.__dict__, "alignment": KNOWN_KINDS[loss], "lam": lam,
                          "gamma": gamma}) for loss, lam, gamma in MIXED]
    assert _lockstep(shards, archs, rcs, kwargs) == [_solo(shards, archs, rc, kwargs)
                                                     for rc in rcs]


def _one_participant_per_call(patch):
    """Train each participant in a phase call of its own, so that a replica
    that fails is dropped before the next participant trains: the order in
    which a run of one meets its failures."""
    train = federation._Replicas.train

    def one_by_one(self, r, participants):
        skips = {}  # config index -> structural skips over the participants so far
        for i in participants:
            if not train(self, r, [i]):
                return False
            for pos, k in enumerate(self.live):
                skips[k] = skips.get(k, 0) + int(self.skips[pos])
        self.skips[:] = [skips[k] for k in self.live]
        return True

    patch.setattr(federation._Replicas, "train", one_by_one)


# weights from harmless to divergent: 1e4 and up overflow a term or a step
FUZZ_WEIGHTS = st.sampled_from([0.0, 0.5, 3.0, 1e4, 1e150, 1e308])


@st.composite
def lockstep_cases(draw):
    """A tiny federation of 1-4 clients with random shards (train row counts
    that often agree, so that clients stack), one or two architectures,
    both prototype modes, all scenarios, and 1-4 points of mixed kinds with
    zero and divergent weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    clients, classes = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    dim, scale = draw(st.integers(1, 4)), draw(st.sampled_from([1.0, 1e3, 1e150]))
    rows = st.sampled_from([2, 5, 8])
    shards = [DatasetShard(i, scale * rng.standard_normal((n, dim)), rng.integers(0, classes, n),
                           rng.standard_normal((t, dim)), rng.integers(0, classes, t))
              for i, (n, t) in enumerate((draw(rows), draw(st.integers(1, 4)))
                                         for _ in range(clients))]
    feature_dim = draw(st.integers(1, 8))
    archs = [ArchitectureSpec(tuple(widths), feature_dim)
             for widths in draw(st.lists(st.lists(st.integers(1, 8), max_size=2),
                                         min_size=1, max_size=2))]
    base = RoundConfig(
        alignment=KNOWN_KINDS["mse"], batch_size=draw(st.integers(2, 6)),
        local_epochs=draw(st.integers(1, 2)),
        learning_rate=draw(st.sampled_from([0.1, 1.0, 100.0])),
        participation_fraction=draw(st.sampled_from([0.5, 1.0])),
        prototype_mode=draw(st.sampled_from(PROTOTYPE_MODES)))
    points = draw(st.lists(st.tuples(st.sampled_from(KNOWN_LOSSES), FUZZ_WEIGHTS, FUZZ_WEIGHTS),
                           min_size=1, max_size=4))
    rcs = [RoundConfig(**{**base.__dict__, "alignment": KNOWN_KINDS[loss], "lam": lam,
                          "gamma": gamma}) for loss, lam, gamma in points]
    kwargs = dict(rounds=draw(st.integers(1, 2)), seed=draw(st.integers(0, 3)),
                  num_classes=classes, scenario=draw(st.sampled_from(SCENARIOS)))
    return shards, archs, rcs, kwargs


def _failed_steps_keep_their_model(shard, arch, rcs, num_classes):
    """Step a fresh model through the shard's batches at each config with the
    engine's training step until a step fails: a step that fails must leave
    every parameter as it was."""
    protos = fixed_hypersphere_prototypes(num_classes, arch.feature_dim, 0)
    for rc in rcs:
        model = build_model(arch, shard.train_features.shape[1], num_classes, seed=0)
        for start in range(0, shard.num_train - 1, rc.batch_size):
            rows = slice(start, start + rc.batch_size)
            before = [a.copy() for a in model.arrays()]
            _, _, failed = train_step(model, shard.train_features[rows],
                                      shard.train_labels[rows], protos, rc)
            if failed:
                assert all(np.array_equal(a, b, equal_nan=True)
                           for a, b in zip(model.arrays(), before))
                break


@pytest.mark.slow
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lockstep_cases())
def test_random_lockstep_runs_equal_their_solo_runs(case):
    # each replica's rounds.jsonl or failure message is its solo run's, with
    # clients stacked, one client per stack, and one participant per phase
    # call (the order of a run of one)
    shards, archs, rcs, kwargs = case
    want = [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert _lockstep(shards, archs, rcs, kwargs) == want
    with pytest.MonkeyPatch.context() as patch:
        _one_client_per_stack(patch)
        assert _lockstep(shards, archs, rcs, kwargs) == want
        _one_participant_per_call(patch)
        assert _lockstep(shards, archs, rcs, kwargs) == want
    _failed_steps_keep_their_model(shards[0], archs[0], rcs, kwargs["num_classes"])


# four equal shards of two architectures, so clients {0, 2} and {1, 3}
# train as two stacks, {0, 2} first
FOUR_EQUAL = {
    "dataset": {"classes": 3, "input_dim": 5, "samples_per_class": 40},
    "partition": {"scheme": "domain_shift", "clients": 4},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"rounds": 1, "batch_size": 8, "local_epochs": 1},
}


def _clients_of(shards, batch):
    """The clients whose train rows make up each client's batch of a (K, n, ...) stack."""
    return [next(c for c, s in enumerate(shards)
                 if (rows[:, None] == s.train_features).all(axis=2).any(axis=1).all())
            for rows in batch]


def _failing(client, tick):
    """Clients 1 and 2 fail: client 2 from the first tick, client 1 from
    the second, so that the participant order, not the tick, names client 1."""
    return client == 2 or (client == 1 and tick >= 1)


def test_a_failure_in_a_stack_names_the_first_failing_client(monkeypatch):
    # clients 1 and 2 fail in training, in different stacks, and client 1
    # comes first in participant order
    cfg, shards, archs, kwargs = _setup(FOUR_EQUAL, "hetero", "aggregate")
    assert federation._stack_groups(range(4), [(i % 2, s.num_train) for i, s in
                                               enumerate(shards)]) == [[0, 2], [1, 3]]
    step, stacks = federation._train_step, []

    def planted(steps, *args):
        poisoned = []
        for model, batch, labels in steps:
            batch = batch.copy()
            for k, c in enumerate(_clients_of(shards, batch)):
                if _failing(c, len(stacks)):
                    batch[k] = np.nan  # the slice's forward pass is non-finite
            poisoned.append((model, batch, labels))
        stacks.append([batch.shape[0] for _, batch, _ in steps])
        return step(poisoned, *args)

    monkeypatch.setattr(federation, "_train_step", planted)
    with pytest.raises(NumericFailureError) as exc:
        run_one(shards, archs, round_config(cfg), **kwargs)
    assert str(exc.value) == "round 0: client 1: forward pass produced non-finite values"
    # every tick runs once, with both stacks of two
    assert stacks == [[2, 2]] * len(range(0, shards[0].num_train - 1, 8))


def test_a_failure_in_a_fused_alignment_names_the_first_failing_client(monkeypatch):
    # clients 1 and 2 sit in different stacks; the GCSA kernel returns nan
    # for them while it serves every client of a step, and the run names
    # client 1, as its solo run does
    cfg, shards, archs, kwargs = _setup(FOUR_EQUAL, "hetero", "fixed_hypersphere")
    step, kernel, steps = federation._train_step, _PAIRWISE_KERNELS["gcsa"], []

    def recorded(stacks, *args):
        steps.append(sum((_clients_of(shards, batch) for _, batch, _ in stacks), []))
        return step(stacks, *args)

    def planted(*sides):
        values, grad = kernel(*sides)
        if values.shape[0] < len(steps[-1]):  # the inst term's rows agree, the proto term's may not
            return values, grad
        # one slice per client of the step, in its order
        failing = [_failing(c, len(steps) - 1) for c in steps[-1]]
        return np.where(failing, np.nan, values), grad

    monkeypatch.setattr(federation, "_train_step", recorded)
    monkeypatch.setitem(_PAIRWISE_KERNELS, "gcsa", planted)
    with pytest.raises(NumericFailureError) as exc:
        run_one(shards, archs, round_config(cfg), **kwargs)
    assert str(exc.value) == "round 0: client 1: non-finite training loss nan"
    # every tick runs once, with all four clients
    assert steps == [[0, 2, 1, 3]] * len(range(0, shards[0].num_train - 1, 8))


def test_each_kernel_serves_every_client_of_a_step_in_one_call(monkeypatch):
    # four equal shards of 24 rows, one batch each of all three classes, so
    # that each term's rows agree in count across the clients of a step
    payload = copy.deepcopy(FOUR_EQUAL)
    payload["training"].update(rounds=2, local_epochs=2, batch_size=24)
    cfg, shards, archs, kwargs = _setup(payload, "hetero", "fixed_hypersphere")
    calls = {name: [] for name in KNOWN_LOSSES}

    def counted(name, kernel):
        def call(*args):
            calls[name].append(args[0].shape[0])
            return kernel(*args)
        return call

    for name, kernel in list(_PAIRWISE_KERNELS.items()):
        monkeypatch.setitem(_PAIRWISE_KERNELS, name, counted(name, kernel))
    monkeypatch.setattr(federation, "_contrastive", counted("contrastive", _contrastive))
    rcs = [_round_config(cfg, loss, 1.0, 1.0) for loss in KNOWN_LOSSES]
    assert all(isinstance(run, bytes) for run in _lockstep(shards, archs, rcs, kwargs))
    steps = 2 * 2  # rounds times epochs, one batch each
    # one call per term and step, on one slice of each client
    assert calls == {name: [4] * (2 * steps) for name in KNOWN_LOSSES}


def test_overflowing_loss_term_sum_fails_its_replica_alone():
    payload = copy.deepcopy(TINY)
    payload["model"]["hidden_widths"] = [[]]
    payload["training"].update(rounds=1, learning_rate=1e-300)
    cfg, shards, archs, kwargs = _setup(payload, "hetero", "fixed_hypersphere")
    rcs = [_round_config(cfg, "cosine", lam, 0.0) for lam in (0.0, 1e308)]
    got = _lockstep(shards, archs, rcs, kwargs)
    assert got == [_solo(shards, archs, rc, kwargs) for rc in rcs]
    assert isinstance(got[0], bytes)
    assert got[1] == "round 0: client 0: loss-term sum overflowed"


# the crossdevice benchmark's config, cut to 20 rounds: 32 domain-shift
# clients at participation 0.5, whose equal train shards stack by architecture
CROSSDEVICE = {
    "dataset": {"samples_per_class": 200},
    "partition": {"scheme": "domain_shift", "clients": 32},
    "model": {"feature_dim": 16},
    "training": {"local_epochs": 1, "participation_fraction": 0.5, "rounds": 20},
}


def test_crossdevice_dimensionality_matches_pinned_digest(tmp_path, capsys):
    # sha256 over the three scenarios' rounds.jsonl; recorded from the
    # engine that trained, uploaded and evaluated one client at a time
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CROSSDEVICE))
    assert cli.main(["dimensionality", "--config", str(config), "--out", str(tmp_path)]) == 0
    h = hashlib.sha256()
    for scenario in SCENARIOS:
        h.update((tmp_path / scenario / "rounds.jsonl").read_bytes())
    assert h.hexdigest() == "0caa1942e3b60f56beda853096f644fe5e8c4f572da011cd58ffa98d394b73a8"


def test_replicas_that_skip_differently_equal_their_solo_runs():
    cfg, shards, archs, kwargs = _setup(UNSTABLE, "hetero", "fixed_hypersphere")
    weights = (0.0, 10.0, 1000.0)
    points = [(lam, gamma) for lam in weights for gamma in weights]
    rcs = [_round_config(cfg, "gcsa", lam, gamma) for lam, gamma in points]
    results = run_experiments(shards, archs, rcs, **kwargs)
    assert not any(isinstance(r, NumericFailureError) for r in results)
    # in some round the replicas that weight the proto term skip it unequally
    group = [[rep.skipped_structural_steps for rep in reports]
             for (lam, _), reports in zip(points, results) if lam > 0]
    assert any(len(set(counts)) > 1 for counts in zip(*group))
    assert [_jsonl(r) for r in results] == [_solo(shards, archs, rc, kwargs) for rc in rcs]


def test_configs_must_agree_outside_the_alignment_weights():
    cfg, shards, archs, kwargs = _setup(TINY, "hetero", "aggregate")
    rc = round_config(cfg)
    other = RoundConfig(**{**rc.__dict__, "learning_rate": 0.2})
    with pytest.raises(ContractError, match="may differ only"):
        run_experiments(shards, archs, [rc, other], **kwargs)


def test_run_scenarios_writes_each_run_as_if_alone(tmp_path):
    cfg = config_from_dict(copy.deepcopy(TINY))
    for (loss, lam, gamma), run in zip(MIXED, run_scenarios(cfg, MIXED)):
        point = copy.deepcopy(cfg)
        point.training.alignment, point.training.lam, point.training.gamma = loss, lam, gamma
        solo = run_scenario(point)
        write_rounds_jsonl(run.reports, tmp_path / "lockstep.jsonl")
        write_rounds_jsonl(solo.reports, tmp_path / "solo.jsonl")
        assert (tmp_path / "lockstep.jsonl").read_bytes() == (tmp_path / "solo.jsonl").read_bytes()


# ------------------------------------------------------------ stacked kernels

R = 3


def _stacks(rng, n=6, d=4, degenerate=1):
    """Three replicas of (n, d) pairs; replica `degenerate` has identical rows."""
    a = rng.standard_normal((R, n, d))
    b = rng.standard_normal((R, n, d))
    a[degenerate] = a[degenerate, 0]
    return a, b


def _slice_wise(fn, *stacks):
    """fn on each replica's slices: (value, grad), or the skip message."""
    out = []
    for r in range(R):
        try:
            out.append(fn(*(s[r] for s in stacks)))
        except DegenerateInputError as exc:
            out.append(str(exc))
    return out


def _checked(sides, names):
    """A kernel's reason array with its callers' norm checks of unit-row
    sides written in, first side first, as the training loop runs them."""
    why = _kept(sides[0].shape[0])
    if len(sides) == 4:
        _check_norms(sides[1], why, names[0])
        _check_norms(sides[3], why, names[1])
    return why


@pytest.mark.parametrize("name", sorted(_PAIRWISE_KERNELS))
def test_pairwise_kernels_equal_their_slices(name):
    rng = np.random.default_rng(11)
    for trial in range(20):
        a, b = _stacks(rng, n=int(rng.integers(3, 33)), d=int(rng.integers(2, 17)))
        if name in ("gcsa", "rcsa") and trial % 4 == 3:  # the second side's own width
            b = rng.standard_normal(b.shape[:2] + (int(rng.integers(1, 17)),))
        if name in ("mse", "cosine"):
            a[1, 2] = 0.0  # a zero row: the only degenerate input of cosine
        sides = _unit_rows(a) + _unit_rows(b) if name in _UNIT_ROW_LOSSES else (a, b)
        why = _checked(sides, ("first matrix", "second matrix"))
        values, grad = _PAIRWISE_KERNELS[name](*sides, why)
        for r, want in enumerate(_slice_wise(lambda x, y: pairwise_loss(name, x, y), a, b)):
            if isinstance(want, str):
                assert why[r] == want
            else:
                assert why[r] == ""
                assert values[r] == want.value
                assert np.array_equal(grad[r], want.grad)
        if name in ("gcsa", "rcsa"):
            # the replica with identical rows alone
            assert np.flatnonzero(why != "").tolist() == [1]


def test_contrastive_kernel_equals_its_slices():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n, c = int(rng.integers(2, 33)), int(rng.integers(2, 11))
        z, _ = _stacks(rng, n=n)
        z[1, 0] = 0.0  # a zero embedding: replica 1 alone skips
        protos = rng.standard_normal((R, c, 4))
        # labels shared by every slice, then one row of labels per slice
        for labels in (rng.integers(0, c, n), rng.integers(0, c, (R, n))):
            sides = _unit_rows(z) + _unit_rows(protos)
            why = _checked(sides, ("embedding", "prototypes"))
            align_val, ga, unif_val, gu = _contrastive(*sides, labels, 0.5, why)
            assert np.flatnonzero(why != "").tolist() == [1]
            slices = _slice_wise(lambda x, p, y: loss_contrastive(x, p, y, 0.5), z, protos,
                                 np.broadcast_to(labels, (R, n)))
            for r, want in enumerate(slices):
                if isinstance(want, str):
                    assert why[r] == want
                    continue
                assert why[r] == ""
                for value, grad, ref in ((align_val + unif_val, ga + gu, want.total),
                                         (align_val, ga, want.alignment),
                                         (unif_val, gu, want.uniformity)):
                    assert value[r] == ref.value
                    assert np.array_equal(grad[r], ref.grad)


@st.composite
def _structural_stacks(draw):
    """Two (R, n, d) sides at one scale each, with some zero and some
    identical rows, and each row's scale drawn apart."""
    replicas, n, d = (draw(st.integers(*bounds)) for bounds in ((1, 11), (3, 39), (1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = []
    for _ in range(2):
        m = rng.standard_normal((replicas, n, d)) * 10.0 ** rng.uniform(-3, 3, (replicas, 1, 1))
        m[rng.random(replicas) < 0.2, 1] = 0.0  # a zero row
        same = rng.random(replicas) < 0.2
        m[same] = m[same, :1]  # identical rows
        sides.append(m)
    return sides


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_structural_stacks())
def test_fused_structural_kernels_equal_their_per_side_form(sides):
    # both sides of GCSA and RCSA run as one stack; every slice must equal
    # the per-side form bit for bit: values, gradients and reasons
    p, q = sides
    for kernel, reference, unit in ((_PAIRWISE_KERNELS["gcsa"], gcsa_per_side, False),
                                    (_PAIRWISE_KERNELS["rcsa"], rcsa_per_side, True)):
        args = _unit_rows(p) + _unit_rows(q) if unit else (p, q)
        why, want_why = (_checked(args, ("first matrix", "second matrix")) for _ in range(2))
        values, grad = kernel(*args, why)
        want_values, want_grad = reference(*args, want_why)
        assert why.tolist() == list(want_why)
        kept = why == ""
        assert values[kept].tobytes() == want_values[kept].tobytes()
        assert grad[kept].tobytes() == want_grad[kept].tobytes()


def test_every_kernel_input_is_contiguous_float64(monkeypatch):
    # a strided or non-float64 input could round differently from its run
    # alone (see losses.py); one-client and many-client stacks of all kinds
    slices = []

    def guarded(kernel):
        def call(*args):
            for x in args:
                if isinstance(x, np.ndarray) and x.dtype.kind not in "iO":  # not labels, reasons
                    assert x.dtype == np.float64 and x.flags.c_contiguous
            slices.append(args[0].shape[0])
            return kernel(*args)
        return call

    for name, kernel in list(_PAIRWISE_KERNELS.items()):
        monkeypatch.setitem(_PAIRWISE_KERNELS, name, guarded(kernel))
    monkeypatch.setattr(federation, "_contrastive", guarded(_contrastive))
    for payload, scenario in ((FOUR_EQUAL, "hetero"), (DEMO, "hetero"), (TINY, "homo_local")):
        cfg, shards, archs, kwargs = _setup(payload, scenario, "fixed_hypersphere")
        kwargs["rounds"] = min(kwargs["rounds"], 2)
        rcs = [_round_config(cfg, loss, lam, gamma) for loss, lam, gamma in MIXED]
        _lockstep(shards, archs, rcs, kwargs)
    assert 1 in slices and max(slices) > 1


def test_model_kernels_equal_their_slices():
    for clients in (1, 2):
        _check_model_kernels(clients)


def _check_model_kernels(clients):
    """R replicas of each client, client-major: one client shares its batch
    and labels, two clients each draw their own (one row per slice)."""
    rng = np.random.default_rng(13)
    spec = ArchitectureSpec((16, 8), 4)
    slices = clients * R
    models = [build_model(spec, 5, 3, seed=s) for s in range(slices)]
    stack = replicate(models[0], slices)
    for layer, *per_model in zip(stack.extractor, *(m.extractor for m in models)):
        layer.weights[:] = np.stack([l.weights for l in per_model])
        layer.bias[:] = np.stack([l.bias for l in per_model])
    stack.classifier_weights[:] = np.stack([m.classifier_weights for m in models])
    stack.classifier_bias[:] = np.stack([m.classifier_bias for m in models])
    batches = np.repeat(rng.standard_normal((clients, 32, 5)), R, axis=0)
    labels = np.repeat(rng.integers(0, 3, (clients, 32)), R, axis=0)
    grad_emb = rng.standard_normal((slices, 32, 4))
    if clients == 1:
        batches, labels = batches[:1], labels[0]

    emb, logits, cache, _ = _forward(stack, batches)
    sup, grad_logits = _softmax_cross_entropy(logits, labels)
    accuracy, _ = _accuracy(stack, batches, labels)
    _backward_and_step(stack, cache, grad_logits, grad_emb, 0.3)
    for s, model in enumerate(models):
        batch, y = batches[s % batches.shape[0]], labels if clients == 1 else labels[s]
        # each kernel on the slice's model alone, as a stack of one
        alone = stack_of_one(model)
        emb_s, logits_s, cache_s, _ = _forward(alone, batch[None])
        sup_s, grad_logits_s = _softmax_cross_entropy(logits_s, y)
        assert accuracy[s] == _accuracy(alone, batch[None], y)[0][0]
        _backward_and_step(alone, cache_s, grad_logits_s, grad_emb[s][None], 0.3)
        assert np.array_equal(emb[s], emb_s[0]) and np.array_equal(logits[s], logits_s[0])
        assert sup[s] == sup_s[0] and np.array_equal(grad_logits[s], grad_logits_s[0])
        assert np.array_equal(stack.classifier_weights[s], model.classifier_weights)
        assert np.array_equal(stack.classifier_bias[s], model.classifier_bias)
        for layer, layer_s in zip(stack.extractor, model.extractor):
            assert np.array_equal(layer.weights[s], layer_s.weights)
            assert np.array_equal(layer.bias[s], layer_s.bias)


def test_one_stack_read_by_many_clients_equals_its_copies():
    # homo_shared's uploads and evaluations read its one (R, ...) stack for
    # K clients' rows at once, as a (K, 1, n, d) batch: the forward pass,
    # the upload means and the accuracies must equal those of the stack
    # copied K times, client-major, bit for bit.  Replica 1 of three has a
    # non-finite classifier weight, and fails on its own slices only.
    rng = np.random.default_rng(19)
    spec = ArchitectureSpec((16, 8), 4)
    for replicas in (1, 3):
        stack = replicate(build_model(spec, 5, 3, seed=replicas), replicas)
        for a in stack.arrays():
            a += 0.1 * rng.standard_normal(a.shape)  # replicas that differ
        if replicas == 3:
            stack.classifier_weights[1, 0, 0] = np.inf
        # groups of one, several and sixteen clients, each of its own row count
        for clients, rows in ((1, 7), (5, 12), (16, 30)):
            batch = rng.standard_normal((clients, rows, 5))
            labels = np.repeat(rng.integers(0, 3, (clients, rows)), replicas, axis=0)
            copies = stack.with_arrays([np.concatenate([a] * clients) for a in stack.arrays()])
            copied = np.repeat(batch, replicas, axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                emb, logits, _, failed = _forward(stack, batch[:, None], keep_layers=False)
                want_emb, want_logits, _, want_failed = _forward(copies, copied,
                                                                  keep_layers=False)
                accuracy, evaluated = _accuracy(stack, batch[:, None], labels)
                want_accuracy, want_evaluated = _accuracy(copies, copied, labels)
            assert emb.shape == want_emb.shape == (clients * replicas, rows, 4)
            assert np.array_equal(emb, want_emb)
            assert np.array_equal(logits, want_logits, equal_nan=True)
            assert np.array_equal(accuracy, want_accuracy)
            for got, want in zip(_class_means(emb, labels, 3), _class_means(want_emb, labels, 3)):
                assert np.array_equal(got, want)
            assert failed == want_failed == evaluated == want_evaluated
            assert sorted(failed) == ([k * replicas + 1 for k in range(clients)]
                                      if replicas == 3 else [])


def test_prototype_kernels_equal_their_slices():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n, c = int(rng.integers(2, 60)), int(rng.integers(2, 11))
        emb = rng.standard_normal((R, n, 8))
        labels = rng.integers(0, c, n)
        means, counts = _class_means(emb, labels, c)
        for r in range(R):
            solo, solo_counts = _class_means(emb[r][None], labels, c)
            assert np.array_equal(means[r], solo[0])
            assert np.array_equal(counts, solo_counts)
        # two clients' R replicas, client-major, each client with its labels
        emb = rng.standard_normal((2 * R, n, 8))
        labels = np.repeat(rng.integers(0, c, (2, n)), R, axis=0)
        means, counts = _class_means(emb, labels, c)
        for s in range(2 * R):
            solo, solo_counts = _class_means(emb[s][None], labels[s], c)
            assert np.array_equal(means[s], solo[0])
            assert np.array_equal(counts[s], solo_counts)
        # nine uploads, so that summing them pairwise would round differently
        uploads = [PrototypeSet(rng.standard_normal((R, c, 8)), rng.integers(0, 3, c))
                   for _ in range(9)]
        previous = PrototypeSet(rng.standard_normal((R, c, 8)), rng.integers(0, 3, c))
        merged = aggregate_prototypes(uploads, previous)
        for r in range(R):
            solo = aggregate_prototypes(
                [PrototypeSet(u.vectors[r], u.counts) for u in uploads],
                PrototypeSet(previous.vectors[r], previous.counts),
            )
            assert np.array_equal(merged.vectors[r], solo.vectors)
            assert np.array_equal(merged.rows[r], solo.rows)
            assert np.array_equal(merged.counts, solo.counts)


def _stack_models(models):
    """One stack of the one-replica `models`, in order."""
    return models[0].with_arrays([np.stack(arrays) for arrays in zip(*(m.arrays() for m in models))])


def test_mixed_kind_steps_equal_their_stacks_of_one(monkeypatch):
    # derandomized steps over stacks of three architectures, one or two
    # clients each, with full and tail batches, that mix all five kinds
    # under weights of {0, 0.4, 1, 2.5}; in each, one slice's embedding row
    # and one replica's global prototype are zero, a class is absent from
    # the global set, and one stack's batches have fewer than 3 classes.
    # Each client of the step must equal that client stepped
    # alone, and each of its slices that slice stepped alone: terms,
    # grad_emb, skips and parameters, bit for bit.
    grads = []
    step = federation._backward_and_step

    def recorded(model, layers, grad_logits, grad_emb, *rest):
        grads.append(grad_emb.copy())
        return step(model, layers, grad_logits, grad_emb, *rest)

    monkeypatch.setattr(federation, "_backward_and_step", recorded)
    rng = np.random.default_rng(17)
    specs = [ArchitectureSpec((), 4), ArchitectureSpec((6,), 4), ArchitectureSpec((5, 3), 4)]
    c, replicas = 4, 8
    skips = 0
    for trial in range(12):
        kinds = list(KNOWN_LOSSES) + rng.choice(KNOWN_LOSSES, replicas - 5).tolist()
        rng.shuffle(kinds)
        lams, gammas = rng.choice([0.0, 0.4, 1.0, 2.5], size=(2, replicas)).tolist()
        cfgs = [RoundConfig(alignment=KNOWN_KINDS[k], lam=lam, gamma=gamma)
                for k, lam, gamma in zip(kinds, lams, gammas)]
        stacks = []  # per stack: its one-replica models, client-major, batch and labels
        for j, (spec, n) in enumerate(zip(specs, (8, 8, int(rng.integers(2, 8))))):
            clients = 1 + int(rng.integers(2))
            models = [build_model(spec, 5, c, seed=s)
                      for s in rng.integers(0, 2**32, clients * replicas).tolist()]
            batch = rng.standard_normal((clients, n, 5))
            batch[:, 0] = 0.0  # a zero-bias slice's embedding row 0 is zero
            labels = rng.integers(0, 2 if trial % 3 == j else c, (clients, n))
            stacks.append((models, batch, labels))
        zero_bias = stacks[int(rng.integers(3))][0]
        for layer in zero_bias[int(rng.integers(len(zero_bias)))].extractor:
            layer.bias[:] = 0.0
        counts = rng.integers(1, 4, c)
        counts[rng.integers(c)] = 0
        vectors = rng.standard_normal((replicas, c, 4))
        vectors[rng.integers(replicas), stacks[0][2][0, 1]] = 0.0
        protos = PrototypeSet(vectors, counts)
        grads.clear()
        fused_stacks = [_stack_models(models) for models, _, _ in stacks]
        done = federation._train_step([(f, batch, labels) for f, (_, batch, labels)
                                       in zip(fused_stacks, stacks)],
                                      protos, federation._objective(cfgs), 0.1)
        fused_grads = list(grads)
        for (models, batch, labels), stack, (terms, skipped, _), stack_grad in zip(
                stacks, fused_stacks, done, fused_grads):
            for k in range(batch.shape[0]):
                span = slice(k * replicas, (k + 1) * replicas)
                grads.clear()
                alone = _stack_models(models[span])
                ((got, got_skipped, _),) = federation._train_step(
                    [(alone, batch[k:k + 1], labels[k:k + 1])], protos,
                    federation._objective(cfgs), 0.1)
                assert np.array_equal(terms[span], got)
                assert np.array_equal(skipped[span], got_skipped)
                assert np.array_equal(stack_grad[span], grads[0])
                assert all(np.array_equal(a[span], b)
                           for a, b in zip(stack.arrays(), alone.arrays()))
                for r in range(replicas):
                    s = k * replicas + r
                    grads.clear()
                    solo = _stack_models([models[s]])
                    ((got, solo_skipped, _),) = federation._train_step(
                        [(solo, batch[k:k + 1], labels[k:k + 1])],
                        PrototypeSet(vectors[r:r + 1], counts),
                        federation._objective([cfgs[r]]), 0.1)
                    assert np.array_equal(terms[s], got[0]) and skipped[s] == solo_skipped[0]
                    assert np.array_equal(stack_grad[s], grads[0][0])
                    assert all(np.array_equal(a[s], b[0])
                               for a, b in zip(stack.arrays(), solo.arrays()))
            skips += int(skipped.sum())
    assert skips > 0
