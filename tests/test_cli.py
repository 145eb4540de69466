"""End-to-end command-line driver checks (in-process via cli.main)."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedstruct import cli
from fedstruct.data import PARTITION_SCHEMES
from fedstruct.federation import PROTOTYPE_MODES, SCENARIOS
from fedstruct.losses import KNOWN_LOSSES

TINY = {
    "dataset": {"classes": 3, "input_dim": 5, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.5},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"rounds": 2, "batch_size": 8, "local_epochs": 1,
                 "learning_rate": 0.1},
}

# deliberately unstable operating point: huge steps plus huge alignment
# weights push the forward pass to non-finite values within a few rounds,
# while the weight-free baseline merely stalls
UNSTABLE = {
    "dataset": {"classes": 3, "input_dim": 6, "samples_per_class": 20,
                "separation": 1.0, "noise": 0.3},
    "partition": {"clients": 2, "alpha": 5.0},
    "model": {"hidden_widths": [[], [8]], "feature_dim": 4},
    "training": {"alignment": "mse", "rounds": 8, "batch_size": 8,
                 "local_epochs": 1, "learning_rate": 1000.0,
                 "prototype_mode": "fixed_hypersphere"},
}


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_selftest_fails_under_optimized_python():
    # `python -O` strips assert statements; the checks must fail without them.
    # The appended check runs the svd check against a wrong factorization.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = (
        "from fedstruct import selftest\n"
        "svd = selftest.svd\n"
        "def wrong_svd():\n"
        "    selftest.svd = lambda m: svd(m + 1.0)\n"
        "    selftest._check_svd()\n"
        "selftest.CHECKS.append(('svd of the wrong matrix', wrong_svd))\n"
        "raise SystemExit(selftest.run_selftest(verbose=False))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr


def test_run_zero_rounds_writes_empty_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    out = tmp_path / "zero"
    assert cli.main(["run", "--config", cfg, "--rounds", "0", "--out", str(out)]) == 0
    assert "0 rounds" in capsys.readouterr().out
    assert (out / "rounds.jsonl").read_text() == ""
    assert (out / "config.echo").exists()
    with open(out / "summary.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1  # header only


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, TINY)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("rounds.jsonl", "summary.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    # the echoes agree on everything except the requested output directory
    echoes = [json.loads((o / "config.echo").read_text()) for o in outs]
    for echo in echoes:
        echo["output"].pop("directory")
    assert echoes[0] == echoes[1]
    lines = (outs[0] / "rounds.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        rep = json.loads(line)
        assert {"round", "mean_accuracy", "per_client_accuracy"} <= set(rep)


def test_flag_overrides_config_file(tmp_path):
    payload = dict(TINY)
    payload["training"] = dict(TINY["training"], **{"lambda": 1.0})
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "ov"
    assert cli.main(["run", "--config", cfg, "--lambda", "0.5",
                     "--rounds", "0", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.echo").read_text())
    assert echoed["training"]["lambda"] == 0.5
    assert echoed["training"]["rounds"] == 0


def test_empty_config_uses_defaults(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    out = tmp_path / "dflt"
    assert cli.main(["run", "--config", cfg, "--rounds", "0", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.echo").read_text())
    assert echoed["training"]["lambda"] == 1.0
    assert echoed["training"]["gamma"] == 1.0
    assert echoed["dataset"]["classes"] == 10
    assert echoed["model"]["feature_dim"] == 8


def test_bad_alpha_exits_2_and_names_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    assert cli.main(["run", "--config", cfg, "--alpha", "-1",
                     "--out", str(tmp_path / "x")]) == 2
    assert "alpha" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"training": {"lerning_rate": 0.1}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "training.lerning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command, unusable", [
    ("run", "missing"), ("run", "directory"), ("run", "not-utf8"), ("run", "not-json"),
    ("run", "out-is-a-file"),
    ("sweep", "out-is-a-file"), ("compare-alignments", "out-is-a-file"),
])
def test_missing_config_file_exits_2(tmp_path, capsys, command, unusable):
    config, out = tmp_path / "cfg.json", tmp_path / "x"
    if unusable == "directory":
        config.mkdir()
    elif unusable == "not-utf8":
        config.write_bytes(b'{"seed": "\xff"}')
    elif unusable == "not-json":
        config.write_text('{"seed": ')
    elif unusable == "out-is-a-file":
        config.write_text(json.dumps(TINY))
        out.write_text("")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert str(config if unusable != "out-is-a-file" else out) in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ([], "config root must be a JSON object"),
    ({"dataset": 5}, "config dataset must be a JSON object"),
])
def test_config_block_that_is_not_an_object_exits_2(tmp_path, capsys, payload, message):
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_internal_field_name_lam_is_not_a_config_key(tmp_path, capsys):
    # training.lam is known by its external key "lambda" only
    cfg = _write_cfg(tmp_path, {"training": {"lam": 2.5}})
    assert cli.main(["run", "--config", cfg, "--rounds", "0", "--out", str(tmp_path / "x")]) == 2
    assert "unknown config key training.lam" in capsys.readouterr().err
    cfg = _write_cfg(tmp_path, {"training": {"lambda": 2.5}}, "ok.json")
    assert cli.main(["run", "--config", cfg, "--rounds", "0", "--out", str(tmp_path / "y")]) == 0
    assert json.loads((tmp_path / "y" / "config.echo").read_text())["training"]["lambda"] == 2.5


@pytest.mark.parametrize("argv", [
    ["sweep", "--snapshots"],  # only run writes prototype snapshots
    ["compare-alignments", "--snapshots"],
    ["dimensionality", "--grid", "1"],  # only sweep reads a grid
    ["selftest", "--config", "x"],  # selftest reads no config
    ["selftest", "--rounds", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["federate"])
    assert exc.value.code == 2


def test_impossible_partition_exits_3(tmp_path, capsys):
    payload = {
        "dataset": {"classes": 2, "input_dim": 4, "samples_per_class": 3,
                    "separation": 1.0, "noise": 0.5},
        "partition": {"clients": 8, "alpha": 0.05},
        "model": {"hidden_widths": [[]], "feature_dim": 3},
        "training": {"rounds": 1, "batch_size": 2, "local_epochs": 1,
                     "learning_rate": 0.1},
    }
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "partition failure" in capsys.readouterr().err


def test_domain_shift_client_without_test_rows_exits_3(tmp_path, capsys):
    payload = {
        "dataset": {"classes": 5, "input_dim": 4, "samples_per_class": 10},
        "partition": {"scheme": "domain_shift", "clients": 10},
        "training": {"rounds": 1},
    }
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "left client 2 with too little data" in capsys.readouterr().err


def test_divergent_run_exits_4(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, UNSTABLE)
    assert cli.main(["run", "--config", cfg, "--lambda", "1000", "--gamma", "1000",
                     "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "round" in err and "client" in err


def _overflowing(separation, mode="aggregate"):
    """Data so large that a round's prototypes overflow after training; the
    vanishing learning rate keeps the training steps themselves finite."""
    return {
        "dataset": {"classes": 3, "input_dim": 16, "samples_per_class": 40,
                    "separation": separation, "noise": 0.0},
        "partition": {"clients": 2, "alpha": 5.0},
        "model": {"hidden_widths": [[]], "feature_dim": 4},
        "training": {"rounds": 2, "batch_size": 8, "local_epochs": 1, "learning_rate": 1e-310,
                     "lambda": 0.0, "gamma": 0.0, "prototype_mode": mode},
    }


@pytest.mark.parametrize("separation, mode, where", [
    pytest.param(2e307, "aggregate", "aggregation", id="aggregate-sum"),
    pytest.param(3e307, "aggregate", "upload", id="aggregate-upload"),
    pytest.param(3e307, "fixed_hypersphere", "upload", id="hypersphere-upload"),
])
def test_overflowing_prototypes_exit_4_naming_the_round(tmp_path, capsys, separation, mode,
                                                        where):
    cfg = _write_cfg(tmp_path, _overflowing(separation, mode))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == (
        f"numeric failure: round 0: {where} produced non-finite prototypes\n"
    )


def test_overflowing_sweep_exits_4_without_a_table(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _overflowing(2e307))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--grid", "0,1", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: round 0: aggregation produced non-finite prototypes\n"
    )
    assert not (out / "sweep.csv").exists()


def test_compare_alignments_writes_all_losses(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    out = tmp_path / "cmp"
    assert cli.main(["compare-alignments", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["loss", "seed", "best_accuracy", "final_accuracy"]
    assert [r[0] for r in rows[1:]] == ["mse", "cosine", "gcsa", "rcsa", "contrastive"]
    for loss in ("mse", "cosine", "gcsa", "rcsa", "contrastive"):
        lines = (out / loss / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == 2
    capsys.readouterr()


def test_compare_alignments_stops_at_the_first_diverged_loss(tmp_path, capsys):
    # a vanishing temperature makes the contrastive run fail at its first
    # step; the four losses before it in KNOWN_LOSSES order must be written
    # and printed exactly as their own runs write them, and no more
    payload = json.loads(json.dumps(TINY))
    payload["training"]["prototype_mode"] = "fixed_hypersphere"
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "cmp"
    assert cli.main(["compare-alignments", "--config", cfg, "--tau", "1e-300",
                     "--out", str(out)]) == 4
    got = capsys.readouterr()
    lines = []
    for loss in KNOWN_LOSSES:
        solo = tmp_path / f"solo-{loss}"
        code = cli.main(["run", "--config", cfg, "--tau", "1e-300", "--loss", loss,
                         "--out", str(solo)])
        err = capsys.readouterr().err
        if code == 4:
            assert got.err == err
            break
        assert code == 0
        assert (out / loss / "rounds.jsonl").read_bytes() == (solo / "rounds.jsonl").read_bytes()
        final = json.loads((solo / "rounds.jsonl").read_text().splitlines()[-1])
        lines.append(f"{loss:12s} best {final['best_mean_accuracy']:.4f} "
                     f"final {final['mean_accuracy']:.4f}")
    assert loss == "contrastive"
    assert got.out.splitlines() == lines
    assert sorted(p.name for p in out.iterdir()) == sorted(KNOWN_LOSSES[:-1])


def test_sweep_survives_a_gcsa_gram_norm_too_large_to_cube(tmp_path, capsys):
    # gcsa at weight 1000 drives the Gram norm past the cube's range; the
    # term is skipped like any degenerate batch instead of crashing
    cfg = _write_cfg(tmp_path, UNSTABLE)
    assert cli.main(["sweep", "--config", cfg, "--loss", "gcsa", "--grid", "0,10,1000",
                     "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()


def test_compare_alignments_needs_rounds(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    assert cli.main(["compare-alignments", "--config", cfg, "--rounds", "0",
                     "--out", str(tmp_path / "x")]) == 2
    assert "rounds" in capsys.readouterr().err


def test_sweep_grid_and_divergence_rows(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, UNSTABLE)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", cfg, "--grid", "0,1000",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["loss", "lambda", "gamma", "seed", "baseline_best",
                       "best_accuracy", "improvement"]
    assert len(rows) == 5  # header + 2x2 grid
    by_point = {(float(r[1]), float(r[2])): r for r in rows[1:]}
    assert float(by_point[(0.0, 0.0)][6]) == 0.0
    # unstable points are recorded as nan instead of aborting the sweep
    assert any(r[5] == "nan" for r in rows[1:])


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    for grid, message in (
        ("a,b", "bad --grid value: 'a,b'"),
        ("nan,1", "gcsa lambda=nan gamma=nan: lam/gamma must be finite and >= 0, got nan, nan"),
        ("-1", "gcsa lambda=-1.0 gamma=-1.0: lam/gamma must be finite and >= 0, got -1.0, -1.0"),
    ):
        out = tmp_path / "x"
        assert cli.main(["sweep", "--config", cfg, "--grid", grid, "--out", str(out)]) == 2
        assert not (out / "sweep.csv").exists()
        assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_sweep_with_a_diverging_baseline_exits_4(tmp_path, capsys):
    payload = json.loads(json.dumps(UNSTABLE))
    payload["training"]["learning_rate"] = 1e50
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", cfg, "--grid", "0,1", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: round 1: client 0: forward pass produced non-finite values\n")
    assert not (out / "sweep.csv").exists()


def test_sweep_names_an_unparsable_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    assert cli.main(["sweep", "--config", cfg, "--grid", "a", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: bad --grid value: 'a'\n"


def test_dimensionality_compares_scenarios(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY)
    out = tmp_path / "dim"
    assert cli.main(["dimensionality", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.strip().splitlines()
    comparison = json.loads(stdout[-1])
    assert set(comparison) >= {"hetero_dim", "homo_shared_dim", "ordering_holds"}
    for scenario in ("homo_shared", "homo_local", "hetero"):
        assert (out / scenario / "rounds.jsonl").exists()
    with open(out / "dimensionality.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "scenario"
    assert len(rows) == 1 + 3 * TINY["training"]["rounds"]


def test_snapshots_flag_writes_prototype_csvs(tmp_path):
    cfg = _write_cfg(tmp_path, TINY)
    out = tmp_path / "snap"
    assert cli.main(["run", "--config", cfg, "--snapshots", "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "prototypes").iterdir())
    assert files == ["round_0.csv", "round_1.csv"]
    with open(out / "prototypes" / "round_0.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["class", "v0", "v1", "v2", "v3", "weight"]


def _run_zero_rounds(payload, extra=()):
    """`run --rounds 0` on a payload; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", path, "--rounds", "0",
                             "--out", os.path.join(tmp, "out"), *extra])
    return code, err.getvalue()


@pytest.mark.parametrize("block, key, value, extra", [
    pytest.param("training", "rounds", "5", (), id="rounds-string"),
    pytest.param("training", "lambda", "1", (), id="lambda-string"),
    pytest.param("dataset", "classes", 2.5, (), id="classes-float"),
    pytest.param("model", "feature_dim", 2.0, (), id="feature_dim-float"),
    pytest.param("training", "batch_size", 2.5, (), id="batch_size-float"),
    pytest.param("model", "hidden_widths", [[True]], (), id="hidden_widths-bool"),
    pytest.param("output", "directory", 5, (), id="directory-int"),
    pytest.param("dataset", "noise", float("nan"), (), id="noise-nan"),
    pytest.param("training", "local_epochs", True, (), id="local_epochs-bool"),
    pytest.param("training", "lambda", 1.0, ("--lambda", "nan"), id="lambda-flag-nan"),
])
def test_mistyped_field_exits_2_and_names_it(block, key, value, extra):
    payload = json.loads(json.dumps(TINY))
    payload.setdefault(block, {})[key] = value
    code, err = _run_zero_rounds(payload, extra)
    assert code == 2
    assert f"{block}.{key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block, key, value, message", [
    pytest.param(None, "seed", -1, "seed must be >= 0, got -1", id="seed"),
    pytest.param("partition", "scheme", "iid", "partition.scheme must be one of", id="scheme"),
    pytest.param("model", "scenario", "solo", "model.scenario must be one of", id="scenario"),
])
def test_out_of_range_field_exits_2_and_names_it(block, key, value, message):
    payload = json.loads(json.dumps(TINY))
    (payload.setdefault(block, {}) if block else payload)[key] = value
    code, err = _run_zero_rounds(payload)
    assert code == 2
    assert err.startswith(f"configuration error: {message}") and f"got {value!r}" in err


# Sizes beyond numpy's largest dimension: numpy rejects every one of them
# before it allocates anything, so these cases are safe to run.
HUGE = 10 ** 20


@pytest.mark.parametrize("block, key, value, code, message", [
    pytest.param("dataset", "samples_per_class", HUGE, 2, "cannot allocate", id="samples"),
    pytest.param("dataset", "input_dim", HUGE, 2, "cannot allocate", id="input_dim"),
    pytest.param("dataset", "classes", HUGE, 2, "cannot allocate", id="classes"),
    pytest.param("model", "feature_dim", HUGE, 2, "cannot allocate a model", id="feature_dim"),
    pytest.param("model", "hidden_widths", [[HUGE]], 2, "cannot allocate a model", id="width"),
    pytest.param("partition", "clients", HUGE, 3, "reduce num_clients", id="clients"),
])
def test_oversized_sizes_exit_cleanly(block, key, value, code, message):
    payload = {block: {key: value}}
    got, err = _run_zero_rounds(payload)
    assert got == code
    assert message in err and str(HUGE) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, message", [
    pytest.param("noise", "class_separation 0.7 and noise_scale 1e+308", id="noise"),
    pytest.param("separation", "class_separation 1e+308 and noise_scale 0.32", id="separation"),
])
def test_overflowing_dataset_exits_2_with_one_line(key, message):
    code, err = _run_zero_rounds({"dataset": {key: 1e308}})
    assert code == 2
    assert err == f"configuration error: {message} overflow the float64 features\n"


# Small valid values per field; omitted fields keep their defaults.
VALID_FIELDS = {
    "dataset": {
        "classes": st.integers(2, 4), "input_dim": st.integers(1, 4),
        "samples_per_class": st.integers(2, 8),
        "separation": st.floats(0, 3), "noise": st.floats(0, 2),
    },
    "partition": {
        "scheme": st.sampled_from(PARTITION_SCHEMES), "alpha": st.floats(0.05, 10),
        "shift_scale": st.floats(0, 2), "clients": st.integers(2, 4),
    },
    "model": {
        "hidden_widths": st.lists(st.lists(st.integers(1, 4), max_size=2),
                                  min_size=1, max_size=2),
        "feature_dim": st.integers(1, 4), "scenario": st.sampled_from(SCENARIOS),
    },
    "training": {
        "alignment": st.sampled_from(KNOWN_LOSSES), "temperature": st.floats(0.1, 2),
        "lambda": st.floats(0, 2), "gamma": st.floats(0, 2),
        "local_epochs": st.integers(1, 2), "batch_size": st.integers(2, 8),
        "learning_rate": st.floats(0.01, 1), "participation_fraction": st.floats(0.1, 1),
        "prototype_mode": st.sampled_from(PROTOTYPE_MODES), "rounds": st.integers(0, 2),
    },
    "output": {
        "directory": st.just("ignored"), "prototype_snapshots": st.booleans(),
        "normalized_stacking": st.booleans(),
    },
}
# Wrong types, bools, strings, NaN, the infinities and out-of-range numbers.
# Integers stay small: a huge size is a request for a huge run, not a typo.
BAD_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}), st.just([[0]]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, 10 ** 400]),
    st.integers(-3, 1), st.floats(-2, 2.5),
)


@st.composite
def config_payloads(draw):
    """A payload of small valid values with up to two fields made bad."""
    payload = {"seed": draw(st.integers(0, 2 ** 70))}
    for block, fields in VALID_FIELDS.items():
        names = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
        payload[block] = {name: draw(fields[name]) for name in names}
    corrupted = draw(st.integers(0, 2))
    for _ in range(corrupted):
        block = draw(st.sampled_from(sorted(VALID_FIELDS) + ["seed"]))
        if block == "seed":
            payload["seed"] = draw(BAD_VALUES)
        else:
            payload[block][draw(st.sampled_from(sorted(VALID_FIELDS[block])))] = draw(BAD_VALUES)
    return corrupted, payload


@pytest.mark.slow
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_payloads())
def test_random_config_payloads_exit_cleanly(case):
    corrupted, payload = case
    code, err = _run_zero_rounds(payload)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if not corrupted:
        assert code in (0, 3), err
