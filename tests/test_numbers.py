"""
One number rule for every parameter and every array: ``tensor.check_number``.

A bool, a string, None, NaN, inf, a value out of range or a bool inside a
list of numbers is a one-line ValueError naming the field; numpy scalars
are accepted and stored as plain int or float. Arrays of the wrong shape
or holding NaN or inf are refused the same way wherever they enter pltt.
"""

import dataclasses
import json
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pltt.analysis import (
    apply_descatter,
    arctan_map,
    arctan_unmap,
    build_observation,
    fit_descatter,
    pca,
)
from pltt.cli import main
from pltt.decomposition import decompose_tensor
from pltt.ellipsometry import (
    MeasurementSet,
    capture,
    drr_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from pltt.fileio import read_pltt, write_pltt
from pltt.learning import TrainingConfig, evaluate, grad_loss, learn, loss
from pltt.polarization import beamsplitter
from pltt.scene import diffuse_depolarizer, generate_ensemble
from pltt.tensor import (
    DetectedTensor,
    IlluminationTensor,
    TransportTensor,
    check_number,
    fold,
    probe,
)

BIN = 1e-10


def coaxial_tensor(seed=0):
    data = np.random.default_rng(seed).normal(size=(4, 1, 4, 4, 2))
    return TransportTensor(data, (2, 2), (2, 2), BIN, coaxial=True)


def dense_tensor(seed=0):
    data = np.random.default_rng(seed).normal(size=(4, 4, 4, 4, 2))
    return TransportTensor(data, (2, 2), (2, 2), BIN)


def measurement():
    return capture(coaxial_tensor(), drr_schedule(16), noise_sigma=1e-3, seed=4)


class _NoDraws:
    """A generator whose every draw fails: an error must come before the noise."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("noise drawn before the error")

    normal = standard_normal


def capture_drawing_nothing(tensor, **kwargs):
    with mock.patch.object(np.random, "default_rng", lambda *args, **kw: _NoDraws()):
        return capture(tensor, drr_schedule(16), noise_sigma=1e-3, seed=1, **kwargs)


def rewrite_metadata(path, payload_bytes, edit):
    """Replace the JSON block after a PLTT file's payload by edit(metadata)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    end = 45 + payload_bytes
    meta = edit(json.loads(blob[end:].decode("utf-8")))
    with open(path, "wb") as fh:
        fh.write(blob[:end] + json.dumps(meta).encode("utf-8"))


def read_with_noise_std(std):
    tensor = dataclasses.replace(coaxial_tensor(), noise_std=np.full((4, 4), 0.1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.pltt")
        write_pltt(path, tensor)
        rewrite_metadata(path, tensor.data.nbytes, lambda meta: dict(meta, noise_std=std))
        return read_pltt(path)


def schedule_with_column(key, column):
    return schedule_from_dict(dict(schedule_to_dict(drr_schedule(16)), **{key: column}))


@pytest.mark.parametrize("call, field", [
    (lambda: TransportTensor(np.zeros((4, 1, 4, 4, 2)), (2, 2), (2, 2), True, coaxial=True),
     "time_bin_width"),
    (lambda: IlluminationTensor(np.zeros((4, 4, 2)), (2, 2), -1.0), "time_bin_width"),
    (lambda: IlluminationTensor(np.zeros((4, 4, 2)), (2, 2), np.inf), "time_bin_width"),
    (lambda: DetectedTensor(np.zeros((4, 4, 2)), (2, 2), -1.0), "time_bin_width"),
    (lambda: capture(coaxial_tensor(), drr_schedule(16), noise_sigma=True), "noise_sigma"),
    (lambda: capture(dense_tensor(), drr_schedule(16), split="0.5"), "split"),
    (lambda: capture(coaxial_tensor(), drr_schedule(16), split="0.5"), "split"),
    (lambda: capture_drawing_nothing(dense_tensor(), split=-0.5), "split"),
    (lambda: dataclasses.replace(measurement(), split=None), "split"),
    (lambda: decompose_tensor(coaxial_tensor(), floor_frac="0.1"), "floor fraction"),
    (lambda: arctan_map(np.eye(4), c="8"), "compression factor"),
    (lambda: arctan_unmap(np.zeros(4), c=True), "compression factor"),
    (lambda: beamsplitter("transmit", "0.5"), "split"),
    (lambda: arctan_map(np.eye(4), c=True), "compression factor"),
    (lambda: diffuse_depolarizer(True, 0.5), "albedo"),
    (lambda: TrainingConfig(samples=generate_ensemble(1, 8).samples, k=6, batch_size=8,
                            trainable=(True, True, True)), "trainable"),
    (lambda: dataclasses.replace(drr_schedule(4), fixed=(True,)), "fixed"),
    (lambda: dataclasses.replace(drr_schedule(4), fixed=(1, 0, "", 1)), "fixed"),
    (lambda: capture(coaxial_tensor(), drr_schedule(16), noise_sigma=1e-3, seed=-1), "seed"),
    (lambda: dataclasses.replace(measurement(), seed="abc"), "seed"),
    (lambda: dataclasses.replace(measurement(), seed=1.5), "seed"),
    (lambda: dataclasses.replace(measurement(), seed=-3), "seed"),
    (lambda: dataclasses.replace(measurement(), seed=True), "seed"),
    (lambda: drr_schedule(2.5), "K"),
    (lambda: generate_ensemble(-1, 4), "seed"),
    (lambda: read_with_noise_std([0.1] * 15 + [True]), "noise_std"),
    (lambda: schedule_with_column("theta2_deg", [True] + [0.0] * 15), "theta2_deg"),
], ids=["tensor-width-bool", "illumination-width-negative", "illumination-width-inf",
        "detected-width-negative", "capture-sigma-bool", "capture-split-string",
        "coaxial-split-string", "capture-split-before-noise", "split-none",
        "floor-string", "c-string", "unmap-c-bool", "beamsplitter-split-string", "c-bool",
        "albedo-bool", "trainable-three-flags", "fixed-one-flag", "fixed-string-flag",
        "capture-seed-negative", "seed-string",
        "seed-fraction", "seed-negative", "seed-bool", "drr-k-fraction", "ensemble-seed-negative",
        "container-noise-std-bool", "schedule-column-bool"])
def test_a_malformed_number_is_a_value_error_naming_its_field(call, field):
    with pytest.raises(ValueError, match=field) as info:
        call()
    assert "\n" not in str(info.value)


def test_numpy_scalars_configure_a_training_run_that_completes():
    samples = generate_ensemble(3, 60).samples
    config = TrainingConfig(samples=samples, k=np.int64(6), noise_sigma=np.float32(1e-3),
                            batch_size=8, iterations=10)
    assert type(config.k) is int and type(config.noise_sigma) is float
    assert config.digest() == TrainingConfig(samples=samples, k=6, batch_size=8, iterations=10,
                                             noise_sigma=float(np.float32(1e-3))).digest()
    assert len(learn(config).config_hash) == 16


def test_integer_trainable_flags_learn_what_boolean_flags_learn():
    samples = generate_ensemble(3, 60).samples
    runs = [learn(TrainingConfig(samples=samples, k=6, batch_size=8, iterations=30,
                                 trainable=flags))
            for flags in ((1, 1, 0, 1), (True, True, False, True))]
    for name in ("theta1", "theta2", "theta3", "theta4"):
        np.testing.assert_array_equal(getattr(runs[0].schedule, name),
                                      getattr(runs[1].schedule, name))
    assert runs[0].best_heldout_loss == runs[1].best_heldout_loss
    assert runs[0].config_hash == runs[1].config_hash


def simulate(tmp_path, flags=("--bins", "4", "--bin-width", "1e-10")):
    """Run pltt simulate on a 2x2 coaxial mirror; returns (exit code, output path)."""
    scene = {"geometry_mode": "coaxial",
             "surfaces": [{"patch": [0, 2, 0, 2], "depth_m": 0.015,
                           "material": {"kind": "ideal_mirror"}}]}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    out = str(tmp_path / "truth.pltt")
    return main(["simulate", "--scene", str(tmp_path / "scene.json"), "--resolution", "2x2",
                 "--out", out] + list(flags)), out


@pytest.mark.parametrize("flags, field", [
    (["--bins", "16", "--bin-width", "0"], "time_bin_width"),
    (["--bins", "16", "--bin-width", "nan"], "time_bin_width"),
    (["--bins", "-1", "--bin-width", "1e-10"], "n_bins"),
])
def test_a_bad_bin_count_or_width_exits_two_naming_it(tmp_path, capsys, flags, field):
    code, out = simulate(tmp_path, flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert field in err
    assert not os.path.exists(out)


def test_a_negative_capture_seed_exits_two_naming_it(tmp_path, capsys):
    code, tensor = simulate(tmp_path)
    assert code == 0
    capsys.readouterr()
    out = tmp_path / "meas.pltt"
    assert main(["capture", "--tensor", tensor, "--noise", "1e-3", "--seed", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["abc", 1.5, -3, True])
def test_a_malformed_stored_seed_exits_two_naming_it(tmp_path, capsys, seed):
    code, tensor = simulate(tmp_path)
    assert code == 0
    meas = str(tmp_path / "meas.pltt")
    assert main(["capture", "--tensor", tensor, "--k", "16", "--seed", "3", "--noise", "1e-3",
                 "--out", meas]) == 0
    rewrite_metadata(meas, read_pltt(meas).intensities.nbytes,
                     lambda meta: dict(meta, seed=seed))
    capsys.readouterr()
    out = tmp_path / "recon.pltt"
    assert main(["reconstruct", "--measurements", meas, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "seed" in err
    assert not out.exists()


# what a caller might pass for a number: plain and numpy numbers, bools, strings
NUMBERS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.text(max_size=4),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)


def round_trip(obj, field):
    """The field's value as write_pltt then read_pltt give it back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.pltt")
        write_pltt(path, obj)
        return getattr(read_pltt(path), field)


@settings(max_examples=150, deadline=None)
@given(NUMBERS)
@example(True)
def test_an_accepted_bin_width_reads_back_from_a_container(value):
    try:
        tensor = dataclasses.replace(coaxial_tensor(), time_bin_width=value)
    except ValueError:
        return
    assert type(tensor.time_bin_width) is float and tensor.time_bin_width == float(value)
    assert round_trip(tensor, "time_bin_width") == tensor.time_bin_width


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["time_bin_width", "noise_sigma", "split", "seed"]),
       st.one_of(NUMBERS, st.none()))
@example("time_bin_width", True)
@example("seed", np.int64(7))
def test_an_accepted_measurement_number_reads_back_from_a_container(field, value):
    try:
        meas = dataclasses.replace(measurement(), **{field: value})
    except ValueError:
        return
    stored = getattr(meas, field)
    if value is None:
        assert stored is None
    else:
        plain = int if field == "seed" else float
        assert type(stored) is plain and stored == plain(value)
    assert isinstance(meas, MeasurementSet)
    assert round_trip(meas, field) == stored


BOUNDS = st.sampled_from([{}, {"low": 0.0}, {"above": 0.0}, {"low": 0.0, "high": 1.0},
                          {"low": 0.0, "below": 1.0}, {"above": -2.5, "below": 3.0}])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1)), BOUNDS)
def test_plain_numbers_follow_the_rule_numpy_scalars_follow(value, bounds):
    integer = isinstance(value, int)
    outcomes = []
    for form in (value, np.asarray(value)[()]):
        try:
            outcomes.append(check_number(form, "x", integer=integer, **bounds))
        except ValueError as exc:
            outcomes.append(str(exc).split(", got")[0])
    assert outcomes[0] == outcomes[1]
    assert type(outcomes[1]) in (str, int if integer else float)


# bounds that every value in [-100, 100] meets, with a value that breaks each
ARRAY_BOUNDS = st.sampled_from([({}, None), ({"low": -100, "high": 100}, 101),
                                ({"above": -101.0, "below": 101.0}, -101),
                                ({"low": -100.0}, -100.5), ({"below": 100.5}, 100.5)])


@st.composite
def number_arrays(draw):
    """An int or float array of up to 5 axes, the shape to ask for, bounds and a bad value."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    ints = draw(st.booleans())
    values = draw(hnp.arrays(np.int64 if ints else float, dims,
                             elements=st.integers(-100, 100) if ints else st.floats(-100, 100)))
    wanted = tuple(None if draw(st.booleans()) else n for n in dims)
    bounds, outside = draw(ARRAY_BOUNDS)
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf] + ([outside] if outside else [])))
    return values, wanted, bounds, bad, draw(st.integers(0, values.size - 1))


@settings(max_examples=300, deadline=None)
@given(number_arrays(), st.booleans())
def test_an_array_passes_check_number_unchanged_or_fails_on_one_line(drawn, as_list):
    values, wanted, bounds, bad, index = drawn
    clean = values.tolist() if as_list else values
    got = check_number(clean, "the array", shape=wanted, **bounds)
    assert got.dtype == float and got.tobytes() == np.asarray(clean, float).tobytes()

    dirty = values.astype(float)
    dirty.flat[index] = bad
    with pytest.raises(ValueError) as info:
        check_number(dirty.tolist() if as_list else dirty, "the array", shape=wanted, **bounds)
    message = str(info.value)
    assert message.startswith("the array must be ") and "\n" not in message
    if dirty.size > 16:
        assert message.endswith(", got an array of shape %s" % (dirty.shape,))
    else:
        assert message.endswith(", got %r" % (dirty.tolist(),))


BLOCKS = generate_ensemble(1, 12).samples
IMAGE = np.random.default_rng(5).normal(size=(12, 4, 4))
TARGET = np.random.default_rng(6).normal(size=12)
SCHEDULE = drr_schedule(16)


def poisoned(arr, value):
    """A float copy of ``arr`` with ``value`` in its middle entry."""
    out = np.array(arr, dtype=float)
    out.flat[out.size // 2] = value
    return out


# every function or class that takes an array: the name its error must start
# with, and a call that passes it one non-finite value
ARRAY_ENTRY_POINTS = [
    ("transport data", lambda v: TransportTensor(poisoned(dense_tensor().data, v), (2, 2),
                                                 (2, 2), BIN)),
    ("illumination data", lambda v: IlluminationTensor(poisoned(np.ones((4, 4)), v), (2, 2))),
    ("detected data", lambda v: DetectedTensor(poisoned(np.ones((4, 4, 2)), v), (2, 2), BIN)),
    ("probe mask", lambda v: probe(dense_tensor(), poisoned(np.ones((4, 4)), v))),
    ("probe mask", lambda v: fold(dense_tensor(), poisoned(np.ones((4, 4)), v))),
    ("theta2", lambda v: SCHEDULE.with_angles(theta2=poisoned(SCHEDULE.theta2, v))),
    ("samples", lambda v: TrainingConfig(samples=poisoned(BLOCKS, v), k=6, batch_size=4)),
    ("mats", lambda v: loss(SCHEDULE, poisoned(BLOCKS, v), 1e-3)),
    ("mats", lambda v: grad_loss(SCHEDULE, poisoned(BLOCKS, v), 1e-3)),
    ("samples", lambda v: evaluate(SCHEDULE, poisoned(BLOCKS, v), 1e-3)),
    ("noise draws", lambda v: loss(SCHEDULE, BLOCKS, poisoned(np.zeros((12, 16)), v))),
    ("samples", lambda v: build_observation(poisoned(BLOCKS, v))),
    ("observation rows", lambda v: pca(poisoned(np.ones((5, 16)), v))),
    ("image", lambda v: apply_descatter(fit_descatter(IMAGE, TARGET), poisoned(IMAGE, v))),
    ("image", lambda v: fit_descatter(poisoned(IMAGE, v), TARGET)),
    ("target", lambda v: fit_descatter(IMAGE, poisoned(TARGET, v))),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", ARRAY_ENTRY_POINTS, ids=[
    "transport-tensor", "illumination-tensor", "detected-tensor", "probe", "fold",
    "schedule", "training-config", "loss", "grad-loss", "evaluate", "loss-noise-draws",
    "build-observation", "pca", "apply-descatter", "fit-descatter-image",
    "fit-descatter-target"])
def test_a_non_finite_array_is_a_value_error_naming_it(name, call, value):
    with pytest.raises(ValueError, match="^" + re.escape(name)) as info:
        call(value)
    assert "\n" not in str(info.value)


def test_loss_blocks_must_be_b_by_4_by_4():
    # 48 values would reshape to three blocks
    with pytest.raises(ValueError, match="^mats must be finite numbers of shape"):
        loss(SCHEDULE, np.zeros((3, 16)), 1e-3)


def test_a_bool_probe_mask_weighs_like_its_zeros_and_ones():
    tensor = dense_tensor()
    mask = np.eye(4, dtype=bool)
    np.testing.assert_array_equal(probe(tensor, mask).data, probe(tensor, mask * 1.0).data)
    np.testing.assert_array_equal(fold(tensor, mask).data, fold(tensor, mask * 1.0).data)
