"""Training loop: warm-up, early stopping, checkpointing, repetition."""

import json
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

import upliftmil
from upliftmil import mil, models, nncore, trainer
from upliftmil.data import (SynthConfig, empirical_ate, fit_scaler, generate_synthetic,
                            split)
from upliftmil.errors import ConfigError, MetricError, TrainingError
from upliftmil.metrics import auuc
from upliftmil.trainer import TrainConfig, evaluate, repeat_runs, train

from oracles import replay_train


@pytest.fixture(scope="module")
def splits():
    ds = generate_synthetic(SynthConfig(n=6000, d=4, seed=42))
    return split(ds, (0.7, 0.15, 0.15), seed=7)


def _cfg(**kw):
    base = dict(
        model="tarnet",
        hidden_sizes=(8, 4),
        batch_size=256,
        bag_size=16,
        max_steps=200,
        warmup_steps=50,
        eval_every=50,
        patience=5,
        seed=3,
        learning_rate=1e-3,
        alpha=1e-3,
    )
    base.update(kw)
    return TrainConfig(**base)


def _train_peaking_at(monkeypatch, splits, cfg, peak):
    """train() whose `peak`-th evaluation reads highest and the others the
    lower the farther they are from it."""
    calls = []

    def peaked(model, ds, n_points, buffers=None):
        calls.append(None)
        return -abs(len(calls) - peak), evaluate(model, ds, n_points, buffers)[1]

    monkeypatch.setattr(trainer, "evaluate", peaked)
    return train(*splits, cfg)


def _report_key(report):
    """Everything that must reproduce bitwise; timing excluded."""
    d = report.to_dict()
    d.pop("wall_clock_s")
    return d


class TestConfig:
    def test_warmup_defaults_to_fifth_of_steps(self):
        assert TrainConfig(max_steps=1000, warmup_steps=None).resolved_warmup() == 200

    def test_documented_defaults(self):
        assert astuple(TrainConfig()) == (
            "tarnet", (1024, 512, 256), 1e-3, 1e-3, 1024, 64, 3000, None, 500, 5, 0,
            "clustered")
        warmup = TrainConfig().resolved_warmup()
        assert type(warmup) is int and warmup == 600
        cfg = TrainConfig()
        assert (cfg.beta1, cfg.beta2, cfg.eps, cfg.n_points) == (0.9, 0.999, 1e-8, 100)

    @pytest.mark.parametrize("name", ["beta1", "beta2", "eps", "n_points"])
    def test_class_constant_is_no_setting(self, name):
        # Adam's betas and eps and the curve grid are class constants, not
        # settings a run sets.
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: getattr(TrainConfig, name)})
        with pytest.raises(TypeError, match=name):
            replace(TrainConfig(), **{name: getattr(TrainConfig, name)})

    def test_report_config_holds_every_setting_then_the_constants(self):
        # A report's config keeps its keys, order and values: the fields,
        # then the four constants.
        d = TrainConfig().to_dict()
        assert list(d) == [f.name for f in fields(TrainConfig)] + [
            "beta1", "beta2", "eps", "n_points"]
        assert d == {
            "model": "tarnet", "hidden_sizes": [1024, 512, 256], "learning_rate": 1e-3,
            "alpha": 1e-3, "batch_size": 1024, "bag_size": 64, "max_steps": 3000,
            "warmup_steps": 600, "eval_every": 500, "patience": 5, "seed": 0,
            "mode": "clustered", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
            "n_points": 100}

    def test_config_is_checked_when_made_and_frozen(self):
        # No config exists unchecked, and none changes after its check.
        assert not hasattr(TrainConfig, "validate") and len(fields(TrainConfig)) == 12
        with pytest.raises(ConfigError, match="^'alpha' must be finite and >= 0, got -1$"):
            TrainConfig(alpha=-1)
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.alpha = 0.1
        with pytest.raises(ConfigError, match="^'bag_size' must be an integer >= 2, got 1$"):
            replace(cfg, bag_size=1)

    def test_numpy_integer_settings_give_the_plain_report(self, splits):
        # A config of numpy integers once trained, and then json.dumps
        # rejected its report's int64 settings.
        ints = dict(hidden_sizes=(8,), batch_size=128, bag_size=16, max_steps=4,
                    warmup_steps=1, eval_every=2, patience=5, seed=3)
        cfg = TrainConfig(**{k: np.array(v) if k == "hidden_sizes" else np.int64(v)
                             for k, v in ints.items()})
        assert all(type(getattr(cfg, k)) is int for k in ints if k != "hidden_sizes")
        a, b = (_report_key(train(*splits, c)[1]) for c in (cfg, TrainConfig(**ints)))
        assert json.dumps(a) == json.dumps(b)

    @pytest.mark.parametrize("hidden", [(8.5,), (), (0,), [], ["a"], 5, [True], None],
                             ids=repr)
    def test_hidden_sizes_rejected_when_made_with_the_build_message(self, hidden):
        # These once made a config, and only train, through models.build,
        # rejected it.
        with pytest.raises(ConfigError) as built:
            models.build("tarnet", 3, hidden, 0)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(built.value))}$"):
            TrainConfig(hidden_sizes=hidden)

    def test_hidden_sizes_stored_as_a_tuple_of_ints(self):
        # A list once made a frozen config that hash() rejected.
        for hidden in ([8], np.array([8]), (np.int64(8),)):
            cfg = TrainConfig(hidden_sizes=hidden)
            assert cfg == TrainConfig(hidden_sizes=(8,))
            assert hash(cfg) == hash(TrainConfig(hidden_sizes=(8,)))
            assert type(cfg.hidden_sizes) is tuple
            assert [type(h) for h in cfg.hidden_sizes] == [int]
            assert cfg.to_dict()["hidden_sizes"] == [8]

    def test_bag_larger_than_batch_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(bag_size=512, batch_size=256)

    @pytest.mark.parametrize("name, least", [
        ("batch_size", 2), ("bag_size", 2), ("max_steps", 1)])
    def test_least_legal_value_validates_and_one_below_is_rejected(self, name, least):
        # A batch of 2 is the least that holds a bag, as data.minibatches
        # requires; a one-step run warms up for none.
        cfg = TrainConfig(batch_size=2, bag_size=2, max_steps=1)
        want = f"'{name}' must be an integer >= {least}, got {least - 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            replace(cfg, **{name: least - 1})

    def test_bag_of_one_rejected(self):
        with pytest.raises(ConfigError, match="bag_size"):
            _cfg(bag_size=1)

    @pytest.mark.parametrize("seed", [-1, "3", None, 1.0, True])
    def test_seed_that_is_no_integer_rejected(self, splits, seed):
        # The config check once skipped seed: -1 passed, and repeat_runs failed on
        # cfg.seed + i with a bare TypeError.
        want = f"'seed' must be an integer >= 0, got {seed!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            _cfg(seed=seed)
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            repeat_runs(*splits, _cfg(seed=seed), n_runs=2)

    def test_negative_learning_rate_rejected_before_training(self, splits):
        tr, va, te = splits
        with pytest.raises(ConfigError, match="learning_rate"):
            train(tr, va, te, _cfg(learning_rate=-1e-3))

    @pytest.mark.parametrize("bad", [
        {"warmup_steps": -5}, {"alpha": float("nan")}, {"alpha": float("inf")},
        {"max_steps": 20.5, "warmup_steps": None}],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_value_rejected_before_training(self, splits, monkeypatch, bad):
        # Each of these once trained: some finished "ok", others failed
        # later with an error that did not name the field (the first key).
        monkeypatch.setattr(mil, "combined_loss_and_grads", None)  # a step raises
        with pytest.raises(ConfigError, match=next(iter(bad))):
            train(*splits, _cfg(model="sdr", hidden_sizes=(8,), batch_size=128, **bad))

    @pytest.mark.parametrize("value", ["0.1", None, True, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "learning_rate"])
    def test_real_setting_that_is_no_finite_number_rejected(self, splits, monkeypatch,
                                                            name, value):
        # Strings and None once raised a bare TypeError, and True passed.
        monkeypatch.setattr(mil, "combined_loss_and_grads", None)  # a step raises
        with pytest.raises(ConfigError, match=f"'{name}' must be"):
            train(*splits, _cfg(model="sdr", hidden_sizes=(8,), batch_size=128,
                                **{name: value}))

    def test_batch_beyond_training_rows_rejected_before_training(self, splits, monkeypatch):
        tr, va, te = splits
        with monkeypatch.context() as m:
            m.setattr(models, "build", None)  # building the model raises
            with pytest.raises(ConfigError, match=f"^batch_size {tr.n + 1} exceeds "
                                                  f"dataset size {tr.n}$"):
                train(tr, va, te, _cfg(batch_size=tr.n + 1))
        # A batch of every row is one batch an epoch.
        _, report = train(tr, va, te, _cfg(batch_size=tr.n, bag_size=16, max_steps=3,
                                           warmup_steps=1, eval_every=3))
        assert [e.step for e in report.history] == [3]

    def test_int_beyond_float_range_is_no_finite_alpha(self):
        # math.isfinite cannot take 10**400: is_real reports the
        # OverflowError as a value that is not real.
        with pytest.raises(ConfigError, match="^'alpha' must be finite and >= 0, got 1000"):
            TrainConfig(alpha=10**400)

    @pytest.mark.parametrize("name", ["validation", "test"])
    @pytest.mark.parametrize("arm", [0, 1])
    def test_single_arm_evaluation_split_rejected_before_training(
            self, splits, monkeypatch, name, arm):
        # Its uplift curve is undefined, so the run could not evaluate it;
        # train says so, naming the split, before it builds a model, and
        # repeat_runs, which runs train, fails with it at once.
        tr, va, te = splits
        ds = va if name == "validation" else te
        one_arm = ds.subset(np.flatnonzero(ds.treatment == arm))
        n_t = one_arm.n if arm else 0
        args = (tr, one_arm, te) if name == "validation" else (tr, va, one_arm)
        monkeypatch.setattr(models, "build", None)  # building the model raises
        want = (f"uplift curve undefined on the {name} split: {n_t} treated, "
                f"{one_arm.n - n_t} control")
        with pytest.raises(MetricError, match=f"^{re.escape(want)}$"):
            train(*args, _cfg())
        with pytest.raises(MetricError, match=f"^{re.escape(want)}$"):
            repeat_runs(*args, _cfg(), n_runs=3)

    @pytest.mark.parametrize("name", ["validation", "test"])
    @pytest.mark.parametrize("arm", [0, 1])
    def test_evaluation_split_with_one_row_of_an_arm_trains(self, splits, name, arm):
        # One row of `arm` and every row of the other is two arms, so its
        # uplift curve is defined.
        tr, va, te = splits
        ds = va if name == "validation" else te
        rows = np.concatenate([np.flatnonzero(ds.treatment == arm)[:1],
                               np.flatnonzero(ds.treatment != arm)])
        lone = ds.subset(np.sort(rows))
        args = (tr, lone, te) if name == "validation" else (tr, va, lone)
        _, report = train(*args, _cfg(max_steps=2, warmup_steps=0, eval_every=1))
        assert [e.step for e in report.history] == [1, 2]
        assert np.isfinite(report.test_auuc)

    def test_warmup_beyond_steps_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(warmup_steps=201, max_steps=200)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="'model'.*'xlearner'"):
            _cfg(model="xlearner")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="'mode'.*'nearest'"):
            _cfg(mode="nearest")


class TestTrain:
    def test_alpha_zero_matches_full_warmup_run(self, splits):
        # Holding the regularizer weight at zero for the whole run and
        # never enabling it at all must give identical trajectories.
        tr, va, te = splits
        m_a, rep_a = train(tr, va, te, _cfg(alpha=0.0, warmup_steps=0))
        m_b, rep_b = train(tr, va, te, _cfg(alpha=1e-3, warmup_steps=200))
        hist_a = [(h.step, h.l_base, h.l_mil, h.val_auuc) for h in rep_a.history]
        hist_b = [(h.step, h.l_base, h.l_mil, h.val_auuc) for h in rep_b.history]
        assert hist_a == hist_b
        assert rep_a.test_auuc == rep_b.test_auuc
        np.testing.assert_array_equal(m_a.params, m_b.params)

    def test_deterministic_reports(self, splits):
        tr, va, te = splits
        _, rep_a = train(tr, va, te, _cfg())
        _, rep_b = train(tr, va, te, _cfg())
        assert _report_key(rep_a) == _report_key(rep_b)

    def test_returned_model_is_best_checkpoint(self, splits, monkeypatch):
        # The evaluations after warm-up (step 50) peak at step 160, mid-run;
        # patience stops the run at step 360. The returned params are a
        # replay's stopped at step 160, and the scaler is the training
        # split's.
        tr = splits[0]
        cfg = _cfg(max_steps=400, eval_every=40)
        model, report = _train_peaking_at(monkeypatch, splits, cfg, peak=4)
        assert report.best_step == 160 and report.history[-1].step == 360
        assert model.params.tobytes() == replay_train(tr, cfg, 160).tobytes()
        assert [a.tobytes() for a in model.scaler] == [
            a.tobytes() for a in fit_scaler(tr.features)]

    def test_best_checkpoint_at_the_last_step_is_the_replay(self, splits, monkeypatch):
        cfg = _cfg(max_steps=200, eval_every=40)
        model, report = _train_peaking_at(monkeypatch, splits, cfg, peak=5)
        assert report.best_step == 200
        assert model.params.tobytes() == replay_train(splits[0], cfg, 200).tobytes()

    def test_tie_keeps_the_earlier_checkpoint(self, splits, monkeypatch):
        # Every evaluation reads the same AUUC: the first one after warm-up
        # (step 80) is the best, and each tie after it counts toward
        # patience, which stops the run at step 160.
        def flat(model, ds, n_points, buffers=None):
            return 0.5, evaluate(model, ds, n_points, buffers)[1]

        monkeypatch.setattr(trainer, "evaluate", flat)
        cfg = _cfg(max_steps=200, eval_every=40, patience=2)
        model, report = train(*splits, cfg)
        assert [h.step for h in report.history] == [40, 80, 120, 160]
        assert report.best_step == 80 and report.best_val_auuc == 0.5
        assert model.params.tobytes() == replay_train(splits[0], cfg, 80).tobytes()

    def test_wall_clock_is_positive_and_within_the_callers_time(self, splits):
        started = time.perf_counter()
        _, report = train(*splits, _cfg(max_steps=60, eval_every=30))
        elapsed = time.perf_counter() - started
        assert 0.0 < report.wall_clock_s <= elapsed

    def test_warmup_peak_is_not_returned(self, splits, monkeypatch):
        # The warm-up eval at step 50 reads higher than any later one, yet
        # the returned model is the best checkpoint after warm-up.
        calls = []

        def peak_in_warmup(model, ds, n_points, buffers=None):
            auuc, curve = evaluate(model, ds, n_points, buffers)
            calls.append(auuc)
            return auuc + (len(calls) == 1), curve

        monkeypatch.setattr(trainer, "evaluate", peak_in_warmup)
        model, report = train(*splits, _cfg())
        monkeypatch.undo()
        first, *after = report.history
        assert first.step == 50 and first.val_auuc > max(h.val_auuc for h in after)
        assert report.best_step > 50
        assert report.best_val_auuc == max(h.val_auuc for h in after)
        assert evaluate(model, splits[1], 100)[0] == report.best_val_auuc

    def test_patience_does_not_stop_a_run_in_warmup(self, splits, monkeypatch):
        # Every eval reads worse than the one before: patience 1 stops the
        # run at the second eval after warm-up, never inside it.
        calls = []

        def falling(model, ds, n_points, buffers=None):
            calls.append(None)
            return -float(len(calls)), evaluate(model, ds, n_points, buffers)[1]

        monkeypatch.setattr(trainer, "evaluate", falling)
        _, report = train(*splits, _cfg(warmup_steps=150, eval_every=10, patience=1))
        assert [h.step for h in report.history] == list(range(10, 171, 10))
        assert report.best_step == 160

    def test_warmup_steps_report_zero_mil_loss(self, splits):
        tr, va, te = splits
        _, report = train(
            tr, va, te, _cfg(max_steps=200, warmup_steps=100, eval_every=25)
        )
        for h in report.history:
            if h.step <= 100:
                assert h.l_mil == 0.0 and h.usable_bags == 0
            else:
                assert h.usable_bags > 0

    def test_rectifier_operand_stays_zero_and_read_only(self, monkeypatch, splits):
        # The zero operand each net's rectifier read throughout the run is
        # the one its set was made with, as long as the net's widest
        # activation buffer, and never written; so are the set's
        # input-gradient arrays and gradient blocks kept.
        made, buffer_set = [], models.buffer_set

        def recording(model, rows):
            bufs = buffer_set(model, rows)
            made.append((bufs, {name: (b.zeros, b.input_grad, *b.grad_blocks)
                                for name, b in bufs.nets.items()}))
            return bufs

        monkeypatch.setattr(models, "buffer_set", recording)
        train(*splits, _cfg())
        ((bufs, kept),) = made
        assert len(bufs.inputs) == 1024  # models.CHUNK rows, for evaluation
        for name, b in bufs.nets.items():
            now = (b.zeros, b.input_grad, *b.grad_blocks)
            assert all(a is k for a, k in zip(now, kept[name], strict=True))
            assert b.zeros.size == max(a.size for a in b.activations) >= 1024 * 5
            assert not b.zeros.flags.writeable
            assert not b.zeros.any()
            with pytest.raises(ValueError):
                b.zeros[0] = 1.0

    def test_returned_model_holds_no_buffers(self, splits):
        # A model outlives its run: the run's buffer set must not ride on it.
        model, _ = train(*splits, _cfg(max_steps=20, warmup_steps=5, eval_every=10))
        assert set(vars(model)) == {f.name for f in fields(models.UpliftModel)}

    def test_bag_of_the_whole_batch_is_one_bag_a_step(self, splits):
        # A batch this size holds both arms, so its one bag is usable.
        cfg = _cfg(batch_size=32, bag_size=32, max_steps=20, warmup_steps=10, eval_every=5)
        _, report = train(*splits, cfg)
        assert [(e.step, e.usable_bags) for e in report.history] == [
            (5, 0), (10, 0), (15, 1), (20, 1)]

    def test_history_steps_strictly_increase(self, splits):
        tr, va, te = splits
        _, report = train(tr, va, te, _cfg(max_steps=130, eval_every=40))
        steps = [h.step for h in report.history]
        assert steps == sorted(set(steps))
        assert steps[-1] == 130  # final step evaluated even off-grid

    def test_nonfinite_loss_aborts_with_diagnostics(self, splits):
        tr, va, te = splits
        # The message names the step and the first net and layer, in
        # parameter order, whose gradient holds a non-finite value.
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"at step \d+: .*first_nonfinite_grad=trunk layer \d"
        ):
            train(tr, va, te, _cfg(learning_rate=1e200, max_steps=50))

    def test_nonfinite_loss_of_finite_gradients_names_none(self, splits, monkeypatch):
        # An infinite output bias makes every logit infinite and the loss
        # NaN, while each gradient stays finite: the output gradient is
        # logistic(inf) - y and no product reads the bias.
        build = models.build

        def infinite_bias(*args):
            model = build(*args)
            model.nets["net"].biases[-1][...] = np.inf
            return model

        monkeypatch.setattr(models, "build", infinite_bias)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"at step 1: .*first_nonfinite_grad=none$"
        ):
            train(*splits, _cfg(model="tm"))

    def test_diverged_counterfactual_arm_is_a_training_error(self, splits, monkeypatch):
        # An all-control training split and a TARNet whose treatment head
        # is NaN: no row is factual for that head, yet the first step's
        # loss is NaN, so the run fails as a TrainingError, not in bag
        # formation.
        tr, va, te = splits
        control = tr.subset(np.flatnonzero(tr.treatment == 0))
        build = models.build

        def diverged_head_t(*args):
            model = build(*args)
            model.nets["head_t"].flat[...] = np.nan
            return model

        monkeypatch.setattr(models, "build", diverged_head_t)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^non-finite loss at step 1: l_base=nan "
        ):
            train(control, va, te, _cfg(alpha=0.1, warmup_steps=0))

    @pytest.mark.parametrize("warmup_steps", [0, 3])
    def test_divergence_with_bags_is_a_training_error(self, splits, warmup_steps):
        # NaN predictions must not reach bag formation: a run that diverges
        # with the regularizer on fails as a TrainingError naming the step.
        tr, va, te = splits
        cfg = _cfg(model="sdr", bag_size=4, learning_rate=1e300,
                   warmup_steps=warmup_steps)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="at step"):
            train(tr, va, te, cfg)
        with np.errstate(all="ignore"):
            agg, results, failures = repeat_runs(tr, va, te, cfg, n_runs=2)
        assert agg is None and not results
        assert [seed for seed, _ in failures] == [3, 4]
        assert all("non-finite loss at step" in msg for _, msg in failures)


class TestStepMemory:
    def test_steady_state_step_allocates_less_than_the_parameters(self):
        # The reference regime, TARNet 1024/512/256 at batch 1024: once a
        # warm step has run, a step in the run's buffer set (loss, gradient
        # and Adam) allocates less than one parameter vector.
        rng = np.random.default_rng(0)
        n, d = 1024, 6
        x = rng.normal(size=(n, d))
        t = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 0.3).astype(float)
        model = models.build("tarnet", d, (1024, 512, 256), seed=0)
        state = nncore.init_adam(model.params, 1e-3)
        buffers = models.buffer_set(model, max(n, models.CHUNK))  # as train sizes it

        def step():
            _, grads, _ = mil.combined_loss_and_grads(
                model, x, t, y, t.mean(), 1e-3, 64, buffers=buffers)
            nncore.adam_step(model.params, grads, state)

        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < model.params.nbytes

    def test_default_batch_run_holds_one_batch_of_rows(self):
        # A run at the default batch_size, TARNet 256/128/64 with an eval
        # after each of its two steps, peaks below five parameter vectors
        # (parameters, best checkpoint, Adam's moments, gradient) and one
        # buffer set of batch_size rows, plus half that set again for the
        # heads' input gradients and a step's temporaries: its evaluations
        # stream through the batch's rows and add no rows of their own.
        # A set of twice the rows, for 2048-row evaluation chunks, breaks it.
        ds = generate_synthetic(SynthConfig(n=3000, seed=4))
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=4)
        cfg = TrainConfig(hidden_sizes=(256, 128, 64), max_steps=2, warmup_steps=0,
                          eval_every=1)
        assert cfg.batch_size == 1024
        model = models.build(cfg.model, tr.d, cfg.hidden_sizes, cfg.seed)
        tracemalloc.start()
        try:
            models.buffer_set(model, cfg.batch_size)
            set_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            _, report = train(tr, va, te, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [p.step for p in report.history] == [1, 2]
        assert peak < 5 * model.params.nbytes + 1.5 * set_bytes


class TestEvaluate:
    def test_constant_model_near_random_baseline(self):
        ds = generate_synthetic(SynthConfig(n=30_000, seed=9))
        model = models.build("tm", ds.d, (4,), seed=0)
        net = model.nets["net"]
        net.weights[-1][...] = np.zeros_like(net.weights[-1])
        net.biases[-1][...] = np.zeros_like(net.biases[-1])
        got, _ = evaluate(model, ds, 100)
        expected = empirical_ate(ds) * 101 / 200
        assert abs(got - expected) <= 0.1 * abs(expected)

    def test_true_effect_scores_beat_constant_model(self):
        diffs = []
        for seed in range(5):
            ds = generate_synthetic(SynthConfig(n=20_000, seed=seed))
            oracle = auuc(ds.true_ite, ds.outcome, ds.treatment)
            constant = auuc(np.zeros(ds.n), ds.outcome, ds.treatment)
            diffs.append(oracle - constant)
        diffs = np.asarray(diffs)
        assert diffs.mean() > 3 * diffs.std(ddof=1) / np.sqrt(len(diffs))

    def test_frozen_model_evaluates_identically(self, splits):
        tr, va, te = splits
        model, _ = train(tr, va, te, _cfg(max_steps=60, eval_every=30))
        a = evaluate(model, te, 100)
        b = evaluate(model, te, 100)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].g, b[1].g)


# Trains each config it reads from stdin on the splits it reads there and
# writes the trained params back, all pickled.
_TRAIN_ALL = """
import pickle, sys
from upliftmil.trainer import train
splits, cfgs = pickle.load(sys.stdin.buffer)
pickle.dump([train(*splits, cfg)[0].params for cfg in cfgs], sys.stdout.buffer)
"""


class TestThreadCounts:
    def test_one_blas_thread_trains_the_same_bytes(self, splits):
        # A product split over OpenBLAS threads must sum in the order one
        # thread does: process pools of one-thread workers rely on it. So a
        # short run of each kind in a subprocess on one thread trains the
        # params of the same run in this process, on however many threads.
        cfgs = [_cfg(model=kind, hidden_sizes=(64, 32), batch_size=512, bag_size=8,
                     max_steps=40, warmup_steps=10, eval_every=20, alpha=1e-2)
                for kind in ("tm", "tarnet", "ddr", "sdr")]
        src = str(Path(upliftmil.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
                   "PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", _TRAIN_ALL], env=env,
                              input=pickle.dumps((splits, cfgs)), capture_output=True,
                              check=True)
        one_thread = pickle.loads(proc.stdout)
        for cfg, params in zip(cfgs, one_thread, strict=True):
            assert params.tobytes() == train(*splits, cfg)[0].params.tobytes(), cfg.model


class TestRepeatRuns:
    def test_single_run_aggregate_is_that_run(self, splits):
        tr, va, te = splits
        agg, results, failures = repeat_runs(tr, va, te, _cfg(), n_runs=1)
        assert not failures
        assert agg.single_run
        assert agg.mean == results[0].report.test_auuc

    def test_deterministic_aggregate(self, splits):
        tr, va, te = splits
        cfg = _cfg(max_steps=100, eval_every=50)
        a = repeat_runs(tr, va, te, cfg, n_runs=3)[0]
        b = repeat_runs(tr, va, te, cfg, n_runs=3)[0]
        assert a.values == b.values

    def test_seeds_consecutive_and_ordered(self, splits):
        tr, va, te = splits
        _, results, _ = repeat_runs(
            tr, va, te, _cfg(seed=11, max_steps=60, eval_every=30), n_runs=3
        )
        assert [r.seed for r in results] == [11, 12, 13]

    def test_parallel_matches_sequential(self, splits):
        tr, va, te = splits
        cfg = _cfg(max_steps=60, eval_every=30)
        seq, seq_results, _ = repeat_runs(tr, va, te, cfg, n_runs=2, jobs=1)
        par, par_results, _ = repeat_runs(tr, va, te, cfg, n_runs=2, jobs=2)
        assert seq.values == par.values
        for a, b in zip(seq_results, par_results):
            assert _report_key(a.report) == _report_key(b.report)

    @pytest.mark.parametrize("n_runs, jobs, workers", [(2, 8, 2), (3, 2, 2), (1, 4, 1)])
    def test_pool_starts_no_more_workers_than_runs(self, splits, monkeypatch, n_runs,
                                                   jobs, workers):
        # A pool forks all its workers when it starts, used or not.
        started = []

        class Inline:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(trainer, "ProcessPoolExecutor", Inline)
        cfg = _cfg(max_steps=20, warmup_steps=10, eval_every=10)
        _, results, _ = repeat_runs(*splits, cfg, n_runs=n_runs, jobs=jobs)
        assert started == [workers] and len(results) == n_runs

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
    def test_nonpositive_jobs_rejected(self, splits, jobs):
        with pytest.raises(ConfigError, match="'jobs' must be an integer >= 1"):
            repeat_runs(*splits, _cfg(), n_runs=1, jobs=jobs)

    @pytest.mark.parametrize("n_runs", [0, -3, 1.5, True, "2"])
    def test_nonpositive_n_runs_rejected(self, splits, n_runs):
        with pytest.raises(ConfigError, match="'n_runs' must be an integer >= 1"):
            repeat_runs(*splits, _cfg(), n_runs=n_runs)

    def test_failed_runs_counted_not_fatal(self, splits):
        tr, va, te = splits
        cfg = _cfg(learning_rate=1e200, max_steps=40, warmup_steps=10, eval_every=20)
        with np.errstate(all="ignore"):
            agg, results, failures = repeat_runs(tr, va, te, cfg, n_runs=2)
        assert agg is None
        assert not results
        assert len(failures) == 2
