import numpy as np

from botaclip.encoders import GradientTape, Param
from botaclip.numerics import Rng
from botaclip.optim import AdamW, EarlyStopper, adam


def _tape_with(param, grad):
    tape = GradientTape()
    tape.add(param, grad)
    return tape


class TestAdamW:
    def test_decay_only_step(self):
        p = Param("w", np.array([1.0]))
        opt = AdamW([p], lr=1e-3, weight_decay=1e-3)
        opt.step(_tape_with(p, np.array([0.0])))
        assert abs(p.value[0] - 0.999999) < 1e-15

    def test_first_step_moves_by_lr(self):
        # m_hat = 1, v_hat = 1 after bias correction, so delta ~ -lr
        p = Param("w", np.array([0.0]))
        opt = AdamW([p], lr=1e-3, weight_decay=0.0)
        opt.step(_tape_with(p, np.array([1.0])))
        assert abs(p.value[0] + 1e-3) < 1e-10

    def test_parameters_update_independently(self):
        a = Param("a", np.array([1.0, 2.0]))
        b = Param("b", np.array([3.0]))
        opt = AdamW([a, b], lr=0.01, weight_decay=0.0)
        tape = GradientTape()
        tape.add(a, np.array([1.0, 0.0]))
        tape.add(b, np.array([0.0]))
        opt.step(tape)
        assert a.value[1] == 2.0
        assert b.value[0] == 3.0
        assert a.value[0] != 1.0

    def test_no_decay_flag_respected(self):
        p = Param("scalars.bias", np.array(5.0), decay=False)
        opt = AdamW([p], lr=1e-3, weight_decay=0.9)
        opt.step(_tape_with(p, np.array(0.0)))
        assert float(p.value) == 5.0

    def test_tau_clamped(self):
        p = Param("scalars.tau", np.array(9.9999999), decay=False)
        opt = AdamW([p], lr=50.0, weight_decay=0.0)
        opt.step(_tape_with(p, np.array(-1.0)))
        assert float(p.value) <= 10.0

    def test_step_reduces_quadratic_bowl(self):
        for seed in range(20):
            gen = Rng(seed).substream("bowl")
            target = gen.normal(size=4)
            p = Param("w", gen.normal(size=4))
            opt = AdamW([p], lr=1e-3, weight_decay=0.0)
            before = float(np.sum((p.value - target) ** 2))
            opt.step(_tape_with(p, 2.0 * (p.value - target)))
            after = float(np.sum((p.value - target) ** 2))
            assert after < before

    def test_adam_helper(self):
        p = Param("w", np.array([1.0]))
        opt = adam([p], lr=0.3)
        assert opt.lr == 0.3 and opt.weight_decay == 0.0


class TestEarlyStopper:
    def test_walkthrough(self):
        # losses 1.0, 0.9, 0.91, 0.92 with patience 2: stop after epoch 4,
        # best at epoch 2
        stopper = EarlyStopper(patience=2)
        decisions = [stopper.update(e, v)
                     for e, v in enumerate([1.0, 0.9, 0.91, 0.92], start=1)]
        assert decisions == [False, False, False, True]
        assert stopper.best_epoch == 2

    def test_never_stops_while_decreasing(self):
        stopper = EarlyStopper(patience=1)
        for e in range(1, 50):
            assert not stopper.update(e, 1.0 / e)

    def test_flat_losses_patience_one(self):
        stopper = EarlyStopper(patience=1)
        assert not stopper.update(1, 0.5)
        assert stopper.update(2, 0.5)
        assert stopper.best_epoch == 1

    def test_improvement_must_be_strict(self):
        stopper = EarlyStopper(patience=3)
        stopper.update(1, 0.5)
        stopper.update(2, 0.5 - 1e-14)  # below the 1e-12 threshold
        assert stopper.best_epoch == 1
