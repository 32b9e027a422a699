import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botaclip.encoders import GradientTape, Param
from botaclip.errors import DataError
from botaclip.losses import TAU_CLAMP
from botaclip.numerics import Rng
from botaclip.optim import AdamW, EarlyStopper


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

    def test_zero_decay_is_plain_adam(self):
        # the first step moves by lr alone, up to eps; a decay of 0.5 would
        # also shrink the value by lr * 0.5 = 0.15
        p = Param("w", np.array([1.0]))
        opt = AdamW([p], lr=0.3, weight_decay=0.0)
        opt.step(_tape_with(p, np.array([2.0])))
        assert abs(p.value[0] - 0.7) < 1e-8

    @pytest.mark.parametrize("lr, weight_decay", [
        (0.0, 0.0), (-1e-3, 0.0), (np.inf, 0.0), (np.nan, 0.0),
        (1e-3, -5.0), (1e-3, np.inf), (1e-3, np.nan)])
    def test_rejects_lr_or_decay_out_of_range(self, lr, weight_decay):
        with pytest.raises(ValueError, match="must be in"):
            AdamW([Param("w", np.array([1.0]))], lr=lr,
                  weight_decay=weight_decay)


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


# --- frozen reference: the allocating AdamW step -------------------------------

class _RefAdamW:
    """AdamW.step as it was before the in-place update: new arrays for
    every intermediate, a zero gradient for a parameter off the tape."""

    def __init__(self, params, lr, weight_decay):
        self.params = params
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value) for p in params}
        self._v = {p.name: np.zeros_like(p.value) for p in params}

    def step(self, tape):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p in self.params:
            g = tape.get(p)
            if g.shape != p.value.shape:
                raise DataError(p.name)
            if self.weight_decay > 0 and p.decay:
                p.value = p.value * (1.0 - self.lr * self.weight_decay)
            m = self._m[p.name] = self.beta1 * self._m[p.name] + (1 - self.beta1) * g
            v = self._v[p.name] = self.beta2 * self._v[p.name] + (1 - self.beta2) * g * g
            p.value = p.value - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if p.name == "scalars.tau":
                p.value = np.clip(p.value, -TAU_CLAMP, TAU_CLAMP)


def _bytes(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


@st.composite
def _adamw_cases(draw):
    chunk = AdamW.CHUNK
    sizes = st.sampled_from([1, 7, chunk - 1, chunk, chunk + 1, 2 * chunk,
                             2 * chunk + 5])
    shapes = st.one_of(st.just(()), sizes.map(lambda n: (n,)),
                       st.sampled_from([(3, 5), (2, chunk // 2 + 3),
                                        (4, chunk // 2), (5, chunk // 3)]))
    specs = draw(st.lists(st.tuples(shapes, st.booleans()), min_size=1,
                          max_size=3))
    return dict(
        specs=specs, tau=draw(st.booleans()), seed=draw(st.integers(0, 2 ** 16)),
        steps=draw(st.integers(1, 5)),
        lr=draw(st.sampled_from([1e-3, 0.3, 50.0])),
        weight_decay=draw(st.sampled_from([0.0, 1e-3, 0.5])),
        # per step, which parameters the tape misses
        missing=draw(st.lists(st.sets(st.integers(0, 3)), min_size=5,
                              max_size=5)),
        transposed=draw(st.booleans()))


def _gradient(gen, shape, transposed):
    g = np.asarray(gen.normal(size=shape) * gen.choice([1e-6, 1.0, 1e3]))
    g[gen.random(size=shape) < 0.1] = 0.0
    g[gen.random(size=shape) < 0.05] = -0.0
    if transposed and g.ndim == 2:
        g = np.ascontiguousarray(g.T).T   # same values, Fortran order
    return g


class TestInPlaceStepMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(_adamw_cases())
    def test_values_and_moments_bit_identical(self, case):
        gen = Rng(case["seed"]).substream("adamw")
        inits = [(f"p{i}", gen.normal(size=shape), decay)
                 for i, (shape, decay) in enumerate(case["specs"])]
        if case["tau"]:
            # starts just inside the clamp, so lr=50 steps push it past
            inits.append(("scalars.tau", np.array(TAU_CLAMP - 1e-7), False))
        params = [Param(n, v.copy(), d) for n, v, d in inits]
        ref_params = [Param(n, v.copy(), d) for n, v, d in inits]
        opt = AdamW(params, lr=case["lr"], weight_decay=case["weight_decay"])
        ref = _RefAdamW(ref_params, case["lr"], case["weight_decay"])
        for step in range(case["steps"]):
            tape, ref_tape = GradientTape(), GradientTape()
            for i, (p, rp) in enumerate(zip(params, ref_params)):
                g = _gradient(gen, p.value.shape, case["transposed"])
                if i not in case["missing"][step]:
                    tape.add(p, g)
                    ref_tape.add(rp, g.copy())
            opt.step(tape)
            ref.step(ref_tape)
            for p, rp in zip(params, ref_params):
                assert _bytes(p.value) == _bytes(rp.value), p.name
                assert _bytes(opt._m[p.name]) == _bytes(ref._m[p.name])
                assert _bytes(opt._v[p.name]) == _bytes(ref._v[p.name])


class TestInPlaceStep:
    def test_step_allocates_no_parameter_sized_array(self):
        p = Param("w", Rng(3).substream("w").normal(size=(1024, 1024)))
        opt = AdamW([p], lr=1e-3, weight_decay=1e-3)
        tape = _tape_with(p, np.full(p.value.shape, 0.25))
        # with its gradient, then missing from the tape (zero gradient)
        for t in (tape, GradientTape()):
            tracemalloc.start()
            try:
                opt.step(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < p.value.nbytes / 8

    def test_step_leaves_tape_gradients_unmodified(self):
        gen = Rng(4).substream("g")
        params = [Param("w", gen.normal(size=(50, 3000))),
                  Param("scalars.tau", np.array(2.0), decay=False)]
        tape = GradientTape()
        for p in params:
            tape.add(p, gen.normal(size=p.value.shape))
        held = dict(tape.grads)
        before = {k: g.copy() for k, g in held.items()}
        AdamW(params, lr=0.1, weight_decay=0.1).step(tape)
        for k, g in held.items():
            assert tape.grads[k] is g
            assert g.tobytes() == before[k].tobytes()

    def test_value_updated_in_place(self):
        p = Param("w", np.ones((4, 4)))
        value = p.value
        AdamW([p], lr=1e-3, weight_decay=1e-3).step(
            _tape_with(p, np.ones((4, 4))))
        assert p.value is value and np.all(value < 1.0)

    def test_non_contiguous_value_still_updates(self):
        start = np.arange(12.0).reshape(3, 4).T    # a Fortran-order view
        p = Param("w", np.zeros((4, 3)))
        p.value = start
        assert p.value.flags.c_contiguous
        AdamW([p], lr=1e-3, weight_decay=0.0).step(
            _tape_with(p, np.ones((4, 3))))
        assert np.all(p.value < start)
