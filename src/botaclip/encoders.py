"""Encoder families built from layers with hand-written forward/backward
passes.

Every layer follows one protocol (see Layer): forward(x, train, gen),
backward(g, tape, input_grad) and params(). A model is a Sequential of
layers, run forward in order and backward in reverse. Every layer caches
what its backward pass needs; a backward that needs a cache raises
MissingForwardCache when no forward filled it. Gradients accumulate into a
GradientTape keyed by parameter name, which the optimizer consumes. A
trainer, which never reads the gradient of a model's input, passes
input_grad=False: the model's Sequentials then skip the parameter-free
layers in front of their first parameterized layer, and that layer records
its parameter gradients without computing its input gradient. All math is
float64.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, MissingForwardCache, ShapeMismatch
from .numerics import Rng, l2_normalize_rows, normal_cdf, row_norms

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Param:
    """A named trainable array. `decay` marks eligibility for weight decay.
    The value is kept a C-contiguous float64 array (the one assigned, if it
    is one already), so the optimizer can update it through flat views."""

    __slots__ = ("name", "_value", "decay")

    def __init__(self, name: str, value, decay: bool = True):
        self.name = name
        self.value = value
        self.decay = decay

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, value):
        self._value = np.asarray(value, dtype=np.float64, order="C")

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


class GradientTape:
    """Per-batch gradient accumulator, keyed by parameter name. The tape
    owns the array add() is given and stores it without a copy, so callers
    pass a fresh result and do not write to it afterwards."""

    def __init__(self):
        self.grads: dict[str, np.ndarray] = {}

    def add(self, param: Param, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != param.value.shape:
            raise ShapeMismatch(
                f"gradient shape {grad.shape} != parameter shape "
                f"{param.value.shape} for {param.name}")
        old = self.grads.get(param.name)
        self.grads[param.name] = grad if old is None else old + grad

    def get(self, param: Param) -> np.ndarray:
        """param's gradient; a read-only zero view if none was added."""
        g = self.grads.get(param.name)
        if g is None:
            return np.broadcast_to(0.0, param.value.shape)
        return g


def _torch_linear_init(in_dim: int, out_dim: int, gen: np.random.Generator):
    # uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weight and bias
    bound = 1.0 / math.sqrt(in_dim)
    w = gen.uniform(-bound, bound, size=(out_dim, in_dim))
    b = gen.uniform(-bound, bound, size=out_dim)
    return w, b


class Layer:
    """The protocol of every layer and model here.

    forward(x, train=False, gen=None) maps a batch (samples as rows) and
    caches what backward needs; train and gen reach the dropout layers.
    backward(g, tape, input_grad=True) takes the gradient of the output,
    adds the parameter gradients to tape and returns the gradient of the
    input. With input_grad false the caller does not read that gradient,
    and Linear and Sequential return None instead of computing it.
    params() lists the trainable arrays in a fixed order, the order of a
    checkpoint.
    """

    def params(self):
        return []


class Linear(Layer):
    def __init__(self, name: str, in_dim: int, out_dim: int,
                 gen: np.random.Generator | None = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"{name}: widths must be at least 1, got "
                             f"{in_dim} -> {out_dim}")
        if gen is None:
            w = np.zeros((out_dim, in_dim))
            b = np.zeros(out_dim)
        else:
            w, b = _torch_linear_init(in_dim, out_dim, gen)
        self.weight = Param(f"{name}.weight", w)
        self.bias = Param(f"{name}.bias", b)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._x = None

    def forward(self, x: np.ndarray, train: bool = False,
                gen: np.random.Generator | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.in_dim:
            raise ShapeMismatch(
                f"{self.weight.name}: input has {x.shape[1]} columns, "
                f"expected {self.in_dim}")
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, g: np.ndarray, tape: GradientTape,
                 input_grad: bool = True) -> np.ndarray | None:
        if self._x is None:
            raise MissingForwardCache(self.weight.name)
        tape.add(self.weight, g.T @ self._x)
        tape.add(self.bias, g.sum(axis=0))
        return g @ self.weight.value if input_grad else None

    def params(self):
        return [self.weight, self.bias]


class Gelu(Layer):
    def __init__(self):
        self._x = None

    def forward(self, x, train=False, gen=None):
        self._x = x = np.asarray(x, dtype=np.float64)
        self._cdf = normal_cdf(x)
        return x * self._cdf

    def backward(self, g, tape, input_grad=True):
        if self._x is None:
            raise MissingForwardCache("gelu")
        x = self._x
        return g * (self._cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x))


class Relu(Layer):
    def __init__(self):
        self._x = None

    def forward(self, x, train=False, gen=None):
        self._x = x
        return np.maximum(x, 0.0)

    def backward(self, g, tape, input_grad=True):
        if self._x is None:
            raise MissingForwardCache("relu")
        return g * (self._x > 0)


class Dropout(Layer):
    """Inverted dropout: train-time scaling by 1/(1-p), identity in eval."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask = None

    def forward(self, x, train: bool = False,
                gen: np.random.Generator | None = None):
        if not train or self.rate == 0.0:
            self._mask = 1.0
            return x
        if gen is None:
            raise ValueError("train-mode dropout needs a generator")
        keep = gen.random(x.shape) >= self.rate
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backward(self, g, tape, input_grad=True):
        if self._mask is None:
            raise MissingForwardCache("dropout")
        return g * self._mask


class LayerNorm(Layer):
    """Row-wise layer normalization with learnable affine, eps = 1e-5."""

    EPS = 1e-5

    def __init__(self, name: str, dim: int):
        self.gamma = Param(f"{name}.gamma", np.ones(dim))
        self.beta = Param(f"{name}.beta", np.zeros(dim))
        self._cache = None

    def forward(self, x, train=False, gen=None):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mu) * inv
        self._cache = (xhat, inv)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, g, tape, input_grad=True):
        if self._cache is None:
            raise MissingForwardCache(self.gamma.name)
        xhat, inv = self._cache
        tape.add(self.gamma, (g * xhat).sum(axis=0))
        tape.add(self.beta, g.sum(axis=0))
        gg = g * self.gamma.value
        return inv * (gg - gg.mean(axis=1, keepdims=True)
                      - xhat * (gg * xhat).mean(axis=1, keepdims=True))

    def params(self):
        return [self.gamma, self.beta]


class RowNormalize(Layer):
    """Projection onto the unit hypersphere, row by row."""

    def __init__(self):
        self._cache = None

    def forward(self, x, train=False, gen=None):
        norms = row_norms(x)
        y = l2_normalize_rows(x)
        self._cache = (y, norms)
        return y

    def backward(self, g, tape, input_grad=True):
        if self._cache is None:
            raise MissingForwardCache("l2norm")
        y, norms = self._cache
        return (g - y * np.sum(g * y, axis=1, keepdims=True)) / norms[:, None]


class Sequential(Layer):
    """Layers run forward in order and backward in reverse; the parameters
    are theirs, in order. Without input_grad, backward stops at the first
    layer that has parameters and asks it for no input gradient either."""

    def __init__(self, *layers: Layer):
        self.layers = layers
        self._first_param = next((i for i, layer in enumerate(layers)
                                  if layer.params()), len(layers))

    def forward(self, x, train=False, gen=None):
        for layer in self.layers:
            x = layer.forward(x, train, gen)
        return x

    def backward(self, g, tape, input_grad=True):
        stop = 0 if input_grad else self._first_param
        for i in range(len(self.layers) - 1, stop - 1, -1):
            layer = self.layers[i]
            g = layer.backward(g, tape, input_grad or i > stop)
        return g if input_grad else None

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


class Residual(Layer):
    """x + inner(x)."""

    def __init__(self, inner: Layer):
        self.inner = inner

    def forward(self, x, train=False, gen=None):
        return x + self.inner.forward(x, train, gen)

    def backward(self, g, tape, input_grad=True):
        return g + self.inner.backward(g, tape)

    def params(self):
        return self.inner.params()


class SingleTokenAttention(Sequential):
    """Multi-head self-attention over a one-token sequence.

    With a single key the softmax is identically 1, so the block reduces to
    out = W_o (W_v x + b_v) + b_o for any number of heads. The Q/K
    projections cannot influence the output and are not kept, but their
    initial values are still drawn, so V and O start from the same values
    as in a block that holds them.
    """

    def __init__(self, name: str, dim: int, gen: np.random.Generator):
        _torch_linear_init(dim, dim, gen)  # Q, drawn and dropped
        _torch_linear_init(dim, dim, gen)  # K, drawn and dropped
        super().__init__(Linear(f"{name}.v", dim, dim, gen),
                         Linear(f"{name}.o", dim, dim, gen))


class LinearAdapter(Sequential):
    """Single linear map followed by unit-sphere projection."""

    def __init__(self, in_dim: int, out_dim: int, name: str = "adapter",
                 gen: np.random.Generator | None = None):
        self.linear = Linear(name, in_dim, out_dim, gen)
        super().__init__(self.linear, RowNormalize())


def init_identity_adapter(dim: int, noise_variance: float,
                          gen: np.random.Generator,
                          name: str = "adapter") -> LinearAdapter:
    """Adapter starting at (a perturbation of) the identity, with zero bias;
    gen draws the perturbation, nothing at zero variance."""
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    adapter = LinearAdapter(dim, dim, name=name)
    w = np.eye(dim)
    if noise_variance > 0:
        w = w + gen.normal(0.0, math.sqrt(noise_variance), size=(dim, dim))
    adapter.linear.weight.value = w
    adapter.linear.bias.value = np.zeros(dim)
    return adapter


class CoverRange(Layer):
    """Identity on cover percentages that rejects a value outside
    [0, 100] with DataError."""

    def forward(self, x, train=False, gen=None):
        x = np.asarray(x, dtype=np.float64)
        if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) > 100.0:
            raise DataError("cover values must lie in [0, 100]")
        return x

    def backward(self, g, tape, input_grad=True):
        return g


class BotaniaMLP(Sequential):
    """Cover-vector classifier: trunk -> Dropout -> head, forward giving
    the logits. Its `embedding` is the tabular representation.

    Canonical dimensions are 3587 -> 1536 -> 768 -> 232 with Dropout(0.4),
    the run configuration's defaults.
    """

    def __init__(self, in_dim: int, hidden: int, embed: int, n_classes: int,
                 dropout_rate: float, gen: np.random.Generator | None = None):
        self.in_dim = in_dim
        self.embed_dim = embed
        self.trunk = Sequential(
            CoverRange(), Linear("botania.lin1", in_dim, hidden, gen), Gelu(),
            Dropout(dropout_rate), Linear("botania.lin2", hidden, embed, gen),
            Gelu())
        super().__init__(self.trunk, Dropout(dropout_rate),
                         Linear("botania.head", embed, n_classes, gen))
        self.embedding = BotaniaEmbedding(self)


class BotaniaEmbedding(Sequential):
    """A BotaniaMLP's penultimate embedding: the post-GELU output of its
    trunk, taken before the head's dropout, unit-normalized. The head is
    not run, but params() stays the whole classifier's, head included."""

    def __init__(self, botania: BotaniaMLP):
        super().__init__(botania.trunk, RowNormalize())
        self.botania = botania

    def params(self):
        return self.botania.params()


class TwoLayerEncoder(Sequential):
    """Linear -> ReLU -> Dropout(0.1) -> Linear -> unit sphere.

    The ablation branch used for both modalities: hidden width 1024 on the
    tabular side, 2600 on the image side.
    """

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 gen: np.random.Generator, name: str = "mlp"):
        super().__init__(
            Linear(f"{name}.lin1", in_dim, hidden, gen), Relu(),
            Dropout(0.1), Linear(f"{name}.lin2", hidden, out_dim, gen),
            RowNormalize())


class AttentionEncoder(Sequential):
    """Tabular branch with a pre-norm single-token attention block.

    reduce -> LayerNorm -> MHA -> residual -> LayerNorm -> ReLU ->
    Dropout(0.1) -> project -> unit sphere.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 gen: np.random.Generator, model_dim: int,
                 name: str = "attn"):
        reduce = Linear(f"{name}.reduce", in_dim, model_dim, gen)
        self.mha = SingleTokenAttention(f"{name}.mha", model_dim, gen)
        super().__init__(
            reduce,
            Residual(Sequential(LayerNorm(f"{name}.ln1", model_dim), self.mha)),
            LayerNorm(f"{name}.ln2", model_dim), Relu(), Dropout(0.1),
            Linear(f"{name}.project", model_dim, out_dim, gen), RowNormalize())


class BotaSPModel:
    """Supervised baseline: projection -> unit sphere -> hidden(GELU,
    Dropout 0.4) -> per-species head.

    Downstream features, encode_images, are the post-GELU, pre-dropout
    hidden activations (width 1536 at canonical size)."""

    def __init__(self, in_dim: int, n_species: int, proj_dim: int,
                 hidden: int, dropout_rate: float,
                 gen: np.random.Generator | None = None):
        self.project = Sequential(Linear("botasp.proj", in_dim, proj_dim, gen),
                                  RowNormalize())
        self.features = Sequential(
            Linear("botasp.hidden", proj_dim, hidden, gen), Gelu())
        self.head = Sequential(Dropout(dropout_rate),
                               Linear("botasp.head", hidden, n_species, gen))

    def forward(self, x, train: bool = False,
                gen: np.random.Generator | None = None):
        """Returns (logits, z_proj, features)."""
        z = self.project.forward(x, train, gen)
        feat = self.features.forward(z, train, gen)
        return self.head.forward(feat, train, gen), z, feat

    def encode_images(self, x):
        return self.features.forward(self.project.forward(x))

    def backward(self, tape: GradientTape, g_logits, g_z=None,
                 input_grad: bool = True):
        g = self.features.backward(self.head.backward(g_logits, tape), tape)
        if g_z is not None:
            g = g + g_z
        return self.project.backward(g, tape, input_grad)

    def params(self):
        return (self.project.params() + self.features.params()
                + self.head.params())


VARIANTS = ("botania-linear", "mlp", "attention")


class AlignmentModel:
    """Paired image/tabular encoders plus the learnable temperature and bias.

    variant selects the branches: the pretrained-style cover MLP with
    linear adapters on both sides (botania, adapter_noise_variance), a
    two-layer MLP on both sides (mlp_img_hidden, mlp_tab_hidden), or the
    attention block on the tabular side (mlp_img_hidden, attn_model_dim).
    The settings a variant does not use may stay None.
    """

    def __init__(self, variant: str, d_img: int, d_tab: int,
                 rng: Rng, *, proj_dim: int,
                 botania: BotaniaMLP | None = None,
                 adapter_noise_variance: float | None = None,
                 mlp_img_hidden: int | None = None,
                 mlp_tab_hidden: int | None = None,
                 attn_model_dim: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        if variant == "botania-linear":
            if d_img != proj_dim:
                raise ShapeMismatch(
                    "identity-initialized image adapter needs d_img == proj_dim")
            self.img_branch = init_identity_adapter(
                d_img, adapter_noise_variance, rng.substream("init/img_adapter"),
                name="img_adapter")
            if botania is None:
                raise ValueError("botania-linear variant needs a BotaniaMLP")
            if botania.embed_dim != proj_dim:
                raise ShapeMismatch("tabular embedding width must equal proj_dim")
            self.tab_branch = Sequential(botania.embedding, LinearAdapter(
                botania.embed_dim, proj_dim, name="tab_adapter",
                gen=rng.substream("init/tab_adapter")))
        else:
            self.img_branch = TwoLayerEncoder(
                d_img, mlp_img_hidden, proj_dim,
                rng.substream("init/img_encoder"), name="img_encoder")
            tab_gen = rng.substream("init/tab_encoder")
            self.tab_branch = (
                TwoLayerEncoder(d_tab, mlp_tab_hidden, proj_dim, tab_gen,
                                name="tab_encoder") if variant == "mlp" else
                AttentionEncoder(d_tab, proj_dim, tab_gen,
                                 model_dim=attn_model_dim, name="tab_encoder"))
        # the sigmoid loss starts at temperature exp(tau) = 10 and bias -10
        self.tau = Param("scalars.tau", np.float64(math.log(10.0)),
                         decay=False)
        self.bias = Param("scalars.bias", np.float64(-10.0), decay=False)

    def encode_images(self, x, train=False, gen=None):
        return self.img_branch.forward(x, train, gen)

    def backward_images(self, g, tape, input_grad=True):
        return self.img_branch.backward(g, tape, input_grad)

    def encode_tables(self, covers, train=False, gen=None):
        return self.tab_branch.forward(covers, train, gen)

    def backward_tables(self, g, tape, input_grad=True):
        return self.tab_branch.backward(g, tape, input_grad)

    def params(self):
        return (self.img_branch.params() + self.tab_branch.params()
                + [self.tau, self.bias])
