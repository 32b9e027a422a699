"""Spans and counts around botaclip's public functions and methods.

The tracer wraps, from outside the package, every public function and
method of each botaclip module (a few per-element helpers excepted, see
SKIP), and rebinds each wrapper under every name the package imported it
by. A span records its name, start, end, parent span and thread. Spans are
kept in memory and written out when the round ends; counts are computed
from the wrapped calls' arguments and return values.

Layer metrics follow three rules:
- wall: the wall time inside calls to a set of functions, a call nested in
  another call of the same set counted once;
- other: the same for every function of a layer that no named set covers,
  counting only calls not nested in another call of that layer;
- self: the span time minus the time its child spans cover (the union of
  their intervals, so children on two threads are not counted twice).

A span opened on a worker thread that has no open span of its own takes
as parent the innermost open span of the main thread, which is the call
that handed it the work.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("fileio", "synth", "dataprep", "spatial", "encoders", "numerics",
           "losses", "optim", "training", "forest", "evaluate", "metrics",
           "stats")

# Helpers called once per element or per row; a span each would cost more
# than the work. Their time stays with their caller.
SKIP = {"fileio.fmt_cell", "dataprep.braun_blanquet_to_percent"}
# numerics holds the per-array helpers every layer calls; only these two
# are traced.
NUMERICS_ONLY = {"numerics.normal_cdf", "numerics.Rng.substream"}

COMMANDS = ("synth", "prep", "split", "train_botania", "train_botaclip",
            "train_botasp", "embed", "eval_plant", "eval_butterfly",
            "eval_soil", "stats")


def _names(layer, *names):
    return frozenset(f"{layer}.{n}" for n in names)


WALL = {
    "fileio.csv_read_s": _names(
        "fileio", "read_csv", "read_matrix_csv", "read_releves",
        "read_locations", "read_labels", "read_occurrences", "read_soil",
        "read_split_manifest"),
    "fileio.csv_write_s": _names(
        "fileio", "write_csv", "write_matrix_csv", "write_table_csv",
        "write_locations", "write_labels", "write_split_manifest"),
    "fileio.emb_io_s": _names("fileio", "save_embeddings", "load_embeddings"),
    "fileio.ckpt_io_s": _names("fileio", "save_checkpoint", "load_checkpoint"),
    "fileio.manifest_s": _names("fileio", "write_manifest"),
    "synth.generate_s": _names("synth", "generate_synthetic", "view_ids"),
    "dataprep.cover_matrix_s": _names("dataprep", "build_cover_matrix"),
    "dataprep.pseudo_absences_s": _names("dataprep", "make_pseudo_absences"),
    "spatial.fold_build_s": _names(
        "spatial", "FoldAssignment.build", "assign_cells", "make_folds",
        "stratified_kfold"),
    "spatial.buffered_split_s": _names("spatial", "buffered_split",
                                       "roles_for_fold"),
    "spatial.leakage_audit_s": _names("spatial", "check_no_leakage"),
    "encoders.linear_fwd_s": _names("encoders", "Linear.forward"),
    "encoders.linear_bwd_s": _names("encoders", "Linear.backward"),
    "encoders.gelu_fwd_s": _names("encoders", "Gelu.forward"),
    "encoders.gelu_bwd_s": _names("encoders", "Gelu.backward"),
    "encoders.tape_add_s": _names("encoders", "GradientTape.add"),
    "numerics.normal_cdf_s": _names("numerics", "normal_cdf"),
    "numerics.substream_s": _names("numerics", "Rng.substream"),
    "losses.scl_s": _names("losses", "scl_loss_and_grads", "scl_logits",
                           "sigmoid_contrastive_loss"),
    "losses.drift_s": _names("losses", "regularizer_and_grad",
                             "similarity_regularizer"),
    "losses.ce_s": _names("losses", "cross_entropy_batch", "cross_entropy",
                          "binary_cross_entropy_with_logits"),
    "optim.adamw_step_s": _names("optim", "AdamW.step"),
    "forest.fit_s": _names("forest", "fit_classifier", "fit_regressor"),
    "forest.predict_s": _names("forest", "predict_proba", "predict"),
}
WALL.update({f"cli.{c}_s": frozenset({f"cli.{c}"}) for c in COMMANDS})
CPU = {"forest.fit_cpu_s": WALL["forest.fit_s"]}
# layer -> (metric, names left out) for the "other" and "self" rules
OTHER = {"dataprep": ("dataprep.other_s", WALL["dataprep.cover_matrix_s"]
                      | WALL["dataprep.pseudo_absences_s"]),
         "metrics": ("metrics.s", frozenset()),
         "stats": ("stats.s", frozenset())}
SELF = {"cli": ("cli.self_s", frozenset()),
        "encoders": ("encoders.other_s", frozenset().union(
            *(v for k, v in WALL.items() if k.startswith("encoders.")))),
        "training": ("training.self_s", frozenset()),
        "evaluate": ("evaluate.self_s", frozenset())}
COUNTS = ("fileio.csv_rows_read", "fileio.csv_rows_written",
          "fileio.bytes_hashed", "spatial.cells", "spatial.cell_pairs_audited",
          "encoders.matmul_gflop", "numerics.substreams", "optim.adamw_steps",
          "optim.param_updates", "optim.bytes_computed", "training.epochs",
          "training.steps", "training.samples", "forest.trees", "forest.nodes",
          "forest.split_evals", "forest.samples_fit",
          "evaluate.units_attempted", "evaluate.units_scored", "trace.spans")


def metric_names() -> list[str]:
    names = list(WALL) + list(CPU) + [m for m, _ in OTHER.values()]
    names += [m for m, _ in SELF.values()] + list(COUNTS)
    return sorted(names)


# --- counts taken from arguments and return values ---------------------------

def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _train_views(pairs, assignment, fold):
    """Training views of a contrastive run: views of pairs whose grid cell
    is at Chebyshev distance >= 2 from every validation cell."""
    import numpy as np
    from checks import train_mask
    cells = np.asarray(assignment.cells)
    val = np.asarray(assignment.fold_ids) == fold
    train_pairs = np.flatnonzero(train_mask(cells, cells[val]) & ~val)
    return int(np.isin(pairs.pair_index, train_pairs).sum())


def _tree_nodes(tree):
    """(nodes, internal nodes) of one fitted tree of linked TreeNodes."""
    nodes = internal = 0
    todo = [tree]
    while todo:
        node = todo.pop()
        nodes += 1
        if node.left is not None:
            internal += 1
            todo.append(node.left)
            todo.append(node.right)
    return nodes, internal


def _candidates(cfg, d):
    mf = "auto" if cfg is None else cfg.max_features
    gini = cfg is None or cfg.criterion == "gini"
    if isinstance(mf, int):
        return max(1, min(mf, d))
    if mf == "sqrt" or (mf == "auto" and gini):
        return math.ceil(math.sqrt(d))
    return d


class _Counting:
    """Iterator that counts the rows a writer consumes."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.n += 1
        return row


def _hooks(tr: "Tracer"):
    """span name -> (pre, post). pre(args, kwargs) returns (args, kwargs,
    state); post(state, args, kwargs, out) records counts."""
    add = tr.add

    def write_pre(args, kwargs):
        args = list(args)
        if len(args) >= 3:
            args[2] = _Counting(args[2])
            return tuple(args), kwargs, args[2]
        kwargs["rows"] = _Counting(kwargs["rows"])
        return tuple(args), kwargs, kwargs["rows"]

    def hashed_pre(args, kwargs):
        import os
        add("fileio.bytes_hashed", os.path.getsize(args[0]))
        return args, kwargs, None

    def leak_post(_, args, kwargs, out):
        import numpy as np
        a = _bind(tr.originals["spatial.check_no_leakage"], args, kwargs)
        cells = np.asarray(a["assignment"].cells)
        n_train = len(np.unique(cells[np.asarray(a["train_idx"])], axis=0))
        n_val = len(np.unique(cells[np.asarray(a["val_idx"])], axis=0))
        add("spatial.cell_pairs_audited", n_train * n_val)

    def step_post(_, args, kwargs, out):
        opt = args[0]
        add("optim.adamw_steps", 1)
        add("optim.param_updates", len(opt.params))
        # read p, g, m, v and write p, m, v: a lower bound on bytes moved
        add("optim.bytes_computed", 7 * sum(p.value.nbytes for p in opt.params))

    def train_post(name):
        def post(_, args, kwargs, out):
            a = _bind(tr.originals[name], args, kwargs)
            epochs = len(out[1].epochs)
            add("training.epochs", epochs)
            if "pairs" in a:
                n = _train_views(a["pairs"], a["assignment"], a["fold"])
            else:
                n = len(a["train_idx"])
            add("training.samples", n * epochs)
        return post

    def fit_post(name):
        def post(_, args, kwargs, out):
            a = _bind(tr.originals[name], args, kwargs)
            n_trees = len(out.trees)
            add("forest.trees", n_trees)
            add("forest.samples_fit", len(a["X"]) * n_trees)
            tr.forests.append((out, _candidates(a["cfg"], out.n_features)))
        return post

    def units_post(name):
        def post(_, args, kwargs, out):
            a = _bind(tr.originals[name], args, kwargs)
            seeds = len(tuple(a["seeds"]))
            if "covers" in a:
                import numpy as np
                counts = (np.asarray(a["covers"].values) > 0).sum(axis=0)
                keep = counts >= a["min_presences"]
                if a["max_presences"] is not None:
                    keep &= counts <= a["max_presences"]
                units = int(keep.sum())
            elif "occurrences" in a:
                units = len(a["occurrences"])
            else:
                units = a["soil"].values.shape[1]
            add("evaluate.units_attempted", units * seeds)
            add("evaluate.units_scored", len({(r[0], r[2]) for r in out.rows}))
        return post

    hooks = {
        "fileio.read_csv": (None, lambda _, a, k, out:
                            add("fileio.csv_rows_read", len(out[1]))),
        "fileio.write_csv": (write_pre, lambda state, a, k, out:
                             add("fileio.csv_rows_written", state.n)),
        "fileio.sha256_file": (hashed_pre, None),
        "spatial.FoldAssignment.build": (None, lambda _, a, k, out:
                                         add("spatial.cells",
                                             len(out.fold_of_cell))),
        "spatial.check_no_leakage": (None, leak_post),
        "encoders.Linear.forward": (None, lambda _, a, k, out: add(
            "encoders.matmul_gflop",
            2e-9 * len(a[1]) * a[0].in_dim * a[0].out_dim)),
        "encoders.Linear.backward": (None, lambda _, a, k, out: add(
            "encoders.matmul_gflop",
            4e-9 * len(a[1]) * a[0].in_dim * a[0].out_dim)),
        "numerics.Rng.substream": (None, lambda _, a, k, out:
                                   add("numerics.substreams", 1)),
        "optim.AdamW.step": (None, step_post),
    }
    for fn in ("train_botania", "train_botaclip", "train_botasp"):
        hooks[f"training.{fn}"] = (None, train_post(f"training.{fn}"))
    for fn in ("fit_classifier", "fit_regressor"):
        hooks[f"forest.{fn}"] = (None, fit_post(f"forest.{fn}"))
    for fn in ("eval_plant", "eval_butterfly", "eval_soil"):
        hooks[f"evaluate.{fn}"] = (None, units_post(f"evaluate.{fn}"))
    return hooks


# --- the tracer --------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, cpu)
        self.counts = defaultdict(float)
        self.forests = []
        self.hook_errors = {}
        self.originals = {}
        self._undo = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = None
        self.t0 = time.perf_counter()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self):
        st = self._stack()
        if st:
            parent = st[-1]
        elif self._main and st is not self._main:
            parent = self._main[-1]
        else:
            parent = -1
        sid = next(self._ids)
        st.append(sid)
        return st, sid, parent

    @contextmanager
    def span(self, name, cpu=False):
        st, sid, parent = self._open()
        c0 = time.thread_time() if cpu else 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time() if cpu else 0.0
            st.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), c1 - c0))

    def hook_failed(self, name):
        """A count could not be taken, most likely because the program's
        signatures or types changed. The traced call itself went through;
        the failure is recorded and the round goes on."""
        if name not in self.hook_errors:
            self.hook_errors[name] = traceback.format_exc(limit=3)

    def _wrap(self, name, fn, hook):
        pre, post = hook
        cpu = name in CPU["forest.fit_cpu_s"]
        span = self.span

        def traced(*args, **kwargs):
            state = None
            if pre is not None:
                try:
                    args, kwargs, state = pre(args, kwargs)
                except Exception:
                    self.hook_failed(name)
            with span(name, cpu):
                out = fn(*args, **kwargs)
            if post is not None:
                try:
                    post(state, args, kwargs, out)
                except Exception:
                    self.hook_failed(name)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        """Wrap every traced function of the already imported package."""
        self._main = self._stack()
        mods = {m: importlib.import_module(f"botaclip.{m}") for m in MODULES}
        every = [importlib.import_module("botaclip.cli"), *mods.values()]
        hooks = _hooks(self)
        no_hook = (None, None)
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if self._skipped(layer, name):
                        continue
                    self.originals[name] = obj
                    traced = self._wrap(name, obj, hooks.get(name, no_hook))
                    for m in every:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._undo.append((m, k, v))
                                setattr(m, k, traced)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_") or self._skipped(layer, name):
                            continue
                        kind = type(raw) if isinstance(
                            raw, (staticmethod, classmethod)) else None
                        fn = raw.__func__ if kind else raw
                        if not inspect.isfunction(fn):
                            continue
                        self.originals[name] = fn
                        traced = self._wrap(name, fn, hooks.get(name, no_hook))
                        self._undo.append((obj, meth, raw))
                        setattr(obj, meth, kind(traced) if kind else traced)

    @staticmethod
    def _skipped(layer, name):
        if layer == "numerics":
            return name not in NUMERICS_ONLY
        return name in SKIP

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- metrics ----------------------------------------------------------------
    def layer_metrics(self, spans_file=None) -> dict:
        """Per-layer metrics from the recorded spans and counts; writes the
        spans out as JSON lines when spans_file is given."""
        spans = self.spans
        if spans_file:
            with open(spans_file, "w", encoding="utf-8") as fh:
                for sid, name, t0, t1, parent, thread, _ in spans:
                    fh.write(json.dumps([sid, name, t0 - self.t0,
                                         t1 - self.t0, parent, thread]) + "\n")
        children = defaultdict(list)
        ids = {s[0] for s in spans}
        roots = []
        for s in spans:
            (children[s[4]] if s[4] in ids else roots).append(s)
        out = dict.fromkeys(metric_names(), 0.0)
        depth = defaultdict(int)  # metric or layer -> open spans
        wall_of = defaultdict(list)
        for metric, names in {**WALL, **CPU}.items():
            for n in names:
                wall_of[n].append(metric)

        todo = [(s, False) for s in reversed(roots)]
        while todo:
            s, leaving = todo.pop()
            sid, name, t0, t1, _, _, cpu = s
            layer = name.split(".", 1)[0]
            if leaving:
                for metric in wall_of[name]:
                    depth[metric] -= 1
                depth[layer] -= 1
                continue
            for metric in wall_of[name]:
                if depth[metric] == 0:
                    out[metric] += cpu if metric in CPU else t1 - t0
                depth[metric] += 1
            if layer in OTHER:
                metric, left_out = OTHER[layer]
                if depth[layer] == 0 and name not in left_out:
                    out[metric] += t1 - t0
            if layer in SELF:
                metric, left_out = SELF[layer]
                if name not in left_out:
                    out[metric] += t1 - t0 - _covered(t0, t1, children[sid])
            if name == "optim.AdamW.step" and depth["training"] > 0:
                out["training.steps"] += 1
            depth[layer] += 1
            todo.append((s, True))
            todo.extend((c, False) for c in reversed(children[sid]))

        for key, value in self.counts.items():
            out[key] = value
        try:
            for forest, m in self.forests:
                for tree in forest.trees:
                    nodes, internal = _tree_nodes(tree)
                    out["forest.nodes"] += nodes
                    out["forest.split_evals"] += internal * m
        except AttributeError:
            self.hook_failed("forest.nodes")
        out["trace.spans"] = len(spans)
        return out


def _covered(t0, t1, kids) -> float:
    """Length of the union of the children's intervals within [t0, t1]."""
    total = 0.0
    end = t0
    for _, _, c0, c1, *_ in sorted(kids, key=lambda k: k[2]):
        c0, c1 = max(c0, end), min(c1, t1)
        if c1 > c0:
            total += c1 - c0
            end = c1
    return total
