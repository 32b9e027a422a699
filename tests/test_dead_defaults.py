"""Every parameter default in the package is a setting some caller in the
package changes: a default that no call in src/ overrides is a constant
dressed as a knob. A default that must stay is allowed only with a written
reason.

The scan covers module-level functions, methods (a class's __init__ is
called by the class's name) and dataclass fields. A call overrides a
default when it names the parameter, passes it by position or passes
*args or **kwargs. A dataclass field that code assigns as an attribute is
set too, and a field(default_factory=...) is a container the code fills,
not a setting, so it is not scanned.

Calls match by the callee's literal name alone. Two functions of one name
therefore share their callers, so the scan can miss a dead default; and a
call it cannot name (cls(...) in a classmethod, type(self)(...), a
function passed on as a callback, dataclasses.replace) goes unseen, so it
can flag a default that is in use. Such a default needs an ALLOWED entry
that says where it is set."""

import ast

from test_dead_helpers import _trees

# "module.function(param)", "module.Class.method(param)" or
# "module.Class.field" -> why its default stays although no caller in src/
# changes it
ALLOWED = {
    "cli.main(argv)": "the entry point: the console script calls it with "
                      "no arguments, so it reads sys.argv",
    "metrics.knn_overlap(k)": "called from tests only until `embed` reports "
                              "the k-NN overlap (ROADMAP open item 1)",
}


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(position or None, name) of each parameter of fn with a default;
    position None marks a keyword-only parameter."""
    a = fn.args
    pos = (a.posonlyargs + a.args)[1 if method else 0:]
    first = len(pos) - len(a.defaults)
    out = [(i, arg.arg) for i, arg in enumerate(pos) if i >= first]
    out += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _dataclass_fields(cls: ast.ClassDef):
    """(position or None, name) of each defaulted field when cls is a
    dataclass, else nothing; kw_only fields have no position."""
    deco = next((d for d in cls.decorator_list
                 if "dataclass" in ast.unparse(d)), None)
    if deco is None:
        return []
    kw_only = "kw_only=True" in ast.unparse(deco)
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and isinstance(s.target, ast.Name)]
    return [(None if kw_only else i, s.target.id)
            for i, s in enumerate(fields)
            if s.value is not None
            and "default_factory" not in ast.unparse(s.value)]


def _defaults(trees):
    """key -> (callee name, position or None, parameter name, is a field)."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for i, p in _defaulted(node, False):
                    out[f"{module}.{node.name}({p})"] = (
                        node.name, i, p, False)
            if not isinstance(node, ast.ClassDef):
                continue
            for i, p in _dataclass_fields(node):
                out[f"{module}.{node.name}.{p}"] = (node.name, i, p, True)
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(ast.unparse(d) == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                for i, p in _defaulted(fn, not static):
                    out[f"{module}.{node.name}.{fn.name}({p})"] = (
                        callee, i, p, False)
    return out


def _calls_and_stores(trees):
    """(callee name, positional count, keyword names or None for **kwargs)
    of every call, and the attribute names every assignment stores."""
    calls, stores = [], set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                npos = (float("inf") if any(isinstance(a, ast.Starred)
                                            for a in n.args) else len(n.args))
                kws = {k.arg for k in n.keywords}
                calls.append((name, npos, None if None in kws else kws))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                stores.add(n.attr)
    return calls, stores


def _never_overridden(trees):
    calls, stores = _calls_and_stores(trees)
    dead = set()
    for key, (callee, pos, param, is_field) in _defaults(trees).items():
        if is_field and param in stores:
            continue
        if not any(name == callee and (kws is None or param in kws
                                       or (pos is not None and npos > pos))
                   for name, npos, kws in calls):
            dead.add(key)
    return dead


def test_every_default_is_overridden_somewhere_in_src():
    dead = _never_overridden(_trees())
    allowed = set(ALLOWED)
    assert dead - allowed == set(), (
        "defaults no caller in src/ changes; make them constants: "
        f"{sorted(dead - allowed)} (allowed: {sorted(dead & allowed)})")
    assert allowed <= dead, (
        "an allow-listed default is overridden or gone now: drop it from "
        f"ALLOWED: {sorted(allowed - dead)}")


def test_scan_finds_a_dead_default_and_its_overrides():
    # the scan itself: a default nothing sets, one set by keyword, by
    # position and by attribute
    src = '''
from dataclasses import dataclass, field

def f(a, b=1, c=2, *, d=3, e=4):
    pass

class K:
    def __init__(self, x=0, y=0):
        pass

@dataclass
class D:
    u: int = 0
    v: int = 0
    w: list = field(default_factory=list)

f(0, 5, e=1)
K(1)
D().v = 2
'''
    assert _never_overridden({"m": ast.parse(src)}) == {
        "m.f(c)", "m.f(d)", "m.K.__init__(y)", "m.D.u"}
