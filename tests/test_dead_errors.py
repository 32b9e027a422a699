"""Every exception class in botaclip.errors is named by an `except` clause in
the package: a class no caller catches by type changes no caller's reaction,
and its message already says what went wrong, so it belongs in its family."""

import ast
import inspect
from pathlib import Path

import botaclip
from botaclip import errors

SRC = Path(botaclip.__file__).parent

# classes kept although no except clause in src/ names them, with the reason
UNCAUGHT = {
    "BotaclipError": "the base of the families; callers react to a family, "
                     "never to every package error at once",
    "MissingForwardCache": "backward() before forward() is a programming "
                           "error, which no exit code covers",
}


def _classes():
    return {name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == errors.__name__}


def _caught():
    """Every name or attribute an except clause in src/ reads."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names |= {n.id if isinstance(n, ast.Name) else n.attr
                          for n in ast.walk(node.type)
                          if isinstance(n, (ast.Name, ast.Attribute))}
    return names


def test_every_error_class_is_caught_in_src():
    uncaught = _classes() - _caught()
    assert uncaught - set(UNCAUGHT) == set(), (
        f"caught nowhere in src/, fold into its family: "
        f"{sorted(uncaught - set(UNCAUGHT))}")
    assert set(UNCAUGHT) <= _classes() and not set(UNCAUGHT) - uncaught, (
        "an allow-listed class is caught or gone now: drop it from UNCAUGHT")
