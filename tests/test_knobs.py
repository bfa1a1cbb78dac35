"""Knob lint: every optional parameter and defaulted dataclass field in
``src/sqglab`` is set by at least one call in ``src/`` or ``perfbench/``.
A setting that no caller there sets has one value in use and should be a
constant; a test that sets it does not count, since nothing a user runs
reaches that value.

Calls are matched by the callee's name (``f(...)`` or ``obj.f(...)``; a
class name calls its ``__init__`` or its dataclass fields).  A parameter
counts as set when a call passes it by keyword or by position, or passes
``*args``/``**kwargs`` that may carry it, and the flags of
``cli.VERIFY_CHECKS`` count as calls of their checks.  A dataclass field
that code assigns (``obj.field = ...``) or grows in place
(``obj.field.append(...)``) is run state filled in after construction, so
it counts as set too.

Caller lint: every public top-level function and class of ``src/sqglab`` is
referenced in code by some module in ``src/`` or ``perfbench/``, the same
callers as the knob lint's.  Strings, ``__all__`` and the ``__init__``
re-exports are not references; the entries of ``cli.VERIFY_CHECKS`` are.
The names that have no such caller are pinned, and the pinned set may only
shrink.
"""

import ast
import pathlib

from sqglab.cli import VERIFY_CHECKS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sqglab"
#: The directories whose code counts as a caller, for both lints.
CALLER_DIRS = ("src", "perfbench")

#: Public names that no module in ``CALLER_DIRS`` references: entry points
#: that only tests and users call.
WITHOUT_A_CALLER = {
    "fitted_decay_rate",
    "conservation_report",
    "mild_residual",
    "block_commutator",
    "field_from_witness",
    "report_from_json",
    "manifest_from_json",
}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _decorators(node) -> set:
    return {_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _function_knobs(fn, owner):
    """``(callee, [(param, position or None), ...])`` for a def."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if owner is not None and "staticmethod" not in _decorators(fn):
        positional = positional[1:]  # self or cls
    first = len(positional) - len(args.defaults)
    knobs = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    knobs += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return (owner if fn.name == "__init__" else fn.name), knobs


def _dataclass_knobs(cls):
    """``(callee, [(field, position), ...])`` for the defaulted fields."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and "ClassVar" not in ast.unparse(s.annotation)]
    return cls.name, [(s.target.id, i) for i, s in enumerate(fields)
                      if s.value is not None]


def defined_knobs() -> list:
    """``(label, callee, param, position, is_field)`` for every optional
    setting."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {child: node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee, knobs = _function_knobs(node, owner.get(node))
                label = ".".join(filter(None, (path.stem, owner.get(node), node.name)))
            elif isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node):
                callee, knobs = _dataclass_knobs(node)
                label = f"{path.stem}.{node.name}"
            else:
                continue
            is_field = isinstance(node, ast.ClassDef)
            found += [(label, callee, param, pos, is_field) for param, pos in knobs]
    return found


def caller_usage() -> tuple:
    """What the callers set: keywords and positional counts by callee name,
    callee names passed ``*args``/``**kwargs``, and attributes written."""
    keywords, positions, wildcard, written = {}, {}, set(), set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    written.add(node.attr)
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and isinstance(
                        node.func.value, ast.Attribute):
                    written.add(node.func.value.attr)  # obj.field.append(...)
                name = _name(node.func)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        k.arg is None for k in node.keywords):
                    wildcard.add(name)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
                positions[name] = max(positions.get(name, 0), len(node.args))
    for check, flags in VERIFY_CHECKS.values():
        keywords.setdefault(check.__name__, set()).update(flags.split())
    return keywords, positions, wildcard, written


def unset_knobs() -> list:
    keywords, positions, wildcard, written = caller_usage()
    return [
        f"{label}({param})" for label, callee, param, pos, is_field in defined_knobs()
        if callee not in wildcard
        and param not in keywords.get(callee, ())
        and (pos is None or pos >= positions.get(callee, 0))
        and not (is_field and param in written)
    ]


def test_every_optional_setting_has_a_caller_that_sets_it():
    offenders = unset_knobs()
    assert not offenders, (
        f"{len(offenders)} optional settings that no caller sets; make each "
        f"a constant: {offenders}"
    )


def public_names() -> set:
    """Names of the public top-level functions and classes of the package."""
    return {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def referenced_names() -> set:
    """Every name a module in ``CALLER_DIRS`` loads in code."""
    found = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found.add(node.attr)
    return found


def test_public_functions_without_a_caller_only_shrink():
    defined = public_names()
    uncalled = defined - referenced_names()
    assert uncalled <= WITHOUT_A_CALLER, (
        f"public names that nothing in {CALLER_DIRS} calls; call them or "
        f"remove them: {sorted(uncalled - WITHOUT_A_CALLER)}"
    )
    assert WITHOUT_A_CALLER <= defined, (
        f"pinned names that are gone; unpin them: {sorted(WITHOUT_A_CALLER - defined)}"
    )
