"""The README matches the package: its Library snippet, its config keys and
its lists of flag choices; the package defines no name and no defaulted
parameter that only tests use; and its modules take no private name from
one another beyond the helper thread's pair."""

import argparse
import ast
import re
from pathlib import Path

import galvomosaic
from galvomosaic.cli import build_parser
from galvomosaic.config import CONFIG_KEYS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_snippet_matches_package_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)  # ImportError if the README names a dropped export
    imported = set(namespace) - {"__builtins__"}
    assert imported | {"GalvoMosaicError"} == set(galvomosaic.__all__)
    assert all(hasattr(galvomosaic, name) for name in galvomosaic.__all__)


def test_configuration_keys_match_loader():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration\n"):text.index("## Library\n")]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(keys) == len(set(keys))
    assert set(keys) == CONFIG_KEYS


def test_flag_choice_lists_match_parser():
    # Every `--flag a|b|c` in the README lists that option's choices, in order.
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    choices = {option: list(action.choices)
               for sub in commands.choices.values() for action in sub._actions
               if action.choices for option in action.option_strings}
    lists = re.findall(r"`(--[\w-]+) ([\w-]+(?:\|[\w-]+)+)`", README.read_text(encoding="utf-8"))
    assert {flag for flag, _ in lists} >= {"--mode", "--correction"}
    for flag, listed in lists:
        assert listed.split("|") == choices.get(flag), flag


def _names_used(tree: ast.AST) -> set[str]:
    """Names a module's code refers to: names, attributes and imports (not strings)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def _package_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "galvomosaic").glob("*.py"))}


def test_every_module_level_name_has_a_use_outside_tests():
    # A module-level def or class is used by the package's own code, named
    # by the benchmark harness, or imported by the acceptance tests.
    trees = _package_trees()
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = set().union(*map(_names_used, trees.values())) | {
        alias.name for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    unused = [
        f"{path.name}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and not re.search(rf"\b{node.name}\b", bench)
    ]
    assert not unused, unused


# Defaulted parameters kept without a caller outside tests: the list
# pipeline that tests/test_simulate.py compares the streaming writer
# against takes them, and they mirror the target_pitch and subpixel
# config keys.
UNPASSED_PARAMETERS = {"make_target(pitch)", "extract_tiles(subpixel)"}


def _defaulted_parameters(tree: ast.Module):
    """(name a call uses, parameter, its index among positional arguments
    or None if keyword-only) of each defaulted parameter of each function
    in ``tree``.  A method is called without its first argument, and
    ``__init__`` by its class name."""

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                for k in range(len(positional) - len(args.defaults), len(positional)):
                    yield name, positional[k].arg, k
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, child if isinstance(child, ast.ClassDef) else cls)

    return visit(tree, None)


def test_every_defaulted_parameter_is_passed_outside_tests():
    # Each defaulted parameter of the package is passed, by keyword or by
    # position, by some call of its function's name in the package, the
    # benchmark harness or the acceptance tests; a call with *args or
    # **kwargs may pass any.
    trees = _package_trees()
    others = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    callers = [*trees.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in others)]
    positions: dict[str, int] = {}
    keywords: dict[str, set] = {}
    spread = set()
    for tree in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                spread.add(name)
            positions[name] = max(positions.get(name, 0), len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unpassed = {
        f"{name}({param})"
        for tree in trees.values()
        for name, param, index in _defaulted_parameters(tree)
        if name not in spread and param not in keywords.get(name, ())
        and (index is None or positions.get(name, 0) <= index)
    }
    assert unpassed == UNPASSED_PARAMETERS, sorted(unpassed ^ UNPASSED_PARAMETERS)


def _private_names_taken(path: Path, tree: ast.Module) -> set[str]:
    """``module._name`` for each private name that the module at ``path``
    takes from another module of the package: by ``from .module import
    _name``, or as an attribute ``module._name`` of a module it imports."""
    modules, taken = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    taken.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("galvomosaic."):
                    modules[alias.asname or alias.name] = alias.name.split(".")[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            taken.add(f"{modules[node.value.id]}.{node.attr}")
    return {name for name in taken if name.split(".")[0] != path.stem}


def test_modules_take_no_private_name_but_the_helper_threads():
    # Stitch's and simulate's helper thread may run no public function
    # that bench/tracer.py wraps, since the tracer keeps one span stack
    # for the main thread: so the block passes call these two private
    # kernels across modules.  Any other private name stays in its module.
    taken = set().union(*(_private_names_taken(path, tree)
                          for path, tree in _package_trees().items()))
    assert taken == {"correction._blend", "pgm._decode"}, sorted(taken)
