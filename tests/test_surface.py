"""Guards on the package surface.

``src/edgejump`` holds what the checks, the command line, the demos and the
benchmark run.  A public top-level function or class that none of them
reaches is either dead or a test oracle, and belongs in ``tests/oracles.py``.
The benchmark's tracer looks up every function it wraps by name, so each of
those names must still resolve.
"""
import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgejump"
PERFBENCH = ROOT / "perfbench"


def _sources():
    """Every file whose references keep a public name alive."""
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted(PERFBENCH.glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _is_all(node) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _references(tree, skip=()) -> Counter:
    """Names read, attributes, imported names and string constants in ``tree``.

    Nodes in ``skip`` are not entered.
    """
    found = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_names() -> list:
    """``module.name`` of each public top-level def or class nothing reaches.

    A reference inside the definition itself (recursion) or in an
    ``__all__`` list does not count.
    """
    trees = {path: ast.parse(path.read_text()) for path in _sources()}
    alls = {node for tree in trees.values() for node in tree.body if _is_all(node)}
    total = sum((_references(tree, alls) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] == _references(node)[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_reached():
    assert unreferenced_public_names() == []


def test_every_traced_function_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"edgejump.{layer}"),
                                       name, None))]
    assert missing == []


def test_program_runs_without_scipy():
    # scipy serves the tests as an oracle only; importing it would cost every
    # process most of its start-up time
    code = ("import sys; import edgejump.verify, edgejump.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_drivers_judge_only_through_the_report():
    # verdicts are set by Report.add and Report.judge alone; a hand-written
    # "PASS"/"FAIL" or a direct Report.fail call in a driver bypasses them
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    found = [ast.unparse(node) for node in ast.walk(tree)
             if (isinstance(node, ast.Constant) and node.value in ("PASS", "FAIL"))
             or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "fail")]
    assert found == []


def test_asymptotic_predictions_stay_in_doubles():
    # the evaluators return logs computed in doubles: no precision context,
    # no big-float Hankel closed form
    tree = ast.parse((PACKAGE / "asympt.py").read_text())
    banned = {"precision", "weightlab"}
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if (isinstance(node, ast.ImportFrom)
                   and (node.module or "").rsplit(".", 1)[-1] in banned)
               or (isinstance(node, ast.Import)
                   and any(a.name.rsplit(".", 1)[-1] in banned for a in node.names))]
    assert imports == []
    evaluators = {"edge_hankel_asymptote", "bulk_hankel_asymptote",
                  "recurrence_asymptotes", "polynomial_value_asymptote"}
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert evaluators <= set(defs)
    with_ctx = [name for name in evaluators
                if "ctx" in [a.arg for a in ast.walk(defs[name].args) if isinstance(a, ast.arg)]]
    assert with_ctx == []


#: functools decorators that keep results between calls.
_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _is_empty_container(node) -> bool:
    """True for ``{}``, ``[]``, ``dict()``, ``list()`` and ``set()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args
            and not node.keywords)


def test_no_module_keeps_state_between_calls():
    # perfbench/run.py empties caches before every pass, but finds them only
    # by a ``*_CACHE`` name or a ``cache_clear`` attribute: a table kept
    # under any other name would warm the benchmark's passes unseen.  So no
    # module binds an empty container at module level, the start of a table
    # filled at run time, or uses a functools cache.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}: {ast.unparse(node)}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and _is_empty_container(node.value)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.stem}: {ast.unparse(node)}" for a in node.names
                          if a.name in _CACHE_DECORATORS]
            elif (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.stem}: {ast.unparse(node)}")
    assert found == []
