"""Dead-code guard: every module-level function and class of ``src/fockwalk``
is reached from the command line, or is pinned below with the reason it stays.

Reachability follows ``ast`` name references from ``cli.main`` and the CLI's
module-level tables: a reached function, class or module-level assignment
reaches every module-level name its source refers to, in its own module, by
a ``from .module import name`` binding, or as ``module.name`` through a
``from . import module`` binding.
"""

import ast
from pathlib import Path

import fockwalk

SRC = Path(fockwalk.__file__).parent

# Unreached by the CLI, and why each stays.
BENCH_BINDINGS = {  # names that bench/ binds
    "run_quench", "observable_record", "evolve", "floquet_step", "chiral_step",
    "winding_number", "predict_bound_states", "_parallel_map", "_diagram_point",
}
PER_STEP_API = {  # the public per-step API and its helpers
    "initial_state", "_check_guard_band", "ObservableRecord", "observable_table",
    "z2_invariants", "TimeFrame", "sigma_z_kick",
}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level name -> the statement that defines it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defs.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return defs


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name) of each relative import; name is None for a module."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (alias.name, None) if node.module is None else (node.module, alias.name)
                bound[alias.asname or alias.name] = target
    return bound


def _reached() -> tuple[set, dict]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    bindings = {module: _bindings(tree) for module, tree in trees.items()}
    roots = [name for name in defs["cli"] if name == "main" or name == "COMMANDS"
             or name.endswith("_KEYS")]
    todo, reached = [("cli", name) for name in roots], set()
    while todo:
        module, name = todo.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        for node in ast.walk(defs[module][name]):
            target = None
            if isinstance(node, ast.Name):  # a name of this module, or one imported
                target = bindings[module].get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                other, imported = bindings[module].get(node.value.id, (None, ""))
                if imported is None:  # module.name
                    target = (other, node.attr)
            if target is not None and target[1] in defs.get(target[0], {}):
                todo.append(target)
    return reached, defs


def test_only_pinned_functions_and_classes_are_unreached_from_the_cli():
    reached, defs = _reached()
    unreached = {name for module, names in defs.items() for name, node in names.items()
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and (module, name) not in reached}
    # test-only code lives in tests/oracle.py, not in src/
    assert unreached <= BENCH_BINDINGS | PER_STEP_API, sorted(
        unreached - BENCH_BINDINGS - PER_STEP_API)


def test_the_walk_is_reached_through_the_step_kernel():
    reached, _ = _reached()
    for name in ("main", "cmd_walk", "cmd_pulse_verify"):
        assert ("cli", name) in reached
    for name in ("_trajectory", "_step", "_advance", "build_step_matrix", "_cut_link_step"):
        assert ("lattice", name) in reached
