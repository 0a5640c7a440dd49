"""Dead-code guard: every module-level function and class of ``src/fockwalk``,
and every method and property of its classes, is reached from the command
line, or is pinned below with the reason it stays.

Reachability follows ``ast`` name references from ``cli.main`` and the CLI's
module-level tables: a reached function, method, class or module-level
assignment reaches every module-level name its source refers to, in its own
module, by a ``from .module import name`` binding, or as ``module.name``
through a ``from . import module`` binding.  A method or property, keyed
``Class.name``, is reached when reached code reads an attribute of its name
(``x.name``, on any object); a reached class reaches its dunder methods, such
as ``__post_init__``, but not the bodies of its other methods.  Every pin
names a definition of ``src/fockwalk``, and every bench binding appears, as a
word, in a ``bench/*.py`` file, so a pin goes when its name goes.
"""

import ast
import re
from pathlib import Path

import fockwalk

SRC = Path(fockwalk.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Unreached by the CLI, and why each stays.
BENCH_BINDINGS = {  # names that bench/ binds
    "run_quench", "observable_record", "evolve", "floquet_step", "chiral_step",
    "winding_number", "predict_bound_states", "_parallel_map", "_diagram_point",
}
PER_STEP_API = {  # the public per-step API and its helpers
    "initial_state", "_check_guard_band", "ObservableRecord", "observable_table",
    "z2_invariants", "TimeFrame", "sigma_z_kick",
    "WalkerState.up", "WalkerState.down", "WalkerState.copy",
}
PINNED = BENCH_BINDINGS | PER_STEP_API


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level name, and ``Class.name`` of each method or property ->
    the statement that defines it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))
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


def _source(node: ast.stmt):
    """The nodes a definition's reach reads: a class without its methods,
    whose dunder methods it reaches as (module, ``Class.name``) instead."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node), []
    parts = [*node.decorator_list, *node.bases, *node.keywords,
             *(item for item in node.body if not isinstance(item, ast.FunctionDef))]
    dunders = [f"{node.name}.{item.name}" for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]
    return (sub for part in parts for sub in ast.walk(part)), dunders


def _reached() -> tuple[set, dict]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    bindings = {module: _bindings(tree) for module, tree in trees.items()}
    methods = {}  # attribute name -> (module, Class.name) of every method of that name
    for module, names in defs.items():
        for name in names:
            if "." in name:
                methods.setdefault(name.partition(".")[2], []).append((module, name))
    roots = [name for name in defs["cli"] if name == "main" or name == "COMMANDS"
             or name.endswith("_KEYS")]
    todo, reached = [("cli", name) for name in roots], set()
    while todo:
        module, name = todo.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        nodes, dunders = _source(defs[module][name])
        todo.extend((module, dunder) for dunder in dunders)
        for node in nodes:
            target = None
            if isinstance(node, ast.Name):  # a name of this module, or one imported
                target = bindings[module].get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute):
                todo.extend(methods.get(node.attr, []))
                if isinstance(node.value, ast.Name):
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
    assert unreached <= PINNED, sorted(unreached - PINNED)


def test_the_walk_is_reached_through_the_step_kernel():
    reached, _ = _reached()
    for name in ("main", "cmd_walk", "cmd_pulse_verify"):
        assert ("cli", name) in reached
    for name in ("_trajectory", "_step", "_advance", "build_step_matrix", "_cut_link_step"):
        assert ("lattice", name) in reached


def test_methods_are_reached_by_attribute_and_dunders_by_their_class():
    reached, defs = _reached()
    for module, name in (("lattice", "WalkerState.site_probabilities"),  # state.site_...()
                         ("lattice", "BoundaryPhase.sign"),  # a property: phi.sign
                         ("quench", "QuenchScenario.protocol"),
                         ("quench", "QuenchProtocol.__post_init__")):  # by its class
        assert name in defs[module] and (module, name) in reached
    assert ("lattice", "WalkerState.copy") not in reached


def test_every_pin_names_a_definition_and_every_bench_binding_is_in_bench():
    _, defs = _reached()
    defined = {name for names in defs.values() for name in names}
    assert PINNED <= defined, sorted(PINNED - defined)
    bench = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    unbound = {name for name in BENCH_BINDINGS if not re.search(rf"\b{name}\b", bench)}
    assert not unbound, sorted(unbound)
