"""Dead-code guard: every module-level function and class of ``src/fockwalk``,
and every method and property of its classes, is reached from the command
line, or is pinned below with the reason it stays.

Reachability follows ``ast`` name references from ``cli.main`` and the CLI's
module-level tables: a reached function, method, class or module-level
assignment reaches every module-level name its source refers to, in its own
module, by a ``from .module import name`` binding, or as ``module.name``
through a ``from . import module`` binding.  A method or property, keyed
``Class.name``, is reached when reached code reads an attribute of its name
(``x.name``, on any object); a reached class reaches its bases and its dunder
methods, such as a validating ``__new__``, but not the bodies of its other
methods.  Every pin names a definition of ``src/fockwalk``, and every bench
binding appears, as a word, in a ``bench/*.py`` file, so a pin goes when its
name goes.

Fields and handlers are checked the same way.  A field of a reached record
(an annotated field of a ``NamedTuple`` class, or a name in the ``__slots__``
of a plain class) is reached when reached code reads an attribute of its name
or serializes its class whole with ``_asdict()``; the unread ones are pinned
in ``FIELD_PINS`` with the pinned definition that reads them.  Every
exception class of ``src/fockwalk`` that ``cli.main`` catches is named by
reached code outside an ``except`` clause, so no handler is dead.
"""

import ast
import functools
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
    "initial_state", "_check_guard_band", "GuardBandViolation", "ObservableRecord",
    "observable_table", "z2_invariants", "TimeFrame", "sigma_z_kick",
    "WalkerState.up", "WalkerState.down", "WalkerState.copy",
}
PINNED = BENCH_BINDINGS | PER_STEP_API
# Fields of reached records that reached code does not read -> the pinned
# definition that reads them.
FIELD_PINS = {
    "PhaseLabel.nu_prime": "winding_number",  # a bench binding
    "PhaseLabel.nu_dprime": "winding_number",
    "WalkerState.step_count": "floquet_step",  # a bench binding
}


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


@functools.cache
def _program() -> tuple[dict, dict]:
    """Module -> its definitions, and module -> its relative import bindings."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return ({module: _definitions(tree) for module, tree in trees.items()},
            {module: _bindings(tree) for module, tree in trees.items()})


def _target(module: str, node: ast.AST) -> tuple[str, str | None] | None:
    """The (module, name) that a name, or a ``module.name`` attribute, read in
    ``module`` refers to; None for any other node."""
    bindings = _program()[1][module]
    if isinstance(node, ast.Name):  # a name of this module, or one imported
        return bindings.get(node.id, (module, node.id))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        other, imported = bindings.get(node.value.id, (None, ""))
        if imported is None:  # module.name
            return other, node.attr
    return None


def _reached() -> tuple[set, dict]:
    defs = _program()[0]
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
            if isinstance(node, ast.Attribute):
                todo.extend(methods.get(node.attr, []))
            target = _target(module, node)
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
                         ("quench", "QuenchProtocol.__new__")):  # by its class
        assert name in defs[module] and (module, name) in reached
    assert ("lattice", "WalkerState.copy") not in reached


def test_every_pin_names_a_definition_and_every_bench_binding_is_in_bench():
    _, defs = _reached()
    defined = {name for names in defs.values() for name in names}
    assert PINNED <= defined, sorted(PINNED - defined)
    bench = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    unbound = {name for name in BENCH_BINDINGS if not re.search(rf"\b{name}\b", bench)}
    assert not unbound, sorted(unbound)


def test_every_exception_that_main_catches_is_raised_by_reached_code():
    """Each exception class of ``src/fockwalk`` named in an ``except`` clause
    of ``cli.main`` is named, outside ``except`` clauses, by reached code (a
    ``raise``, or a function that builds the exception for one): a class
    that only unreached code raises makes its handler dead."""
    reached, defs = _reached()
    main = defs["cli"]["main"]
    caught = {_target("cli", node) for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for node in ast.walk(handler.type)}
    caught = {(module, name) for module, name in caught - {None}
              if isinstance(defs.get(module, {}).get(name), ast.ClassDef)}
    assert ("lattice", "SiteOutOfRange") in caught and ("momentum", "GapClosed") in caught
    named = set()
    for module, name in reached:
        types = {id(sub) for node in ast.walk(defs[module][name])
                 if isinstance(node, ast.ExceptHandler) and node.type is not None
                 for sub in ast.walk(node.type)}
        named.update(_target(module, node) for node in _source(defs[module][name])[0]
                     if id(node) not in types)
    assert caught <= named, sorted(caught - named)


def _fields(node: ast.stmt) -> list[str]:
    """The fields of a record class: the annotated names of a ``NamedTuple``
    class body, or the names in a plain class's ``__slots__``; [] for
    anything else, a validating ``NamedTuple`` subclass's ``__slots__ = ()``
    included."""
    if not isinstance(node, ast.ClassDef):
        return []
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [sub.value for item in node.body if isinstance(item, ast.Assign)
            and [getattr(t, "id", None) for t in item.targets] == ["__slots__"]
            for sub in ast.walk(item.value)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]


def _serialized(reached: set, defs: dict) -> set:
    """(module, class) of each record that reached code serializes whole with
    ``_asdict()``, as ``x = f(...)`` then ``x._asdict()``, where f is
    annotated to return the class."""
    whole = set()
    for module, name in reached:
        for node in _source(defs[module][name])[0]:
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_asdict"
                    and isinstance(node.func.value, ast.Name)):
                continue
            for assign in _source(defs[module][name])[0]:
                if (isinstance(assign, ast.Assign) and isinstance(assign.value, ast.Call)
                        and [getattr(t, "id", None) for t in assign.targets] == [node.func.value.id]):
                    maker = _target(module, assign.value.func)
                    returns = defs[maker[0]][maker[1]].returns
                    whole.add(_target(maker[0], returns))
    return whole


def test_every_field_of_a_reached_record_is_read_or_pinned():
    """A field of a reached record is reached when reached code reads an
    attribute of its name (on any object; storing it, as ``__init__`` does,
    is no read), or serializes its class whole with ``_asdict()``.  The
    unread ones are exactly ``FIELD_PINS``, each read by the pinned
    definition named with it."""
    reached, defs = _reached()
    read = {node.attr for module, name in reached for node in _source(defs[module][name])[0]
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    whole = _serialized(reached, defs)
    assert ("pulse", "CycleReport") in whole
    records = {(module, name) for module, name in reached if _fields(defs[module][name])}
    assert {("lattice", "_Angles"), ("lattice", "WalkerState"), ("quench", "_Protocol"),
            ("quench", "QuenchScenario")} <= records
    unread = {f"{name}.{field}" for module, name in records - whole
              for field in _fields(defs[module][name]) if field not in read}
    assert unread == set(FIELD_PINS), sorted(unread ^ set(FIELD_PINS))
    for field, reader in FIELD_PINS.items():
        assert reader in PINNED
        module = next(module for module, names in defs.items() if reader in names)
        assert field.partition(".")[2] in {node.attr for node in _source(defs[module][reader])[0]
                                            if isinstance(node, ast.Attribute)}, field
