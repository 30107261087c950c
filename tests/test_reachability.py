"""Every definition in src/lrplab is reached from an entry point.

An AST walk starts at the entry points (the CLI, the runner, report and
verify_run, the scripts) and at an explicit keep-list of public names
that tests or file formats rely on, and follows every name a reached
definition refers to.  A bare name resolves through the module's own
top-level definitions and its imports; `alias.name` through a module
alias; any other attribute `obj.name` reaches every method of that name
in any class.  Dunder methods come with their class.  A function, class
or method that the walk never reaches is dead code: delete it or wire it
into an entry point.

A second test lists every parameter with a default of a public function
or method; that list must equal `DEFAULTED`, so a new setting is a
visible edit here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lrplab"

ENTRY_POINTS = {"cli.main", "experiments.run", "experiments.report",
                "experiments.verify_run"}
# public names that no entry point calls but that are kept: the checks
# of the acceptance suite, a test reference, the readers and writers of
# the graph and family file formats, the config-file loader, the kernel
# table view the benchmark harness reads, and four estimators of paper
# quantities that no runner reports yet (expected degree, the ECDF
# window mass, the Chernoff concentration of the xi vector, the mass
# distribution check of a path)
KEEP = {"firework.jump_scaling_sweep", "firework.simulate_firework",
        "kernel.edge_probability", "kernel.kernel_integral",
        "graph.expected_long_edge_total", "sperner.log_central_term",
        "kernel.canonical_class", "graph.load_binary", "graph.import_text",
        "sperner.save_family", "experiments.load_config",
        "kernel.DisplacementKernel.entries", "kernel.expected_degree",
        "scaling.window_mass", "firework.concentration_check",
        "dimension.mass_distribution_check"}

# every (public function or method, parameter with a default) pair in
# src/lrplab: a new knob shows up in review as a line added here
DEFAULTED = [
    "cli.main(argv)",
    "firework.FireworkModel.default(c2)",
    "firework.coupling_checks(max_size)",
    "firework.simulate_firework(runs)",
    "firework.simulate_firework(store_generations)",
    "firework.simulate_xi_vector(runs)",
    "graph.sample_graph(stream_id)",
    "kernel.edge_probability(d)",
    "kernel.kernel_integral(d)",
    "metric.distance(region)",
    "metric.distance_field(region)",
    "metric.distance_field(target)",
    "metric.geodesic_dag(exact_counts)",
    "metric.geodesic_dag(region)",
    "scaling.sample_distances(box_factor)",
    "scaling.sample_distances(ladder_index)",
    "sperner.generate_family(target_size)",
]


class _Module:
    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.tree = tree
        self.imports: dict[str, str] = {}      # local name -> "mod.name"
        self.modules: dict[str, str] = {}      # alias -> module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith(
                        "lrplab")):
                source = (node.module or "").removeprefix("lrplab")
                source = source.lstrip(".")
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source:
                        self.imports[local] = f"{source}.{alias.name}"
                    else:
                        self.modules[local] = alias.name


def _load(path: Path, name: str) -> _Module:
    return _Module(name, ast.parse(path.read_text(), filename=str(path)))


def _definitions(mod: _Module):
    """(qualified name, node, class name or None) of each top-level
    function and class and of each method."""
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{mod.name}.{node.name}", node, None
        elif isinstance(node, ast.ClassDef):
            yield f"{mod.name}.{node.name}", node, None
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (f"{mod.name}.{node.name}.{item.name}", item,
                           node.name)


def _assigned(mod: _Module):
    """(qualified name, node) of each module-level assignment."""
    for node in mod.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                yield f"{mod.name}.{target.id}", node


def _references(mod: _Module, node, top: set[str], methods: dict):
    """Qualified names a node refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if f"{mod.name}.{sub.id}" in top:
                out.add(f"{mod.name}.{sub.id}")
            elif sub.id in mod.imports:
                out.add(mod.imports[sub.id])
        elif isinstance(sub, ast.Attribute):
            value = sub.value
            if isinstance(value, ast.Name) and value.id in mod.modules:
                out.add(f"{mod.modules[value.id]}.{sub.attr}")
            else:
                out.update(methods.get(sub.attr, ()))
    return out


def unreachable() -> list[str]:
    mods = {p.stem: _load(p, p.stem) for p in sorted(PACKAGE.glob("*.py"))}
    nodes: dict[str, tuple[_Module, ast.AST]] = {}
    defs: list[str] = []
    methods: dict[str, set[str]] = {}
    dunders: dict[str, set[str]] = {}
    for mod in mods.values():
        for qual, node in _assigned(mod):
            nodes[qual] = (mod, node)
        for qual, node, cls in _definitions(mod):
            nodes[qual] = (mod, node)
            defs.append(qual)
            if cls is None:
                continue
            owner = f"{mod.name}.{cls}"
            if node.name.startswith("__"):
                dunders.setdefault(owner, set()).add(qual)
            else:
                methods.setdefault(node.name, set()).add(qual)
    top = set(nodes)

    def body_refs(mod, node):
        if isinstance(node, ast.ClassDef):
            # a class reaches its decorators, bases, fields and dunders,
            # not its ordinary methods
            parts = node.decorator_list + node.bases + [
                item for item in node.body
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
            refs = set()
            for part in parts:
                refs |= _references(mod, part, top, methods)
            return refs | dunders.get(f"{mod.name}.{node.name}", set())
        return _references(mod, node, top, methods)

    stack = list(ENTRY_POINTS | KEEP)
    for script in sorted((ROOT / "scripts").glob("*.py")):
        smod = _load(script, script.stem)
        stack += _references(smod, smod.tree, set(), methods)
    seen: set[str] = set()
    waiting: dict[str, list[str]] = {}     # class -> methods named so far
    while stack:
        qual = stack.pop()
        if qual in seen or qual not in nodes:
            continue
        owner = qual.rsplit(".", 1)[0]
        if owner in nodes and owner not in seen:
            # a method counts once its class is reached as well
            waiting.setdefault(owner, []).append(qual)
            continue
        seen.add(qual)
        mod, node = nodes[qual]
        stack += body_refs(mod, node) - seen
        stack += waiting.pop(qual, [])
    return sorted(q for q in defs if q not in seen)


def _defaulted(mod: _Module):
    """`mod.func(param)` for each defaulted parameter of a public
    function or method of a public class."""
    for qual, node, _ in _definitions(mod):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or "._" in qual:
            continue
        args = node.args.posonlyargs + node.args.args
        named = args[len(args) - len(node.args.defaults):] + [
            arg for arg, default in zip(node.args.kwonlyargs,
                                        node.args.kw_defaults)
            if default is not None]
        yield from (f"{qual}({arg.arg})" for arg in named)


def test_defaulted_parameters_are_listed():
    mods = [_load(p, p.stem) for p in PACKAGE.glob("*.py")]
    assert sorted(pair for mod in mods for pair in _defaulted(mod)) == \
        DEFAULTED


def test_entry_points_and_keep_list_exist():
    mods = {p.stem: _load(p, p.stem) for p in PACKAGE.glob("*.py")}
    names = {qual for mod in mods.values()
             for qual, _, _ in _definitions(mod)}
    assert ENTRY_POINTS | KEEP <= names


def test_every_definition_reachable():
    dead = unreachable()
    assert not dead, ("defined in src/lrplab but reached from no entry "
                      "point or keep-list name: " + ", ".join(dead))
