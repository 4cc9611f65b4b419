"""Every public name in the package is reached by something other than tests.

A public module-level function or class, or a public method or class-level
binding, must be used somewhere in ``src/tropmirror`` outside its own
definition, or be listed in ORACLES with the check it serves, or in HOOKS
with the framework that calls it.  Being exported in ``tropmirror.__all__``
is not enough.
Use is decided by name: a module-level name counts where its module, or a
module importing it, reads it; a method counts wherever an attribute of that
name is read.  Imports alone do not count.  A read by name cannot tell
apart two classes that define a method of the same name, nor a method from
an attribute stored under its name (a ``self.<name> =`` assignment or a
``__slots__`` entry), so every such definition is listed in SHARED with one
function that reads it (reviewed by hand; the test checks that the function
reads an attribute of that name).

The package also holds no ``assert`` statement: checks must survive
``python -O``.  Imports sit at module level, none inside a function.
"""

import ast
from pathlib import Path

import tropmirror

SRC = Path(tropmirror.__file__).parent

# Names only tests reach, each an independent oracle for a named check.
ORACLES = {
    "chains.HomologySummary.has_torsion":
        "acceptance criterion 3: acyclic complexes carry no torsion",
    "chains.ChainComplex.euler_characteristic":
        "acceptance criterion 10: the Euler characteristic identity",
    "chains.ChainComplex.f2_homology_generators":
        "test_mirror: the transfer involution on every homology generator",
    "lattice.LatticePolytope.faces_of_dim":
        "test_lattice: face counts of dual polytopes and Euler's relation",
    "mirror.contraction_sign":
        "acceptance criterion 5: the sign of the contraction round trip",
    "pairs.MirrorPair.sides":
        "acceptance criteria 1-5 and 10: every check runs on both sides",
    "patchwork.delta1":
        "acceptance criterion 8: the transfer of delta1(S) is the divisor class",
    "posets.balanced_signature":
        "acceptance criterion 10: the default signature equals a solved one",
    "posets.gauge_twist":
        "acceptance criterion 10: homology is invariant under gauge changes",
}

# Methods that only a framework calls, each with the framework and the event.
HOOKS = {
    "cli._Parser.error": "argparse calls it on a usage error",
}

# Public method names defined in more than one class, or also stored as an
# attribute: each definition, and a function in the package that reads it on
# an instance of that class.
SHARED = {
    "intlinalg.F2Space.add": "intlinalg.F2Space.__init__",
    "triangulate.ValidationReport.add": "triangulate.validate",
    "intlinalg.F2Space.contains": "chains.ChainComplex.f2_is_boundary",
    "lattice.LatticePolytope.contains": "lattice.LatticePolytope.lattice_points",
    "chains.ChainComplex.homology": "pairs.Side.homology",
    "pairs.Side.homology": "pairs.Side.hodge_table",
    "chains.HomologySummary.rank": "pairs.Side.hodge_table",
    "intlinalg.F2Space.rank": "patchwork._subspaces",
    "intlinalg.F2Space.reduce": "patchwork.sample_divisor_classes",
    "modules.FreeQuotient.reduce": "cosheaves.CosheafEvaluator.value_map",
    "triangulate.ValidationReport.to_dict": "cli.cmd_validate",
    "triangulate.CentralTriangulation.to_dict": "cli.cmd_triangulate",
    "chains.HomologySummary.degrees": "chains.HomologySummary.__repr__",
    "chains.ChainComplex.dim": "chains.ChainComplex.homology",
    "cosheaves.CosheafEvaluator.frame": "patchwork.PhaseFrame.__init__",
    "lattice.LatticePolytope.lattice_points": "triangulate._triangulate_facet_3d",
    "pairs.Side.poset": "patchwork.delta1",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _class_members(cls):
    """(name, node) for each method and each plain class-level binding."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name, item
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    yield target.id, item


def _definitions(trees):
    """(module, qualified name, node, is member) for every public definition;
    a member is a method or a class-level binding such as ``error = f``."""
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield mod, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for name, item in _class_members(node):
                    if not name.startswith("_"):
                        yield mod, f"{node.name}.{name}", item, True


def unreached_names(listed=ORACLES.keys() | HOOKS.keys()):
    """Public definitions nothing in the package reads, less those listed."""
    trees = _trees()
    names = {}  # (module, identifier) -> line numbers where it is read
    attrs = {}  # attribute name -> (module, line number) where it is read
    imported = {}  # (source module, name) -> [(importing module, local name)]
    for mod, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.setdefault((mod, n.id), []).append(n.lineno)
            elif isinstance(n, ast.Attribute):
                attrs.setdefault(n.attr, []).append((mod, n.lineno))
            elif isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    imported.setdefault((n.module, a.name), []).append(
                        (mod, a.asname or a.name)
                    )
    out = []
    for mod, qual, node, is_member in _definitions(trees):
        if is_member:
            uses = attrs.get(qual.rsplit(".", 1)[1], [])
        else:
            uses = [(mod, line) for line in names.get((mod, qual), [])]
            for other, local in imported.get((mod, qual), []):
                uses += [(other, line) for line in names.get((other, local), [])]
        outside = [
            (m, line)
            for m, line in uses
            if m != mod or not node.lineno <= line <= node.end_lineno
        ]
        if not outside and f"{mod}.{qual}" not in listed:
            out.append(f"{mod}.{qual}")
    return out


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_oracles_name_existing_definitions():
    defined = {f"{mod}.{qual}" for mod, qual, _, _ in _definitions(_trees())}
    assert set(ORACLES) <= defined


def test_hooks_name_existing_unread_definitions():
    # a hook listed here is one no code in the package reads; once something
    # reads it, the entry is stale
    assert not set(ORACLES) & set(HOOKS)
    assert set(unreached_names(listed=ORACLES.keys())) == set(HOOKS)


def _functions(trees):
    """Qualified name -> node for every function and method, private too."""
    out = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{mod}.{node.name}.{item.name}"] = item
    return out


def _stored_attributes(trees):
    """Names stored on instances: ``self.<name> =`` targets and ``__slots__``
    entries."""
    out = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"):
                out.add(n.attr)
            elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets
            ):
                out.update(c.value for c in ast.walk(n.value) if isinstance(c, ast.Constant))
    return out


def test_shared_method_names_have_a_reviewed_reader():
    trees = _trees()
    stored = _stored_attributes(trees)
    by_name = {}
    for mod, qual, _, is_member in _definitions(trees):
        if is_member:
            by_name.setdefault(qual.rsplit(".", 1)[1], []).append(f"{mod}.{qual}")
    shared = {
        d for name, defs in by_name.items() if len(defs) > 1 or name in stored for d in defs
    }
    assert shared == set(SHARED)
    functions = _functions(trees)
    for definition, reader in SHARED.items():
        attr = definition.rsplit(".", 1)[1]
        assert reader != definition
        assert any(
            isinstance(n, ast.Attribute) and n.attr == attr
            for n in ast.walk(functions[reader])
        ), (definition, reader)


def test_no_bare_asserts():
    # asserts vanish under `python -O`; invariants raise typed errors instead
    found = [
        f"{mod}.py:{n.lineno}"
        for mod, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Assert)
    ]
    assert not found, found


def test_no_function_level_imports():
    found = [
        f"{mod}.py:{n.lineno}"
        for mod, tree in _trees().items()
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(f)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    ]
    assert not found, found
