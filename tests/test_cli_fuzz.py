"""The CLI's input boundary under mutated files.

The cubic pair's two triangulation files, a divisor file and a signs file,
and the K3 cube/octahedron pair's two triangulation files, are edited one
to three times each, a coordinate, a list entry or a value at a time, and
every command that reads an edited file runs in process.  Whatever the
edit, a run ends with exit 0, 1 (input error) or 3 (failed hypothesis),
never with an internal error (exit 2) or a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CUBE_VERTS, CUBIC_VERTS, OCTA_VERTS
from tropmirror.cli import main
from tropmirror.lattice import LatticePolytope
from tropmirror.pairs import MirrorPair
from tropmirror.patchwork import signs_from_divisor
from tropmirror.triangulate import generate_central

# each command with the files it reads
CUBIC_COMMANDS = [
    (["validate", "tri"], {"tri"}),
    (["validate", "tri_dual"], {"tri_dual"}),
    (["hodge", "tri", "tri_dual", "--ring", "z"], {"tri", "tri_dual"}),
    (["mirror-check", "tri", "tri_dual"], {"tri", "tri_dual"}),
    (["divisor-class", "tri", "tri_dual", "--divisor", "divisor"], {"tri", "tri_dual", "divisor"}),
    (["patchwork", "tri", "tri_dual", "--divisor", "divisor"], {"tri", "tri_dual", "divisor"}),
    (["patchwork", "tri", "tri_dual", "--signs", "signs"], {"tri", "tri_dual", "signs"}),
    (["sweep", "tri", "tri_dual", "--raw"], {"tri", "tri_dual"}),
]

# what a value edit writes: small ints, and values of the wrong type
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([True, None, 1.0, 0.5, "x", [], {}]),
    st.lists(st.integers(-3, 3), max_size=3),
)


def cubic_documents():
    """The four input documents of the cubic pair, by file name."""
    P = LatticePolytope(CUBIC_VERTS)
    T, Tdual = generate_central(P), generate_central(P.dual())
    eps = signs_from_divisor(MirrorPair(T, Tdual).side_a, [(-1, 2)])
    return {
        "tri": T.to_dict(),
        "tri_dual": Tdual.to_dict(),
        "divisor": {"rays": [[-1, 2]]},
        "signs": {"signs": [[list(p), b] for p, b in sorted(eps.items())]},
    }


CUBIC_DOCUMENTS = cubic_documents()

# the K3 pair's files: every loaded triangulation is closed under faces,
# whatever its boundary simplices, before validation refuses it
K3_COMMANDS = [
    (["validate", "tri"], {"tri"}),
    (["validate", "tri_dual"], {"tri_dual"}),
    (["mirror-check", "tri", "tri_dual"], {"tri", "tri_dual"}),
]
K3_DOCUMENTS = {
    "tri": generate_central(LatticePolytope(CUBE_VERTS)).to_dict(),
    "tri_dual": generate_central(LatticePolytope(OCTA_VERTS)).to_dict(),
}


def positions(doc, path=()):
    """(path, value) for the document and each list entry and dict value in
    it, depth first."""
    yield path, doc
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for key, value in items:
        yield from positions(value, path + (key,))


def replaced(doc, path, value):
    """The document with the value at ``path`` replaced."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def edit(data, doc):
    """One edit of a copy of ``doc``: a coordinate set to another small int,
    a list entry deleted, repeated or appended, or any value replaced."""
    doc = json.loads(json.dumps(doc))
    spots = list(positions(doc))
    ints = [(p, v) for p, v in spots if type(v) is int]
    lists = [(p, v) for p, v in spots if isinstance(v, list)]
    kinds = ["value"] + ["coordinate"] * bool(ints) + ["list entry"] * bool(lists)
    kind = data.draw(st.sampled_from(kinds), label="edit")
    if kind == "coordinate":
        path, _ = data.draw(st.sampled_from(ints), label="coordinate")
        return replaced(doc, path, data.draw(st.integers(-3, 3), label="int"))
    if kind == "list entry":
        path, entries = data.draw(st.sampled_from(lists), label="list")
        how = data.draw(st.sampled_from(["delete", "repeat", "append"]), label="how")
        if how == "append" or not entries:
            entries.append(data.draw(VALUES, label="appended"))
        else:
            i = data.draw(st.integers(0, len(entries) - 1), label="entry")
            if how == "delete":
                del entries[i]
            else:
                entries.insert(i, json.loads(json.dumps(entries[i])))
        return doc
    path, _ = data.draw(st.sampled_from(spots), label="position")
    return replaced(doc, path, data.draw(VALUES, label="value"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_mutated(fuzz_dir, data, documents, commands):
    """Edit some of ``documents``, write all of them to ``fuzz_dir`` and run
    each command that reads an edited one."""
    names = data.draw(st.lists(st.sampled_from(sorted(documents)), min_size=1, unique=True),
                      label="files")
    paths = {}
    for name, doc in documents.items():
        if name in names:
            for _ in range(data.draw(st.integers(1, 3), label=f"{name} edits")):
                doc = edit(data, doc)
        paths[name] = fuzz_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for argv, reads in commands:
        if not reads & set(names):
            continue
        argv = [str(paths.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), (argv[0], code, err.getvalue(), out.getvalue()[:500])
        assert '"kind": "internal"' not in err.getvalue(), (argv[0], err.getvalue())


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_never_fail_internally(fuzz_dir, data):
    run_mutated(fuzz_dir, data, CUBIC_DOCUMENTS, CUBIC_COMMANDS)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_k3_triangulations_never_fail_internally(fuzz_dir, data):
    run_mutated(fuzz_dir, data, K3_DOCUMENTS, K3_COMMANDS)
