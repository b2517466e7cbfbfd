"""Which functions of the package the command line reaches.

One fixed matrix of CLI runs goes through ``cli.main`` in this process,
under ``sys.setprofile``, with one CPU in the affinity mask so that no check
worker forks.  Every function the package defines with ``def`` must be
called by it, or be in ``UNREACHED`` with the reason it is kept; a function
that the matrix stops reaching is code that only tests reach, and one on the
list that it starts reaching has lost its reason.
"""

import ast
import os
import pathlib
import sys

import spin8
from spin8.cli import main

_IMPORT = "runs at import, before any command"
_WORKER = "runs only in a forked check worker"
_PERFBENCH = "perfbench times or counts it"
_ORACLE = "a test oracle for the scalar and octonion kernels"
_JSON = "a JSON round trip kept for failure witnesses (ROADMAP item 1)"
_REPR = "for debugging and failure messages"

UNREACHED = {
    ("octonion", "_quat_mul"): _IMPORT,
    ("octonion", "_unit_mul"): _IMPORT,
    ("octonion", "_layouts"): _IMPORT,
    ("checks", "_fork_worker"): _WORKER,
    ("checks", "_read_to_eof"): _WORKER,
    ("octonion", "mul_coeffs"): _PERFBENCH,
    ("scalars", "QuadExt.__mul__"): _PERFBENCH,
    ("scalars", "QuadExt._fast"): _PERFBENCH,
    ("scalars", "format_scalar"): _ORACLE,
    ("scalars", "QuadExt.__add__"): _ORACLE,
    ("scalars", "QuadExt.__bool__"): _ORACLE,
    ("scalars", "QuadExt.__eq__"): _ORACLE,
    ("scalars", "QuadExt.__hash__"): _ORACLE,
    ("scalars", "QuadExt.__neg__"): _ORACLE,
    ("scalars", "QuadExt.__str__"): _ORACLE,
    ("linalg", "Matrix.to_json"): _JSON,
    ("linalg", "Matrix.from_json"): _JSON,
    ("symspace", "SpherePoint.from_json"): _JSON,
    ("triality", "TrialityTriple.to_json"): _JSON,
    ("triality", "TrialityTriple.from_json"): _JSON,
    ("linalg", "Matrix.__repr__"): _REPR,
    ("octonion", "Octonion.__repr__"): _REPR,
    ("scalars", "ApproxReal.__repr__"): _REPR,
    ("scalars", "ExactBackend.__repr__"): _REPR,
    ("scalars", "FloatBackend.__repr__"): _REPR,
    ("scalars", "QuadExt.__repr__"): _REPR,
    ("symspace", "SpherePoint.__repr__"): _REPR,
    ("triality", "TrialityTriple.__repr__"): _REPR,
    ("triality", "TrialityViolated.__reduce__"):
        "pickles a failure a forked worker sends back",
    ("triality", "GammaElement.word"): "names a word when debugging",
}

# (argv, exit code): every subcommand, both backends, a run failed by a
# hostile --eps, usage errors and --out
MATRIX = [
    (["verify-all", "--trials", "1"], 0),
    (["verify-all", "--backend", "float", "--eps", "1e-300", "--trials", "1"], 1),
    (["fixset", "[0,3/5,4/5,0,0,0,0,0]"], 0),
    (["antipodal", "[0,1/2,1/2*r3,0,0,0,0,0]", "--trials", "2", "--out", "{tmp}/a.json"], 0),
    (["kai", "--trials", "1"], 0),
    (["table", "--out", "{tmp}/t.json"], 0),
    (["fixset", "[1,2]"], 2),
    (["verify-all", "--trials", "0"], 2),
    (["nonsense"], 2),
]

SRC = pathlib.Path(spin8.__file__).parent


def defined() -> dict:
    """(module, qualified name) of every def in the package, by (module,
    first line, name) as its code object has them, the first line being the
    first decorator's if any (co_qualname is new in Python 3.11)."""
    names = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                names[module, first, child.name] = module, prefix + child.name
                visit(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def test_the_command_line_reaches_every_function_not_listed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits, previous = [], sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in MATRIX:
            exits.append(main([a.format(tmp=tmp_path) for a in argv]))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert exits == [code for _, code in MATRIX]
    names = defined()
    reached = {names.get((pathlib.Path(c.co_filename).stem, c.co_firstlineno, c.co_name))
               for c in codes if pathlib.Path(c.co_filename).parent == SRC}
    assert set(UNREACHED) <= set(names.values()), "listed but not defined"
    unreached = set(names.values()) - reached
    assert sorted(unreached - set(UNREACHED)) == [], "reached only by tests"
    assert sorted(set(UNREACHED) - unreached) == [], "listed but reached"
