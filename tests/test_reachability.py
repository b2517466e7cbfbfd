"""Which functions of the package the command line reaches.

One fixed matrix of CLI runs goes through ``cli.main`` in a fresh
interpreter, under ``sys.setprofile`` set before ``spin8.cli`` is imported,
with one CPU in the affinity mask so that no check worker forks.  What runs
at import therefore counts as reached.  Every function the package defines
with ``def`` must be called by the import or the matrix, or be in
``UNREACHED`` with the reason it is kept; a function that they stop reaching
is code that only tests reach, and one on the list that they start reaching
has lost its reason.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import spin8

_WORKER = "runs only in a forked check worker"
_PERFBENCH = "perfbench times or counts it"
_ORACLE = "a test oracle for the scalar and octonion kernels"
_REPR = "for debugging and failure messages"

UNREACHED = {
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


# the child: profile from before the import, run the matrix with its stdout
# discarded, print each exit code and the (file, first line, name) of every
# code object called
_CHILD = """
import json, os, sys
codes = set()
def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
os.sched_getaffinity = lambda pid: {0}
sys.setprofile(profile)
import spin8.cli
sys.stdout = open(os.devnull, "w")
exits = [spin8.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([exits, [[c.co_filename, c.co_firstlineno, c.co_name] for c in codes]]),
      file=sys.__stdout__)
"""


def test_the_command_line_reaches_every_function_not_listed(tmp_path):
    argvs = [[a.format(tmp=tmp_path) for a in argv] for argv, _ in MATRIX]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    exits, codes = json.loads(child.stdout)
    assert exits == [code for _, code in MATRIX]
    names = defined()
    reached = {names.get((pathlib.Path(f).stem, line, name))
               for f, line, name in codes if pathlib.Path(f).parent == SRC}
    assert set(UNREACHED) <= set(names.values()), "listed but not defined"
    unreached = set(names.values()) - reached
    assert sorted(unreached - set(UNREACHED)) == [], "reached only by tests"
    assert sorted(set(UNREACHED) - unreached) == [], "listed but reached"
