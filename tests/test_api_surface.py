"""One API surface per module: no module-level function of `tilesim` may be
a bare alias of a method, that is, a function whose body does nothing but
call a method reached through its first parameter.  And every name the
benchmark's tracer wraps must still be there to wrap."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tilesim

SRC = Path(tilesim.__file__).parent


def _reached_through(node: ast.expr, name: str) -> bool:
    """Whether `node` is `name.attr...` (attribute access only)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


def method_aliases(source: str) -> list[str]:
    """Names of the module-level functions in `source` that only call a
    method of their first parameter."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or not fn.args.args:
            continue
        body = fn.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)):
            body = body[1:]                        # docstring
        if len(body) != 1 or not isinstance(body[0], (ast.Expr, ast.Return)):
            continue
        call = body[0].value
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and _reached_through(call.func.value, fn.args.args[0].arg)):
            found.append(fn.name)
    return found


def test_detector_flags_aliases_and_nothing_else():
    source = '''
def read(clock, t):
    return clock.read(t)

def assign(fabric, kind):
    """Docstring."""
    return fabric.daq.assign(kind)

def toggle(pse, tile):
    pse.toggle(tile)

def digest(cfg):
    return hashlib.sha256(cfg.encode()).hexdigest()

def guarded(domain, sw):
    domain.check(sw)
    return domain.ports[sw]

def second(a, b):
    return b.run()
'''
    assert method_aliases(source) == ["read", "assign", "toggle"]


def test_no_module_level_method_aliases():
    aliases = {path.name: method_aliases(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in aliases.items() if found} == {}


TRACED_RUN = """
import json, sys, tempfile
from perfbench.tracer import Tracer, install
from tilesim.orchestrator import run_scenario
from tilesim.scenario import load_scenario
tr = Tracer()
install(tr)
with tempfile.TemporaryDirectory() as out:
    run_scenario(load_scenario(sys.argv[1]), out)
print(json.dumps({name: stat[0] for name, stat in tr.stats.items()}))
"""


def test_the_benchmark_tracer_finds_every_name_it_patches():
    # `perfbench.tracer.install` wraps tilesim's calls by name, and a name
    # that is gone fails the traced benchmark.  It runs in a child, so no
    # wrapper leaks into the other tests, on a short traced scenario with a
    # boundary switch and relays.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(root)]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "tests/golden/fabric_traced.yaml")],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    assert calls["timesync.servo_update"] > 0
    assert calls["timesync.clock_read"] > 0
