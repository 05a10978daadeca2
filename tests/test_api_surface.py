"""One API surface per module: no module-level function of `tilesim` may be
a bare alias of a method, that is, a function whose body does nothing but
call a method reached through its first parameter."""

import ast
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
