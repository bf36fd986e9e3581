"""Only what the package runs stays in ``src/sml``.

A top-level function or class that no code in ``src/sml`` refers to is
something only tests call: a second copy of behaviour that training and
serving never run.  ``synth``, the demo-corpus module, is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sml"
EXEMPT = {"synth"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names and attributes a module reads; a definition's own body does
    not count as a use of it."""
    names = set()
    for top in tree.body:
        inside = {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
        names |= inside - {getattr(top, "name", None)}
    return names


def test_every_top_level_definition_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "losses" in trees, f"no package sources under {SRC}"
    used = set().union(*map(referenced_names, trees.values()))
    unused = [f"{module}.{top.name}" for module, tree in trees.items()
              if module not in EXEMPT for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in used]
    assert not unused, f"defined in src/sml but used nowhere in it: {unused}"
