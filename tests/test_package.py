"""The package as a user meets it: README's Quick start runs, and src/ holds only run code.

It also makes no BLAS call where a run reaches: BLAS sums in an order
that follows the CPU's kernel, so the outputs' bytes would too.
"""
import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distdetect"
README = ROOT / "README.md"

# public names that only the tests reach today, kept on purpose: the modified
# deflection coefficient, which a claim gate on the detect runs is to read
KEPT = {"fusion.deflection"}


# numpy names whose float64 sums go through BLAS, as attributes (np.dot, x.dot, np.linalg)
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def blas_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level definition, line) of every BLAS-backed numpy name or @ product in a module."""
    return [(getattr(top, "name", "<module>"), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES]


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def names_read(tree: ast.AST) -> set[str]:
    """Every identifier a module reads: names, attributes, imported names, and strings
    that are one identifier (a lookup by name, such as a tracer's table of targets)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def public_names(tree: ast.Module) -> list[str]:
    """The functions, classes and variables a module defines at top level, but _private ones."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in out if not name.startswith("_")]


def unreached(src: Path, root: Path = ROOT) -> list[str]:
    """module.name for each public top-level name in src that no code outside the tests reads.

    Readers are the package's modules, the name's own module included but
    not __init__.py (a re-export reaches nothing), the demos, the
    benchmark harness (bench/*.py, which looks names up by string) and
    README's python blocks.
    """
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))
               if p.name != "__init__.py"}
    read = set().union(*map(names_read, modules.values()))
    for path in [*sorted((root / "demos").glob("*.py")), *sorted((root / "bench").glob("*.py"))]:
        read |= names_read(ast.parse(path.read_text()))
    for block in python_blocks((root / "README.md").read_text()):
        read |= names_read(ast.parse(block))
    return [f"{stem}.{name}" for stem, tree in modules.items()
            for name in public_names(tree) if name not in read]


def test_readme_quick_start_runs(capsys):
    quick_start = README.read_text().split("## Quick start", 1)[1]
    block = python_blocks(quick_start)[0]
    exec(compile(block, "README.md (Quick start)", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.splitlines()[-1].endswith(" outer iterations"), printed


def test_every_public_name_is_reached_outside_the_tests():
    found = unreached(SRC)
    only_tests = [name for name in found if name not in KEPT]
    assert not only_tests, f"reached only by the tests (move them to tests/conftest.py): {only_tests}"
    stale = sorted(KEPT - set(found))
    assert not stale, f"reached outside the tests now, no longer kept on purpose: {stale}"


def test_the_reach_guard_names_a_planted_test_only_function(tmp_path):
    src = tmp_path / "distdetect"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "configs"))
    with open(src / "fusion.py", "a") as fh:
        fh.write("\n\ndef planted_helper(x):\n    return x\n")
    assert sorted(set(unreached(src)) - set(unreached(SRC))) == ["fusion.planted_helper"]


def test_no_blas_call_where_a_run_reaches():
    found = [f"{path.stem}.{name} (line {line})" for path in sorted(SRC.glob("*.py"))
             for name, line in blas_calls(ast.parse(path.read_text()))]
    # the kept test-only name; np.dot there sets no output byte
    assert [f.split(" ")[0] for f in found] == ["fusion.deflection"], found
