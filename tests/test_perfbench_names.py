"""Every mptraj name the benchmark reads resolves.

The workloads reach the package through module attributes only
(`mp.pair_nll`, `mp.distribution.DEFAULT_NOISE_VAR`, `mptraj.cli.main`), so
a rename or a deletion would otherwise surface only when a benchmark runs.
The files are parsed, not imported: nothing is executed or written beside
them.
"""
import ast
from pathlib import Path

import mptraj
import mptraj.cli  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the names perfbench binds the package to
ROOTS = {"mp": mptraj, "mptraj": mptraj}


def _attribute_chains():
    """{(file name, root name, attribute names)} of every longest attribute
    chain on a package root in perfbench's Python files."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inner = {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in ROOTS:
                chains.add((path.name, node.id, tuple(reversed(attrs))))
    return chains


def test_every_package_name_perfbench_reads_resolves():
    chains = _attribute_chains()
    # the parse found the workloads' reads, the CLI entry point among them
    assert ("workloads.py", "mptraj", ("cli", "main")) in chains
    assert ("workloads.py", "mp", ("distribution", "DEFAULT_NOISE_VAR")) in chains
    for file_name, root, attrs in sorted(chains):
        owner = ROOTS[root]
        for attr in attrs:
            assert hasattr(owner, attr), \
                f"{file_name}: {root}.{'.'.join(attrs)} does not resolve at .{attr}"
            owner = getattr(owner, attr)

