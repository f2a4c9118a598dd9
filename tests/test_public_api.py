"""The public API surface: everything advertised in __all__ must resolve
and the paper's example flows must be expressible through `repro.*`."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.features",
    "repro.kernels",
    "repro.nn",
    "repro.svm",
    "repro.core",
    "repro.baselines",
    "repro.datasets",
    "repro.eval",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_paper_workflow_through_top_level():
    """The README quickstart must work verbatim through `repro`."""
    import repro

    dataset = repro.make_dataset("PTC_MR", scale=0.12, seed=0)
    model = repro.deepmap_wl(h=1, r=3, epochs=2, seed=0)
    model.fit(dataset.graphs, dataset.y)
    preds = model.predict(dataset.graphs)
    assert preds.shape == (len(dataset),)
    emb = model.transform(dataset.graphs[:4])
    assert emb.shape == (4, 8)


def test_docstrings_on_public_entry_points():
    """Every public class/function carries a docstring."""
    import repro
    import repro.baselines
    import repro.core
    import repro.kernels

    for mod in (repro.core, repro.kernels, repro.baselines):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj):
                assert obj.__doc__, f"{mod.__name__}.{name} lacks a docstring"


def test_no_reference_oracles_in_src():
    """Oracles are test code: they live in ``tests/oracles``, and no module
    or class under ``repro`` defines a ``_reference*`` name."""
    import repro

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            offenders += [
                f"{path.relative_to(root)}:{node.lineno} {name}"
                for name in names
                if name.startswith("_reference")
            ]
    assert not offenders, offenders


def test_core_and_serve_import_without_scipy():
    """The scoring and serving import path stays numpy-only: importing
    ``scipy`` costs a served process startup time and resident memory."""
    import repro

    src_root = str(Path(repro.__file__).parent.parent)
    code = "import sys, repro.core, repro.serve; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src_root}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
