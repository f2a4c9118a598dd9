"""Fixture models, the CV dataset, and request graphs.

A fixture model is trained in its own process (``python -m
benchmarks.e2e.fixtures NAME OUT``) so neither its training time nor its
memory shows up in any metric.  It is kept under
``.bench_build/e2e/fixtures``, keyed by a digest of the program's source
files and of this recipe, so it is trained once per checkout and again
whenever either changes.

Training data and CV folds always come from :data:`DATA_SEED`.  That
fixes the tensor shapes — the sequence length ``w`` and the vocabulary
size ``m`` — which set the cost of every forward and backward pass; with
them drawn from the run's seed, the cost of a run moved with the seed by
as much as a real regression.  What the run's seed ``S`` chooses is the
work done on them: request graphs come from seed ``S + 1`` (held out
from training), and each CV fold's initialisation and shuffling from
``S``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e.env import ROOT, SRC, WORK_ROOT, child_env, use_src

DATA_SEED = 0
FIXTURE_DIR = WORK_ROOT / "fixtures"
WL_H = 2
FIELD_R = 3


@dataclass(frozen=True)
class Fixture:
    dataset: str
    scale: float
    epochs: int


#: MUTAG-shaped graphs for serving; dense IMDB-BINARY ego-nets (w=45,
#: m~2.7k) for offline scoring.  DeepMap-WL with h=2, r=3 throughout.
FIXTURES = {"mutag": Fixture("MUTAG", 1.0, 5), "imdb": Fixture("IMDB-BINARY", 0.3, 2)}
#: Smoke runs train on fewer graphs for fewer epochs; requests are unchanged.
SMOKE_FIXTURES = {"mutag": Fixture("MUTAG", 0.25, 1), "imdb": Fixture("IMDB-BINARY", 0.1, 1)}
REQUESTS = {"mutag": 188, "imdb": 96}


def request_graphs(name: str, seed: int) -> list:
    from repro import make_dataset

    fx = FIXTURES[name]
    return make_dataset(fx.dataset, fx.scale, seed + 1).graphs[: REQUESTS[name]]


def train(name: str, out: Path, smoke: bool) -> None:
    """Fit the fixture model and save it to ``out`` (runs in the child)."""
    from repro import deepmap_wl, make_dataset
    from repro.core.persistence import save_model

    fx = (SMOKE_FIXTURES if smoke else FIXTURES)[name]
    data = make_dataset(fx.dataset, fx.scale, DATA_SEED)
    model = deepmap_wl(h=WL_H, r=FIELD_R, epochs=fx.epochs, seed=DATA_SEED)
    save_model(model.fit(data.graphs, data.y), out)


def build(name: str, smoke: bool) -> Path:
    """Path of fixture model ``name``, trained in a separate process if new."""
    path = FIXTURE_DIR / f"{name}{'-smoke' if smoke else ''}-{_digest()}.pkl"
    if path.exists():
        return path
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    argv = [sys.executable, "-m", "benchmarks.e2e.fixtures", name, str(partial)]
    if smoke:
        argv.append("--smoke")
    try:
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, timeout=300)
        os.replace(partial, path)  # concurrent runs each publish a whole file
    finally:
        partial.unlink(missing_ok=True)
    return path


def _digest() -> str:
    """Digest of the program's sources and of this fixture recipe."""
    h = hashlib.blake2b(digest_size=8)
    for source in sorted(SRC.rglob("*.py")) + [Path(__file__)]:
        h.update(str(source.relative_to(ROOT)).encode())
        h.update(source.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.fixtures")
    parser.add_argument("name", choices=sorted(FIXTURES))
    parser.add_argument("out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    use_src()
    train(args.name, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
