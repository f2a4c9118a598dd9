"""End-to-end benchmark of the DeepMap system, with a traced per-layer waterfall.

Five workloads run the system the way its users do: served requests over
``python -m repro serve`` (closed loop and due-time open loop), offline
scoring through ``load_model(...).predict_proba`` with and without the
feature-map cache, and the paper's cross-validated CNN training.  See
``README.md`` in this directory for why each workload exists, what every
metric means, and how to run the plain, traced and compare modes.

Run it from the repository root::

    python3 -m benchmarks.e2e run --workload score_batch --seed 1
    python3 -m benchmarks.e2e run --workload serve_seq --seed 1 --trace 1
    python3 -m benchmarks.e2e compare A_DIR B_DIR
"""
