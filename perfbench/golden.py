"""Write ``golden_dgcnn.json``: the DGCNN logits the serve_dgcnn check expects.

Usage (from the root of a checkout)::

    python3 perfbench/golden.py

Serves :func:`workloads.golden_clouds` on the ``dgcnn`` deployment of
serve_dgcnn through the gather→scatter ("materialized") backend, an
implementation of message passing independent of the fused kernels the
benchmark measures.  Run it again only when the model's intended outputs
change.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.limit_blas_threads()

import workloads  # noqa: E402


def main() -> int:
    common.setup_paths()
    from repro.serving.engine import EngineConfig, InferenceEngine

    engine = InferenceEngine(
        workloads.deploy_dgcnn(),
        EngineConfig(backend="materialized", result_cache_capacity=0, edge_cache_capacity=0),
    )
    logits = [engine.submit(workloads.ServeDgcnn.model, cloud).logits.tolist() for cloud in workloads.golden_clouds()]
    workloads.GOLDEN.write_text(json.dumps({"backend": "materialized", "logits": logits}) + "\n")
    print(f"wrote {workloads.GOLDEN} ({len(logits)} clouds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
