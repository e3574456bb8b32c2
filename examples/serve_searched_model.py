"""Search an architecture, deploy it and serve classification traffic.

The full deployment workflow the serving subsystem enables:

1. run a (laptop-scale) HGNAS search for a target edge device;
2. train the winning architecture briefly and register it in a
   :class:`~repro.serving.registry.ModelRegistry` with a latency SLO;
3. serve a synthetic request stream — with repeated inputs, as production
   traffic has — through the batched, cached inference engine;
4. print the telemetry report (latency percentiles, throughput, cache
   hit rates).

Run with ``python examples/serve_searched_model.py [device]`` (default:
jetson-tx2).  Takes well under a minute on a laptop CPU.
"""

import sys

import numpy as np

from repro.data import make_synthetic_modelnet
from repro.hardware import get_device
from repro.nas import HGNASConfig, render_architecture
from repro.serving import EngineConfig
from repro.workspace import Workspace

def main(device_name: str = "jetson-tx2") -> None:
    device = get_device(device_name)

    print(f"[1/3] searching an efficient GNN for {device.display_name} ...")
    train_set, test_set = make_synthetic_modelnet(num_classes=6, samples_per_class=8, num_points=32, seed=0)
    config = HGNASConfig(
        num_positions=12,
        hidden_dim=16,
        supernet_k=6,
        num_classes=train_set.num_classes,
        population_size=6,
        function_iterations=2,
        operation_iterations=3,
        function_epochs=1,
        operation_epochs=1,
        batch_size=8,
        eval_max_batches=2,
        beta=0.5,
        seed=0,
    )
    workspace = Workspace(device=device)
    result = workspace.search(train_set, test_set, config=config)
    print(render_architecture(result.best_architecture, title=f"{device.display_name} design"))

    print("[2/3] deploying (brief training + registration) ...")
    deployed = workspace.deploy(
        result.best_architecture,
        num_classes=train_set.num_classes,
        name="searched",
        k=6,
        embed_dim=32,
        slo_ms=5.0 * max(result.best_latency_ms, 1.0),
        train_dataset=train_set,
        train_epochs=8,
    )
    print(f"registered '{deployed.name}' for {device.display_name} (SLO {deployed.slo_ms:.1f} ms)")

    print("[3/3] serving a test-set request stream ...")
    rng = np.random.default_rng(1)
    unique = [sample.points for sample in test_set]
    # Production-style stream: every third request repeats an earlier cloud.
    stream = []
    for index in range(60):
        if index % 3 == 2:
            stream.append(unique[int(rng.integers(0, len(unique)))])
        else:
            stream.append(unique[index % len(unique)])
    report = workspace.serve(stream, name=deployed.name, config=EngineConfig(max_batch_size=8))

    # A second burst of recurring traffic against the warm engine: repeated
    # clouds are now served straight from the result cache.
    warm_results = report.engine.submit_many(deployed.name, stream[:30])

    labels = [r.label for r in report.results]
    print(f"served {len(report.results)} + {len(warm_results)} requests; "
          f"label histogram: {np.bincount(labels, minlength=train_set.num_classes)}")
    print(report.engine.format_report())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "jetson-tx2")
