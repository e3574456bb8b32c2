"""Run the full HGNAS search for a target edge device, then train the result.

This is the end-to-end workflow of the paper at laptop scale:

1. generate the synthetic point-cloud classification benchmark;
2. run the multi-stage hardware-aware search (Alg. 1) for the chosen device;
3. instantiate the winning architecture as a stand-alone model, train it and
   compare it against DGCNN on accuracy and modelled latency.

Run with ``python examples/search_edge_device.py [device]`` (default: jetson-tx2).
Takes a couple of minutes.
"""

import sys

import numpy as np

from repro.data import make_synthetic_modelnet
from repro.hardware import dgcnn_workload, estimate_latency, get_device
from repro.models import DGCNN, DGCNNConfig
from repro.nas import DerivedModel, HGNASConfig, render_architecture
from repro.nas.trainer import evaluate_classifier, train_classifier
from repro.workspace import Workspace


def main(device_name: str = "jetson-tx2") -> None:
    device = get_device(device_name)
    print(f"Searching an efficient GNN for {device.display_name} ...")

    train_set, test_set = make_synthetic_modelnet(num_classes=8, samples_per_class=10, num_points=48, seed=0)
    config = HGNASConfig(
        num_positions=12,
        hidden_dim=24,
        supernet_k=8,
        num_classes=train_set.num_classes,
        population_size=10,
        function_iterations=3,
        operation_iterations=6,
        function_epochs=2,
        operation_epochs=3,
        batch_size=8,
        eval_max_batches=3,
        beta=0.5,
        seed=0,
    )
    result = Workspace(device=device).search(train_set, test_set, config=config)

    print("\n== Searched architecture ==")
    print(render_architecture(result.best_architecture, title=f"{device.display_name} design"))
    print(f"objective score      : {result.best_score:.3f}")
    print(f"predicted latency    : {result.best_latency_ms:.1f} ms (at 1024 points)")
    print(f"search time (virtual): {result.search_time_s / 3600:.2f} GPU-hours equivalent")

    dgcnn_latency = estimate_latency(dgcnn_workload(1024), device).total_ms
    print(f"DGCNN latency        : {dgcnn_latency:.1f} ms  -> speedup {dgcnn_latency / result.best_latency_ms:.1f}x")

    print("\nTraining the searched model and a DGCNN baseline for comparison ...")
    rng = np.random.default_rng(0)
    searched = DerivedModel(result.best_architecture, num_classes=train_set.num_classes, k=8, embed_dim=48)
    train_classifier(searched, train_set, epochs=6, batch_size=8, rng=rng)
    searched_acc = evaluate_classifier(searched, test_set).overall_accuracy

    baseline = DGCNN(DGCNNConfig(num_classes=train_set.num_classes, k=8, layer_dims=(24, 24, 48), embed_dim=48))
    train_classifier(baseline, train_set, epochs=6, batch_size=8, rng=rng)
    baseline_acc = evaluate_classifier(baseline, test_set).overall_accuracy

    print(f"searched model accuracy: {searched_acc:.3f}")
    print(f"DGCNN accuracy         : {baseline_acc:.3f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "jetson-tx2")
