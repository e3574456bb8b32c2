"""Train the GNN hardware-performance predictor for each device (paper Fig. 8).

Run with ``python examples/train_latency_predictor.py``.  Takes a couple of
minutes; increase ``NUM_SAMPLES`` / ``EPOCHS`` for better accuracy (the paper
uses 30K samples and 250 epochs).
"""

from repro.experiments import format_table
from repro.hardware import list_devices
from repro.nas import dgcnn_architecture, device_fast_architecture
from repro.workspace import Workspace

NUM_SAMPLES = 400
EPOCHS = 100


def main() -> None:
    rows = []
    bundles = {}
    for device in list_devices():
        print(f"Training latency predictor for {device} ({NUM_SAMPLES} sampled architectures) ...")
        bundle = Workspace(device=device).train_predictor(num_samples=NUM_SAMPLES, epochs=EPOCHS, seed=0)
        bundles[device] = bundle
        rows.append(
            {
                "device": device,
                "mape": round(bundle.metrics.mape, 3),
                "within_10pct": round(bundle.metrics.bound_accuracy_10, 3),
                "within_20pct": round(bundle.metrics.bound_accuracy_20, 3),
                "rank_corr": round(bundle.metrics.spearman, 3),
            }
        )
    print("\n== Predictor accuracy per device (paper Fig. 8) ==")
    print(format_table(rows))

    print("\n== Example predictions (rtx3080) ==")
    predictor = bundles["rtx3080"].predictor
    for arch in (dgcnn_architecture(), device_fast_architecture("rtx3080")):
        predicted = predictor.predict_latency_ms(arch)
        measured = Workspace(device="rtx3080").measure_latency(arch)
        print(f"{arch.name:10s} predicted {predicted:8.2f} ms   modelled {measured:8.2f} ms")


if __name__ == "__main__":
    main()
