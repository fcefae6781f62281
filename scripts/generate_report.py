"""Regenerate every table/figure at bench scale and write the text reports.

One text report per paper artefact lands in ``output_dir``:

    python scripts/generate_report.py [output_dir]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments import get_experiment
from repro.experiments.config import resolve_scale

#: The CIFAR rows of Figure 5 run a reduced query sweep (3072-input
#: surrogates; the paper's finding there is a null result).
CIFAR_FIGURE5_SCALE = resolve_scale("bench").with_overrides(
    n_train=1500,
    n_test=300,
    n_runs=2,
    query_counts=(50, 200, 1000),
    power_loss_weights=(0.0, 0.01),
    surrogate_epochs=200,
)

#: (output file, experiment, scale, extra run() options)
REPORTS = (
    ("table1.txt", "table1", "bench", {}),
    ("figure3.txt", "figure3", "bench", {}),
    ("figure4.txt", "figure4", "bench", {}),
    (
        "figure5_mnist.txt",
        "figure5",
        "bench",
        {"rows": (("mnist-like", "label"), ("mnist-like", "raw"))},
    ),
    (
        "figure5_cifar.txt",
        "figure5",
        CIFAR_FIGURE5_SCALE,
        {"rows": (("cifar-like", "label"), ("cifar-like", "raw"))},
    ),
)


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    output_dir.mkdir(parents=True, exist_ok=True)

    for filename, name, scale, options in REPORTS:
        experiment = get_experiment(name)
        start = time.time()
        result = experiment.run(scale, **options)
        text = experiment.format_result(result)
        elapsed = time.time() - start
        path = output_dir / filename
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path}  ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
