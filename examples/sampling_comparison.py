"""Compare the five device-sampling strategies on one workload.

Reproduces a single-task slice of the paper's Figure 3: the same data,
trace and model initialization are shared across MACH, MACH-P, uniform,
class-balance and statistical sampling, and the time-to-target-accuracy
is reported per strategy, including the paper's headline "% of time
steps MACH saves versus the best basic sampler".

Run:  python examples/sampling_comparison.py [task]
      (task ∈ {mnist, fmnist, cifar10, blobs}; default blobs — the
       fastest; the image tasks take a few minutes each on CPU)
"""

import sys

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_comparison


def main() -> None:
    task = sys.argv[1] if len(sys.argv) > 1 else "blobs"
    preset = f"{task}-bench"
    if preset not in PRESETS:
        raise SystemExit(
            f"unknown task {task!r}; choose from mnist, fmnist, cifar10, blobs"
        )
    config = PRESETS[preset]
    print(
        f"running 5 samplers on {task}: {config.num_devices} devices, "
        f"{config.num_edges} edges, {config.num_steps} steps "
        f"(target accuracy {config.target_accuracy})"
    )
    report = run_comparison(config, repeats=1)
    print()
    print(report.render())
    print()
    for name in report.results:
        steps, acc = report.mean_accuracy_curve(name)
        tail = " ".join(f"{a:.2f}" for a in acc[-8:])
        print(f"{name:>14} final stretch: {tail}")


if __name__ == "__main__":
    main()
