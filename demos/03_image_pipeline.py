"""End-to-end image experiment through the command-line interface.

A smooth synthetic 128x128 grayscale image is observed by two sensors, each
applying an elementwise (Hadamard) random mask plus noise. The even columns
serve as training data; the compressors are then applied to the whole image.
The run emits a convergence trace (CSV), the deployable network description
(JSON), and reconstruction / error-map images (PGM).

Run:  python3 demos/03_image_pipeline.py
"""

import json
import os
import tempfile

import numpy as np

from kltmbi import save_pgm
from kltmbi.cli import main

work = tempfile.mkdtemp(prefix="kltmbi-demo-")

# A smooth low-frequency image, so neighboring columns are correlated and
# compressors trained on the even columns generalize to the odd ones.
u = np.linspace(0.0, 4.0 * np.pi, 128)
image = 0.5 + 0.25 * np.outer(np.sin(u), np.cos(u)) + 0.2 * np.outer(
    np.cos(0.5 * u), np.sin(0.3 * u)
)
image_path = os.path.join(work, "source.pgm")
save_pgm(np.clip(image, 0.0, 1.0), image_path)

config = {
    "scenario": {
        "kind": "image",
        "m": 128,
        "n": [128, 128],
        "r": [32, 32],
        "sigmas": [0.2, 0.1],
        "seed": 5,
        "image_path": image_path,
    },
    "mbi": {"epsilon": 1e-8, "max_iterations": 100},
    "outputs": {
        "trace_csv": os.path.join(work, "trace.csv"),
        "wsn_json": os.path.join(work, "network.json"),
        "image_out_dir": work,
    },
    "report_baseline": True,
}
config_path = os.path.join(work, "config.json")
with open(config_path, "w") as fh:
    json.dump(config, fh, indent=2)

print(f"workspace: {work}\n")
code = main(["validate", "--config", config_path])
assert code == 0

print("\nrunning the pipeline ...")
code = main(["run", "--config", config_path])
assert code == 0

print("\nartifacts:")
for name in sorted(os.listdir(work)):
    print(f"  {os.path.join(work, name)}")
