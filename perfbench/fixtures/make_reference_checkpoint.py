"""Regenerate the reference checkpoint the logz workloads load.

Trains the acceptance suite's reference config (default trimodal target,
order-1 diagonal flow, 2+2 dims, hidden (64, 64, 64), batch 256, 20 steps,
Adam 1e-3, seed 0, 3000 epochs) and writes the checkpoint and its sha256
next to this file.  Takes about 6-7 minutes on one core.  Run from the
repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/fixtures/make_reference_checkpoint.py
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from verletflow import save_checkpoint, train  # noqa: E402
from verletflow.densities import default_trimodal  # noqa: E402
from verletflow.training import TrainConfig  # noqa: E402

REFERENCE_TRAIN = dict(
    epochs=3000, batch_size=256, steps=20, seed=0, hidden_sizes=(64, 64, 64)
)

if __name__ == "__main__":
    flow, rep = train(default_trimodal(), TrainConfig(**REFERENCE_TRAIN))
    if rep.diverged or rep.skipped_batches:
        sys.exit(f"reference training failed: {rep.diverged=} {rep.skipped_batches=}")
    path = HERE / "reference_checkpoint.txt"
    save_checkpoint(path, flow)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    (HERE / "reference_checkpoint.sha256").write_text(f"{digest}  {path.name}\n")
    print(f"NLL {rep.nll_per_epoch[0]:.4f} -> {rep.nll_per_epoch[-1]:.4f} "
          f"in {rep.wall_time:.0f} s; sha256 {digest}")
