"""Drive the experiment runner end to end from a config file.

Writes a small layer-sweep config, runs it through the same entry point
the ``reupqnn run`` command uses, and prints the aggregate rows of the
resulting CSV.  Re-running the script reproduces the file byte for byte.
"""

import tempfile
from pathlib import Path

from reupqnn.experiments import main

CONFIG = """\
dataset.kind = toy
dataset.pool_size = 200
dataset.m_train = 30
dataset.m_test = 60
optimizer.iterations = 200
optimizer.learning_rate = 0.1
optimizer.seeds = 0, 1, 2
sweep.axis = layers
sweep.values = 1, 2, 4
eval.interval = 200
"""

workdir = Path(tempfile.mkdtemp(prefix="reupqnn-demo-"))
cfg = workdir / "sweep.cfg"
out = workdir / "sweep.csv"
cfg.write_text(CONFIG, encoding="utf-8")

code = main(["run", "--config", str(cfg), "--out", str(out)])
print(f"exit code {code}\n")

lines = out.read_text(encoding="utf-8").splitlines()
header = lines[0].split(",")
keep = ["kind", "sweep_value", "seed", "iteration", "train_risk", "test_risk", "gap"]
cols = [header.index(k) for k in keep]
print("  ".join(f"{k:>11}" for k in keep))
for line in lines[1:]:
    row = line.split(",")
    if row[header.index("kind")] in ("mean", "std") and row[header.index("iteration")] == "200":
        print("  ".join(f"{row[c][:11]:>11}" for c in cols))

print(f"\nfull table: {out}")
print("the gap column tracks test minus train risk per sweep value; "
      "the std rows quantify the seed spread")
