"""One fresh-process start of reupqnn, as a user pays it per invocation.

Usage: setup_probe.py <src dir> <config path or '-'>

Imports the package, then parses the config and loads its sample pool
(the fixed costs before the first SGD step).  With '-' it builds a small
circuit and observable instead, as the comb workload starts.  run.py
times this script from spawn to exit.
"""

import os
import sys

src, config = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

import reupqnn  # noqa: E402
from reupqnn import ansatz, experiments, qcore  # noqa: E402

if not os.path.abspath(reupqnn.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"reupqnn imported from {reupqnn.__file__}, not from {src}")
if config == "-":
    ansatz.build_circuit(1, 4, 1, 1)
    qcore.z_observable(2)
else:
    experiments.load_pool(experiments.parse_config(config))
