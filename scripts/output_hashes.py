#!/usr/bin/env python3
"""Print one sha256 per benchmark workload of what its operations return.

For each seed, the ``features``, ``grid`` and ``krr`` workloads of
perfbench/workloads.py are run once on their own inputs and specs, and the
bytes of every output array, in operation order, are hashed together.  Two
checkouts whose lines agree compute the same bits.  Run from anywhere; the
checkout this script lives in is the one measured:

    python3 scripts/output_hashes.py --seeds 24301 7
"""

import argparse
import hashlib
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# one BLAS thread, as the benchmark pins it, so reductions run in one order
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import kernelbasis as kb  # noqa: E402
import workloads as w  # noqa: E402


def outputs(name: str, seed: int):
    """The arrays the workload's operations return, in order."""
    if name == "features":
        x = w.features_points(seed)
        for spec in w.FEATURE_SPECS.values():
            yield kb.features(spec, x)
    elif name == "grid":
        T, U = np.meshgrid(*w.grid_axes(seed), indexing="ij")
        for call in w.grid_calls(T, U).values():
            yield call()
    else:
        train_x, train_y, test_x = w.krr_inputs(seed)
        yield kb.krr_fit_predict(w.KRR_SPEC, train_x, train_y, w.KRR_RIDGE, test_x)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0x5EED],
                        help="default: the benchmark's seed, 0x5EED = 24301")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name in w.WORKLOADS:
            digest = hashlib.sha256()
            for arr in outputs(name, seed):
                digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
            print(f"{digest.hexdigest()}  {name} seed={seed}")


if __name__ == "__main__":
    main()
