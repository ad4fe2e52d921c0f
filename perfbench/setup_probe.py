"""Time one set-up of the program in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CSV COLUMNS_JSON PRIOR_JSON

Set-up is importing ``poisbayes``, reading the CSV through
``io_cli.load_dataset`` and building the prior.  Only the standard library
is imported before the clock starts, so numpy's and scipy's import cost
counts as the program's.  Prints the elapsed seconds as one JSON object.
"""

import json
import sys
import time


def set_up(csv_path: str, columns: list, prior: dict):
    """Import the program, load the CSV and build the prior; returns
    (dataset, prior spec)."""
    import numpy as np
    from poisbayes.io_cli import ColumnSpec, load_dataset
    from poisbayes.model import GaussianPriorParams
    from poisbayes.samplers import FixedGaussianPrior, HorseshoePrior, tau_optimal

    data = load_dataset(csv_path, [ColumnSpec(**c) for c in columns])
    if prior["kind"] == "gaussian":
        return data, FixedGaussianPrior(
            GaussianPriorParams(np.zeros(data.p), prior["var"] * np.eye(data.p)))
    return data, HorseshoePrior(tau=tau_optimal(data.n, prior["p_n"]))


def main() -> None:
    t0 = time.perf_counter()
    set_up(sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3]))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
