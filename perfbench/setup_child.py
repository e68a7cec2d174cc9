"""Set-up as a fresh ``tvhazard`` process pays it, timed from inside.

Usage: python3 setup_child.py SRC_DIR OBSERVATIONS_FILE

Times ``import tvhazard`` (from SRC_DIR), ``read_observations`` and
``build_knot_set``, and prints one JSON line with the seconds taken, the
number of observations read and the number of knot intervals.
"""

import json
import sys
import time


def main():
    src, obs_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tvhazard

    observations, header = tvhazard.read_observations(obs_path)
    knots = tvhazard.build_knot_set(observations, horizon=header["horizon"])
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "n": len(observations),
                      "knot_intervals": knots.n_intervals}))


if __name__ == "__main__":
    main()
