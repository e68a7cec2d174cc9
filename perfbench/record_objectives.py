"""Store reference objectives for the benchmark's accuracy floor.

Usage (from the root of a checkout):

    python3 perfbench/record_objectives.py --workload campaign-sweep

For every dataset a run of the workload can draw (its pool and the
held-out seed's datasets) that is not stored yet, it makes the same fits as
one dataset pass of ``run.py`` (untimed) and merges their final penalized
objectives and iteration counts into ``objectives-<workload>.json``, keyed
by dataset seed.  A dataset stored without iteration counts gets them added;
its stored objectives must then come out the same.  Run it only on the code
whose objectives are the reference: the stored values are the floor every
later solver must reach, and the iteration counts balance the datasets a
run draws (see ``bench_workloads.dataset_seeds``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    run.pin_blas()
    run.import_tvhazard()
    import bench_workloads as bw

    workload = bw.WORKLOADS[args.workload]
    held_out = bw.dataset_seeds(workload, bw.HELD_OUT_SEED)
    workdir = bw.workdir_for(run.ROOT)
    try:
        for dataset_seed in workload.pool + tuple(held_out):
            stored = bw.load_seed_objectives(workload)
            old = stored.get(str(dataset_seed))
            if old is not None and "iterations" in old:
                continue
            record = bw.seed_objectives(bw.scenario(workload, dataset_seed), workdir)
            if old is not None and {k: record[k] for k in old} != old:
                raise SystemExit(f"error: dataset {dataset_seed}: the objectives differ from "
                                 "the stored ones; this is not the reference code")
            stored[str(dataset_seed)] = record
            path = bw.objectives_path(workload)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, path)
            print(f"{workload.name} dataset {dataset_seed}: {stored[str(dataset_seed)]['fit']!r}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
