"""Set one workload up in a fresh process and say when it is ready.

    python3 perfbench/setup_probe.py atm-figures|tcp-figures SEED
    python3 perfbench/setup_probe.py fuzz-campaign TASK_ID...

Does what a run does before its first operation: imports, the scenario
registry, the workload's specs (for ``fuzz-campaign``, the generator's
specs for the given scenario ids, which the caller draws), the source
index and every spec's fingerprint, and for ``fuzz-campaign`` a started
pool with one worker per CPU.  Prints ``ready`` at that point, then
cleans up and exits.
"""

from __future__ import annotations

import sys

from common import NPROC, prepare, require_program


def main(workload: str, args: list[str]) -> int:
    require_program()
    if workload == "fuzz-campaign":
        import campaign
        specs = campaign.specs_for(args)
    else:
        import figures
        specs = figures.ordered_specs(workload.split("-")[0], int(args[0]))
    prepare(specs)
    if workload != "fuzz-campaign":
        print("ready", flush=True)
        return 0

    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # the same pool run_tasks starts: fork workers, one per job
    with ProcessPoolExecutor(max_workers=NPROC,
                             mp_context=get_context("fork")) as pool:
        list(pool.map(abs, range(NPROC)))
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
