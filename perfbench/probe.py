"""One fresh-interpreter start of the simulator, timed to readiness.

``run.py`` launches this several times per run to measure ``setup_s``:
import ``repro``, load the simulator backend and, with ``--jobs``, get
the sweep engine's worker pool ready. It prints one JSON line with
monotonic timestamps; the parent subtracts its own launch time.

    python perfbench/probe.py --backend fast
    python perfbench/probe.py --backend pure --jobs 2 --workdir DIR
"""

import argparse
import json
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("pure", "fast"), required=True)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--workdir", help="existing directory for the "
                        "pool check-in (required with --jobs)")
    args = parser.parse_args()

    begin = time.monotonic()
    import repro.experiments.harness  # noqa: F401
    from repro.sim.backend import make_simulator

    make_simulator(args.backend)
    if args.jobs:
        from repro.experiments import engine, figures  # noqa: F401
    imported = time.monotonic()
    if args.jobs:
        from worker import ready_pool, stop_workers

        ready_pool(engine.warm_pool(args.jobs), args.jobs, args.workdir)
    ready = time.monotonic()
    print(json.dumps({
        "import_s": imported - begin,
        "pool_ready_s": ready - imported if args.jobs else 0.0,
        "ready": ready,
    }))
    if args.jobs:
        stop_workers()


if __name__ == "__main__":
    main()
