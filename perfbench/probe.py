"""Set-up cost in a fresh process; run by `run.py`, one process per sample.

    python3 perfbench/probe.py setup SRC CONFIG...   import volflow, load and build
    python3 perfbench/probe.py scipy                  import scipy.integrate alone

Prints one JSON object of phase times in seconds.
"""

import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    if argv[0] == "scipy":
        import scipy.integrate  # noqa: F401
        print(json.dumps({"import_scipy_s": time.perf_counter() - t0}))
        return 0
    sys.path.insert(0, argv[1])
    from volflow.config import build_flow, build_volume, load_config
    t_import = time.perf_counter()
    cfgs = [load_config(path) for path in argv[2:]]
    t_load = time.perf_counter()
    flows = [build_flow(cfg) for cfg in cfgs]
    t_flow = time.perf_counter()
    for cfg, flow in zip(cfgs, flows):
        build_volume(cfg, flow)
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0,
                      "load_s": t_load - t_import, "build_flow_s": t_flow - t_load,
                      "build_volume_s": t_end - t_flow}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
