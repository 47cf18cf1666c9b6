"""One traced `blowlab` CLI stage, for the traced pipeline-n3 pass.

    python3 benchmark/stage.py --layers-out layers.json -- solve \
        --config cases.cfg --jobs 1 --out out

Times the import of blowlab.cli, installs the tracer, runs the stage
through `blowlab.cli.main` (the console script's entry point) and writes
the stage's per-layer figures to --layers-out.  Exits with the stage's
exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    layers_out = argv[argv.index("--layers-out") + 1]
    t0 = time.perf_counter()
    from blowlab import cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[split + 1:])
    finally:
        layers = tracer.layers()
        layers["cli.import_s"] = import_s
        with open(layers_out, "w") as fh:
            json.dump(layers, fh)


if __name__ == "__main__":
    sys.exit(main())
