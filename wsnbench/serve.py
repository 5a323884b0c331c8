"""Run ``repro-wsn serve`` with the benchmark's hooks installed.

Usage: ``python3 wsnbench/serve.py --dump OUT.json [--trace] -- serve ARGS``

Every job's progress reports (the ``on_chunk`` calls the worker pool
makes at durable chunk boundaries) are recorded; with ``--trace`` the
layer wrappers of :mod:`tracer` are installed as well.  When the serve
drains and returns (SIGTERM), both are written to ``OUT.json``.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import repro.service.worker as worker
    from repro.cli import main as cli_main
    from tracer import Tracer, install_layers, layer_summary

    tracer = Tracer()
    if args.trace:
        install_layers(tracer, serve=True)
        tracer.active = True

    progress = []
    execute = worker.execute_job

    def execute_job(store, job, **kwargs):
        reports = []
        progress.append(reports)
        pool_hook = kwargs.get("on_chunk")

        def on_chunk(done, total):
            reports.append(done)
            if pool_hook is not None:
                pool_hook(done, total)

        kwargs["on_chunk"] = on_chunk
        return execute(store, job, **kwargs)

    worker.execute_job = execute_job
    code = cli_main(serve_args)
    tracer.active = False
    Path(args.dump).write_text(
        json.dumps({"progress": progress, "layers": layer_summary(tracer)})
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
