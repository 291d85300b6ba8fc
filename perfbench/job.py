"""Run one evoalg CLI job in this fresh process, optionally traced.

    python3 perfbench/job.py PEAK_RSS_FILE [--trace SPANS_FILE] -- [evoalg argv]

Imports ``evoalg`` from the ``src`` directory of this checkout, calls
``evoalg.cli.main`` with the argv and exits with its return code; with an
empty argv the job only imports ``evoalg.cli``, a cold start of the CLI.
With ``--trace`` the per-layer wrappers of ``tracing.py`` are installed first
and the spans are written to SPANS_FILE when main returns. On the way out the
process writes its peak resident set size in KiB (VmHWM) to PEAK_RSS_FILE.
That high-water mark belongs to this process's own address space; the
ru_maxrss that wait4 reports would also carry the parent's peak across fork
and exec.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_kib() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, job_argv = argv[:sep], argv[sep + 1:]
    rss_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    try:
        sys.path.insert(0, SRC)
        import evoalg.cli

        if not os.path.abspath(evoalg.cli.__file__).startswith(SRC + os.sep):
            sys.exit(f"imported evoalg from {evoalg.cli.__file__}, not from {SRC}")
        tracer = None
        if trace_path is not None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            return evoalg.cli.main(job_argv) if job_argv else 0
        finally:
            sys.stdout.flush()
            if tracer is not None:
                tracer.dump(trace_path)
    finally:
        with open(rss_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
