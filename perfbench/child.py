"""One untraced suite execution in a fresh interpreter.

    python3 child.py SRC_DIR COMMAND SPEC_JSON WORKERS [--setup-only]

Runs ``enttest COMMAND --spec SPEC_JSON --check --workers WORKERS`` through
``enttest.cli.main`` and prints one JSON line: the monotonic clock when the
suite started (set-up ends there) and when it returned, the exit code, the
``CHECK FAIL`` lines, and the peak resident set of this process and of its
reaped pool workers.  The parent reads the suite's results.csv itself.
With ``--setup-only`` the suite returns as soon as it is called, so the
launch measures set-up alone.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(argv):
    src, command, spec_path, workers, *mode = argv
    setup_only = mode == ["--setup-only"]
    sys.path.insert(0, src)
    from enttest import cli

    stamps = {}
    run_experiment = cli.run_experiment

    def timed_run(spec, workers=None, check=False):
        stamps["ready"] = time.monotonic()
        if setup_only:
            stamps["end"] = stamps["ready"]
            return 0
        try:
            return run_experiment(spec, workers=workers, check=check)
        finally:
            stamps["end"] = time.monotonic()

    cli.run_experiment = timed_run
    out = io.StringIO()
    record = {}
    try:
        with contextlib.redirect_stdout(out):
            record["code"] = cli.main([command, "--spec", spec_path, "--check", "--workers", workers])
    except Exception:  # a trial raised: report it, the parent fails every cell
        record["error"] = traceback.format_exc()
    record.update(stamps)
    record["violations"] = [
        line[len("CHECK FAIL: "):] for line in out.getvalue().splitlines() if line.startswith("CHECK FAIL: ")
    ]
    record["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
