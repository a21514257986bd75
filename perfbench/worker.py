"""One benchmark process: import dualgeo, set up a fixture, optionally run one
CLI command, and write the measurements as JSON.

Usage: python3 worker.py '<spec JSON>'

The spec names the source tree (`src`), the fixture source, the command's
argv (or null for a set-up-only probe), whether to trace it, and where to
write the result and the spans.  Set-up is what the CLI does before any suite
runs: import the package, build the fixture and validate it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import dualgeo  # noqa: F401  (import time is part of set-up)
    from dualgeo import cli, fixtures

    source = spec["fixture"]
    if source in fixtures.builtin_names():
        failures = fixtures.validate(fixtures.builtin(source))
    else:
        fixtures.load(source)   # validates on load, raising on failure
        failures = []
    result = {"setup_s": time.perf_counter() - t0}
    if failures:
        result["error"] = f"fixture failed validation: {failures}"

    if spec["argv"] is not None and not failures:
        recorder = None
        if spec["trace"]:
            sys.path.insert(0, spec["bench"])
            import tracer
            recorder = tracer.install()
        t = time.perf_counter()
        result["exit_code"] = cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - t
        if recorder is not None:
            result["layers"] = recorder.summary()
            result["traced_root_s"] = recorder.root_seconds()
            result["spans"] = len(recorder.end)
            recorder.save(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
