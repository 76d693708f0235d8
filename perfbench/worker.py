"""One round of a workload in a fresh process.

Set-up is the import of critfield plus writing the round's YAML configs; it
ends right before the first timed call.  Each config then goes through
critfield.cli.main as a user's `critfield --config ...` would, and the
outputs are checked after the timed call.  The result, with the process's
peak resident memory, is written as JSON to <round-dir>/result.json.

Run by run.py, which sets the thread caps before this process starts:

    python3 perfbench/worker.py --workload clt-m2 --seed 1 --round-dir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round-dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import yaml

    import critfield.cli as cli
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    ops = workload.ops(args.seed)
    args.round_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, op in enumerate(ops):
        path = args.round_dir / f"{k}-{op.name}.yaml"
        path.write_text(yaml.safe_dump(op.config, sort_keys=False))
        paths.append(path)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "ops": [], "spans": []}
    if args.setup_only:
        _write(args.round_dir, result)
        return 0

    tracer = None
    main_fn = cli.main
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.workload)
        tracer.install()
        main_fn = lambda argv: tracer.call("cli.main", cli.main, argv)  # noqa: E731

    for k, (op, path) in enumerate(zip(ops, paths)):
        out = args.round_dir / f"{k}-{op.name}"
        argv = ["--config", str(path), "--out", str(out), "--force"]
        row = {"name": op.name}
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main_fn(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            rc, row["error"] = None, traceback.format_exc()
        row["wall_s"] = time.perf_counter() - t
        row["exit"] = rc
        row.update(ok=False, realizations=0, fingerprint="",
                   notes=["FAIL: crashed" if rc is None else f"FAIL: exit code {rc}"])
        if rc == 0:
            try:
                verdict, done, fingerprint = workload.check(op, out, refs)
            except Exception:  # unreadable outputs fail the operation
                row["notes"] = ["FAIL: outputs unreadable", traceback.format_exc()]
            else:
                row.update(ok=verdict.ok, realizations=done, fingerprint=fingerprint,
                           notes=verdict.notes)
        result["ops"].append(row)

    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
    _write(args.round_dir, result)
    return 0


def _write(round_dir: Path, result: dict) -> None:
    (round_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
