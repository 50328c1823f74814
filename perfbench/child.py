"""Runs one benchmark op in a fresh interpreter.

Usage: PYTHONHASHSEED=0 python3 -S perfbench/child.py SPEC.json RESULT.json TRACE

The working directory is the op's own directory (goal and decider files
sit there). The child times `import diagforge.cli` (set-up), then times
the op: `diagforge.cli.main(argv)` or a short library session. Stdout is
captured in memory, with the time of its first write. With TRACE=1 the
public functions are wrapped first (spans.py) and the per-layer figures
go into the result. Checks that need the package run after the timed
part; the parent checks everything else. The result is RESULT.json plus
the stdout bytes in RESULT.json.out.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Capture:
    """A stdout stand-in that keeps the text and the first write's time."""

    def __init__(self, start):
        self.start = start
        self.first = None
        self.parts = []

    def write(self, text):
        if self.first is None and text:
            self.first = time.perf_counter() - self.start
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def run_index_of(spec):
    from diagforge import enumeration, kernel

    term = kernel.parse(spec["term"])
    print(enumeration.index_of(enumeration.Tier(spec["tier"]), term))
    return 0


def run_space(spec):
    from diagforge import kernel, spaces

    space = spaces.new_space(tuple(spec["probes"]))
    for text in spec["terms"]:
        space = spaces.absorb(space, kernel.parse(text))
    space = spaces.expand_domain(space, tuple(spec["expand"]))
    space = spaces.load_snapshot(json.loads(json.dumps(spaces.snapshot(space))))
    other = spaces.new_space(tuple(spec["other_probes"]))
    for text in spec["other_terms"]:
        other = spaces.absorb(other, kernel.parse(text))
    space = spaces.unify(space, other)
    print(json.dumps(spaces.export_summary(space)))
    return space


def after_index_of(spec, out):
    """program_at(index_of(t)) == t, checked outside the timed part."""
    from diagforge import enumeration, kernel

    index = int(out.strip())
    program = enumeration.program_at(enumeration.Tier(spec["tier"]), index)
    return {"roundtrip": program.term == kernel.parse(spec["term"])}


def after_space(space):
    from diagforge import spaces

    return {"snapshot": spaces.snapshot(space)}


def main():
    spec_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import diagforge.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(diagforge.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"diagforge imported from {diagforge.cli.__file__}, not from {SRC}")
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    real_stdout = sys.stdout
    start = time.perf_counter()
    capture = Capture(start)
    sys.stdout = capture
    error = None
    value = None
    try:
        if spec["kind"] == "cli":
            code = diagforge.cli.main(spec["argv"])
        elif spec["kind"] == "index_of":
            code = tracer.session(run_index_of, spec) if tracer else run_index_of(spec)
        else:
            value = tracer.session(run_space, spec) if tracer else run_space(spec)
            code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except BaseException:
        import traceback

        code = None
        error = traceback.format_exc()
    op_s = time.perf_counter() - start
    sys.stdout = real_stdout

    # Only now: the timed part keeps the interpreter's default limit.
    sys.set_int_max_str_digits(0)
    out = "".join(capture.parts)
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "first_out_s": capture.first,
        "exit": code,
        "error": error,
        "extra": {},
        "layers": None,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layers(out_bytes=len(out.encode()) if spec["kind"] == "cli" else 0)
    if error is None:
        try:
            if spec["kind"] == "index_of" and code == 0:
                result["extra"] = after_index_of(spec, out)
            elif spec["kind"] == "space" and value is not None:
                result["extra"] = after_space(value)
        except Exception:
            import traceback

            result["error"] = traceback.format_exc()
    with open(result_path + ".out", "w", encoding="utf-8") as handle:
        handle.write(out)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
    # Skip interpreter teardown: it costs about 40 ms per op and measures
    # nothing. Everything the child writes is closed by now.
    sys.stderr.flush()
    os._exit(0)
