#!/usr/bin/env python3
"""Self-test of soda-bench, on tiny inputs.

    python3 soda-bench/selftest.py

For every workload and both modes it asserts that the run is correct and
that every metric BENCHMARK.json names is emitted with its unit. Then it
runs every workload with --inject-wrong, which shifts every expected value,
and asserts that the run reports failures and exits non-zero: the checks
can fail.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s trace=%s printed nothing; stderr:\n%s"
                             % (workload, trace, p.stderr[-2000:]))
    return p.returncode, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    errors = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            before = len(errors)
            code, out = run(w, trace)
            if code != 0 or not out["correct"] or out["failed"] != 0:
                errors.append("%s trace=%d: exit %d, result %s"
                              % (w, trace, code, {k: out[k] for k in
                                                  ("correct", "attempted", "failed")}))
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                errors.append("%s trace=%d: missing %s, unexpected %s, wrong unit %s"
                              % (w, trace, missing, extra, wrong))
            print("ok " if len(errors) == before else "ERR", w, "trace=%d" % trace,
                  "attempted=%d" % out["attempted"])
        before = len(errors)
        code, out = run(w, 0, "--inject-wrong")
        if code == 0 or out["correct"] or out["failed"] == 0:
            errors.append("%s: a wrong expected value was not reported (exit %d, %s)"
                          % (w, code, out))
        print("ok " if len(errors) == before else "ERR", w, "inject-wrong: failed=%d of %d, exit %d"
              % (out["failed"], out["attempted"], code))
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
