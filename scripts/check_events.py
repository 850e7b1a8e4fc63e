#!/usr/bin/env python3
"""Schema checker for the structured event log (obs/event_log.hh).

    scripts/check_events.py events.jsonl

Validates that every line is a standalone JSON object with a known
"ev" kind and that each kind carries its required fields with the
right JSON types, that "t" never steps back between a run_begin
and its run_end (a run keeps one time axis across its machine
resets), and that a run_end's "t" minus its run_begin's equals its
total_ticks (every phase, barriers included, moves the clock). CI
runs this against the events.jsonl a bench wrote with --obs events,
so a malformed emitter fails fast instead of producing a log nothing
can parse.

Exit status: 0 when every line validates, 1 on any violation, 2 on
bad input. --selftest exercises the checker against known-good and
known-bad lines.
"""

import argparse
import json
import sys

# kind -> {field: allowed JSON types}. Extra fields are errors too:
# the emitters write a fixed field set, so anything unexpected means
# an emitter and this schema have drifted apart.
NUM = (int, float)
STR = (str,)
BOOL = (bool,)
SCHEMA = {
    "run_begin": {"t": NUM, "mode": STR, "iters": NUM, "procs": NUM},
    "run_end": {"t": NUM, "mode": STR, "passed": BOOL,
                "infra_failed": BOOL, "total_ticks": NUM,
                "iters": NUM},
    "job_begin": {"job": NUM, "seed": STR},
    "job_end": {"job": NUM, "ok": BOOL, "error": STR},
    "abort": {"t": NUM, "elem": STR, "node": NUM, "iter": NUM,
              "reason": STR, "rule": STR},
    "sw_abort": {"t": NUM, "reason": STR},
    "fault": {"t": NUM, "kind": STR, "msg": STR, "src": NUM,
              "dst": NUM},
    "degrade": {"from": STR, "to": STR, "reason": STR},
    "checkpoint": {"t": NUM, "what": STR},
    "commit": {"t": NUM},
}

FAULT_KINDS = {"drop", "dup", "jitter", "lost"}


def check_line(line, lineno, errors):
    """Validate one line; its object, or None if it is invalid."""
    before = len(errors)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        errors.append(f"line {lineno}: not valid JSON: {e}")
        return None
    if not isinstance(obj, dict):
        errors.append(f"line {lineno}: not a JSON object")
        return None
    kind = obj.get("ev")
    if kind not in SCHEMA:
        errors.append(f"line {lineno}: unknown event kind {kind!r}")
        return None
    fields = SCHEMA[kind]
    for name, types in fields.items():
        if name not in obj:
            errors.append(f"line {lineno}: {kind} missing "
                          f"field {name!r}")
        elif not isinstance(obj[name], types) or \
                (types is NUM and isinstance(obj[name], bool)):
            errors.append(f"line {lineno}: {kind} field {name!r} has "
                          f"type {type(obj[name]).__name__}")
    for name in obj:
        if name != "ev" and name not in fields:
            errors.append(f"line {lineno}: {kind} has unexpected "
                          f"field {name!r}")
    if kind == "fault" and obj.get("kind") not in FAULT_KINDS:
        errors.append(f"line {lineno}: fault kind {obj.get('kind')!r} "
                      f"not in {sorted(FAULT_KINDS)}")
    return obj if len(errors) == before else None


def check_lines(lines, errors):
    """Validate every line and the run time axis; the line count."""
    count = 0
    run_t = None  # latest "t" of the open run; None outside a run
    begin_t = None  # the open run's run_begin "t"
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        count += 1
        obj = check_line(line, lineno, errors)
        if obj is None:
            continue
        kind = obj["ev"]
        if kind == "run_begin":
            run_t = begin_t = obj["t"]
        elif run_t is not None and "t" in obj:
            if obj["t"] < run_t:
                errors.append(f"line {lineno}: {kind} t {obj['t']} "
                              f"steps back from {run_t} inside a run")
            run_t = obj["t"]
        if kind == "run_end":
            if begin_t is not None and \
                    obj["t"] - begin_t != obj["total_ticks"]:
                errors.append(f"line {lineno}: run_end t {obj['t']} is "
                              f"{obj['t'] - begin_t} ticks after its "
                              f"run_begin, but total_ticks is "
                              f"{obj['total_ticks']}")
            run_t = begin_t = None
    return count


def check_file(path):
    errors = []
    try:
        with open(path) as f:
            count = check_lines(f, errors)
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    for err in errors:
        print(err, file=sys.stderr)
    print(f"{path}: {count} event lines, {len(errors)} violation(s)")
    return 1 if errors else 0


def selftest():
    good = [
        '{"ev":"run_begin","t":0,"mode":"HW","iters":64,"procs":8}',
        '{"ev":"run_end","t":9301,"mode":"HW","passed":true,'
        '"infra_failed":false,"total_ticks":9301,"iters":64}',
        '{"ev":"job_begin","job":3,"seed":"0x1a2b"}',
        '{"ev":"job_end","job":3,"ok":false,"error":"boom"}',
        '{"ev":"abort","t":302,"elem":"0x1a8","node":2,"iter":7,'
        '"reason":"flow dep","rule":"RAW"}',
        '{"ev":"sw_abort","t":10,"reason":"software LRPD test failed"}',
        '{"ev":"fault","t":5,"kind":"drop","msg":"ReadReq",'
        '"src":1,"dst":2}',
        '{"ev":"degrade","from":"HW","to":"SW","reason":"lost"}',
        '{"ev":"checkpoint","t":1,"what":"backup of shared arrays"}',
        '{"ev":"commit","t":99}',
    ]
    for line in good:
        errors = []
        check_line(line, 1, errors)
        assert not errors, f"good line rejected: {line}: {errors}"

    bad = [
        "not json",
        "[1,2,3]",
        '{"ev":"warp_core_breach","t":1}',
        '{"ev":"commit"}',                        # missing t
        '{"ev":"commit","t":"soon"}',             # wrong type
        '{"ev":"commit","t":1,"extra":true}',     # drifted field
        '{"ev":"fault","t":5,"kind":"gamma_ray","msg":"x",'
        '"src":1,"dst":2}',                       # unknown fault kind
        '{"ev":"run_end","t":1,"mode":"HW","passed":1,'
        '"infra_failed":false,"total_ticks":1,"iters":1}',  # bool as int
    ]
    for line in bad:
        errors = []
        check_line(line, 1, errors)
        assert errors, f"bad line accepted: {line}"

    # Two runs on one time axis each: the second run's machine starts
    # at 0 again, and lines outside a run carry no order.
    two_runs = [
        '{"ev":"job_begin","job":0,"seed":"0x1"}',
        '{"ev":"run_begin","t":0,"mode":"HW","iters":6,"procs":4}',
        '{"ev":"checkpoint","t":912,"what":"backup of shared arrays"}',
        '{"ev":"abort","t":1329,"elem":"0x1010","node":1,"iter":5,'
        '"reason":"r","rule":"x"}',
        '{"ev":"run_end","t":2665,"mode":"HW","passed":false,'
        '"infra_failed":false,"total_ticks":2665,"iters":4}',
        '{"ev":"degrade","from":"HW","to":"SW","reason":"failed"}',
        '{"ev":"run_begin","t":0,"mode":"SW","iters":6,"procs":4}',
        '{"ev":"commit","t":1954}',
        '{"ev":"run_end","t":1954,"mode":"SW","passed":true,'
        '"infra_failed":false,"total_ticks":1954,"iters":6}',
    ]
    errors = []
    assert check_lines(two_runs, errors) == len(two_runs) and not errors, \
        f"good log rejected: {errors}"
    # A run whose tick restarted at a machine reset: the abort at 417
    # follows a checkpoint at 912.
    stepped_back = list(two_runs)
    stepped_back[3] = stepped_back[3].replace('"t":1329', '"t":417')
    errors = []
    check_lines(stepped_back, errors)
    assert len(errors) == 1 and "steps back" in errors[0], \
        f"backward step not caught: {errors}"
    # A run whose clock fell behind its length: a barrier counted in
    # total_ticks that no event moved the clock past.
    short = list(two_runs)
    short[4] = short[4].replace('"t":2665', '"t":2365')
    errors = []
    check_lines(short, errors)
    assert len(errors) == 1 and "total_ticks is 2665" in errors[0], \
        f"short run_end not caught: {errors}"

    print("selftest: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("jsonl", nargs="?",
                    help="events.jsonl written with --obs events")
    ap.add_argument("--selftest", action="store_true",
                    help="validate the checker against known lines")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.jsonl:
        ap.error("jsonl path required (or --selftest)")
    return check_file(args.jsonl)


if __name__ == "__main__":
    sys.exit(main())
