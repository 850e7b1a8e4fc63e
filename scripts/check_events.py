#!/usr/bin/env python3
"""Schema checker for the structured event log (obs/event_log.hh).

    scripts/check_events.py events.jsonl

Validates that every line is a standalone JSON object with a known
"ev" kind and that each kind carries its required fields with the
right JSON types. CI runs this against the events.jsonl a bench
wrote with --obs events, so a malformed emitter fails fast instead of
producing a log nothing can parse.

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
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        errors.append(f"line {lineno}: not valid JSON: {e}")
        return
    if not isinstance(obj, dict):
        errors.append(f"line {lineno}: not a JSON object")
        return
    kind = obj.get("ev")
    if kind not in SCHEMA:
        errors.append(f"line {lineno}: unknown event kind {kind!r}")
        return
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


def check_file(path):
    errors = []
    count = 0
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                count += 1
                check_line(line, lineno, errors)
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
