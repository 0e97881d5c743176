#!/usr/bin/env python3
"""Independently re-verify a separation certificate document.

Standalone on purpose: no imports from the apfree package, so this
checker shares no code with the producer. It parses the key/value
document, re-derives every integer with big-integer arithmetic, checks
the decimal renderings against exact power brackets, and confirms the
verdict.

Exit status: 0 sound and separated, 1 sound but not separated,
2 unsound or unreadable.

Usage: python scripts/check_certificate.py CERT_FILE
"""

import sys

REQUIRED = (
    "m_low", "t_low", "n_low", "theta_low", "lower_radicand", "lower_root",
    "lower_decimal", "m_high", "t_high", "n_high", "theta_high",
    "upper_radicand", "upper_root", "upper_decimal", "lhs", "rhs", "separated",
)


def unsound(msg):
    print(f"UNSOUND: {msg}")
    sys.exit(2)


def parse(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        unsound(f"cannot read {path}: {exc}")
    if not lines or lines[0].strip() != "separation-certificate v1":
        unsound("missing 'separation-certificate v1' header")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            unsound(f"not a 'key: value' line: {line!r}")
        fields[key.strip()] = value.strip()
    for key in REQUIRED:
        if key not in fields:
            unsound(f"missing field {key!r}")
    return fields


def to_int(text):
    """int(text), also for a digit string past the interpreter's limit on
    int/str conversion (4300 digits by default), which is parsed in halves."""
    try:
        return int(text)
    except ValueError:
        if not (text.isascii() and text.isdigit()):
            raise
    k = len(text) // 2
    return to_int(text[:-k]) * 10 ** k + to_int(text[-k:])


def decimal_within_ulp(text, radicand, root):
    """Exact bracket check that `text` is radicand^(1/root) within one
    unit in its last printed place."""
    if "." not in text:
        return False
    whole, frac = text.split(".", 1)
    if not whole.isdigit() or not frac.isdigit():
        return False
    digits = len(frac)
    scaled = to_int(whole + frac)
    target = radicand * 10 ** (root * digits)
    return max(scaled - 1, 0) ** root <= target <= (scaled + 1) ** root


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    f = parse(argv[1])
    try:
        ints = {key: to_int(f[key]) for key in REQUIRED
                if key not in ("separated", "lower_decimal", "upper_decimal")}
    except ValueError as exc:
        unsound(f"non-integer field: {exc}")
    if f["separated"] not in ("true", "false"):
        unsound("separated must be 'true' or 'false'")

    if ints["n_low"] != ints["m_low"] * 2 ** ints["t_low"]:
        unsound("n_low != m_low * 2^t_low")
    if ints["n_high"] != ints["m_high"] * 2 ** ints["t_high"]:
        unsound("n_high != m_high * 2^t_high")
    if ints["lower_root"] != ints["n_low"] or ints["upper_root"] != ints["n_high"]:
        unsound("root fields disagree with n fields")
    if ints["lower_radicand"] != 2 * ints["theta_low"]:
        unsound("lower_radicand != 2 * theta_low")
    if ints["upper_radicand"] != 21 * ints["theta_high"]:
        unsound("upper_radicand != 21 * theta_high")
    if ints["lhs"] != ints["lower_radicand"] ** ints["upper_root"]:
        unsound("lhs != lower_radicand ^ upper_root")
    if ints["rhs"] != ints["upper_radicand"] ** ints["lower_root"]:
        unsound("rhs != upper_radicand ^ lower_root")
    separated = ints["lhs"] > ints["rhs"]
    if separated != (f["separated"] == "true"):
        unsound("separated flag disagrees with the integer comparison")
    if not decimal_within_ulp(f["lower_decimal"], ints["lower_radicand"],
                              ints["lower_root"]):
        unsound("lower_decimal fails its power bracket")
    if not decimal_within_ulp(f["upper_decimal"], ints["upper_radicand"],
                              ints["upper_root"]):
        unsound("upper_decimal fails its power bracket")

    if separated:
        print(f"SOUND: limit({ints['m_low']}) >= {f['lower_decimal']} > "
              f"{f['upper_decimal']} >= limit({ints['m_high']}): separated")
        return 0
    print("SOUND: certificate is internally consistent but does not separate")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
