"""Structured results for the verification suite.

A Check is one verdict with machine-readable evidence; a Report is an
ordered list of checks plus the convention record the run was made
under.  Exit-code policy: any fail gives 1, otherwise any inconclusive
gives 3, otherwise 0.  Usage errors are the caller's problem (2).
"""

import json
from json.encoder import encode_basestring_ascii
from math import isfinite

VERDICTS = ("pass", "fail", "inconclusive")


class Check:
    def __init__(self, id, anchor, verdict, evidence=None):
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        self.id = str(id)
        self.anchor = str(anchor)
        self.verdict = verdict
        self.evidence = evidence if evidence is not None else {}

    def to_json(self):
        return {"id": self.id, "anchor": self.anchor,
                "verdict": self.verdict, "evidence": self.evidence}

    def __repr__(self):
        return f"Check({self.id!r}, {self.verdict!r})"


class Report:
    def __init__(self, checks, conventions):
        self.checks = list(checks)
        self.conventions = dict(conventions)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks],
                "conventions": self.conventions}

    def dumps(self):
        return dumps_json(self.to_json())

    def exit_code(self):
        verdicts = {c.verdict for c in self.checks}
        if "fail" in verdicts:
            return 1
        if "inconclusive" in verdicts:
            return 3
        return 0

    def counts(self):
        out = {v: 0 for v in VERDICTS}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def render(self):
        lines = []
        width = max((len(c.id) for c in self.checks), default=4)
        for c in self.checks:
            lines.append(f"{c.verdict.upper():12s} {c.id:{width}s}  {c.anchor}")
            if c.verdict != "pass" and c.evidence:
                blob = json.dumps(c.evidence, default=str)
                if len(blob) > 300:
                    blob = blob[:297] + "..."
                lines.append(f"{'':12s} {'':{width}s}  {blob}")
        n = self.counts()
        lines.append(f"{n['pass']} passed, {n['fail']} failed, "
                     f"{n['inconclusive']} inconclusive")
        return "\n".join(lines)


def dumps_json(obj, indent="\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True, default=str).

    An indent makes json.dumps drop its C encoder.  Here strings go
    through json's C string encoder, rows of plain ints are joined in C,
    and lists, tuples and dicts with string keys are laid out as json lays
    them out; anything else goes to json.dumps.  An int past Python's
    4,300-digit limit raises ValueError, as in json.dumps.  indent is the
    line break and indentation of the level obj sits at.
    """
    t, inner = type(obj), indent + "  "
    sep = "," + inner
    if (t is list or t is tuple) and obj:
        items = (map(int.__repr__, obj) if {*map(type, obj)} == {int}
                 else [dumps_json(x, inner) for x in obj])
        return f"[{inner}{sep.join(items)}{indent}]"
    if t is dict and obj and {*map(type, obj)} == {str}:
        items = [f"{encode_basestring_ascii(k)}: {dumps_json(v, inner)}"
                 for k, v in sorted(obj.items())]
        return f"{{{inner}{sep.join(items)}{indent}}}"
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is float and isfinite(obj):
        return float.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=str).replace("\n", indent)
