"""Render a schema-2 book as schema 1, independently of realbook.

Schema 1 is schema 2 with two derived tables on every curve: `pairings`
(the page form J times the curve's class) and `arc_pairings` (the dot of
the class with each reference-arc row, in sorted boundary order).  The
tables are computed here by dense products over the JSON itself, and the
text is rendered as schema-1 writers rendered it (indent 2, sorted keys).
"""

import json


def dot(row, vec):
    return sum(r * x for r, x in zip(row, vec))


def as_schema1(text: str) -> str:
    obj = json.loads(text)
    obj["schema"] = 1
    form = obj["page"]["form"]
    rows = [arc["pairings"] for arc in sorted(obj["ref_arcs"], key=lambda a: a["boundary"])]
    for curve in obj["alphabet"]:
        cls = curve["h1_class"]
        curve["pairings"] = [dot(row, cls) for row in form]
        curve["arc_pairings"] = [dot(row, cls) for row in rows]
    return json.dumps(obj, indent=2, sort_keys=True)
