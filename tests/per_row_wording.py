"""The frozen per-row parser's messages in ``model.row_fault``'s wording.

``per_row_csv`` stays as it was frozen. Its faults differ from today's only in
wording: it shows a non-finite impact factor's cell text where ``row_fault``
shows the float (``got 'NaN'`` against ``got nan``), and it follows an
integer past the float range with its digit count. ``reworded`` changes
those two tails and nothing else, so the fault, the field and the line a
message names stay the frozen parser's.
"""

import re

_NON_FINITE = re.compile(r"(must be finite, got )'([^']*)'$")
_DIGITS = re.compile(r"(exceeds the float range \(about 1\.8e308\)), got a \d+-digit integer$")


def reworded(message):
    message = _NON_FINITE.sub(lambda m: f"{m[1]}{float(m[2])!r}", message)
    return _DIGITS.sub(r"\1", message)
