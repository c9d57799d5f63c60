"""The fresh interpreter of :func:`common.in_child`.

Reads a pickled ``(function, args)`` from standard input, calls it through
:func:`common.run_in_child` and writes the pickled result to standard
output; anything the program prints goes to standard error instead.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from common import run_in_child  # noqa: E402


def main() -> int:
    warnings.simplefilter("error", DeprecationWarning)
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    function, args = pickle.load(sys.stdin.buffer)
    result = run_in_child(function, args)
    with result_out:
        pickle.dump(result, result_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
