"""Time one cold start of the command line, split into import and query.

    python3 perfbench/coldstart.py smith-group --n 12 --k 3 --ell 2 --json

(with `src` on PYTHONPATH) imports setsmith.cli, runs the given command
through its main(), and prints one JSON line: import_s, first_query_s,
the exit code and the command's output.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import setsmith.cli
    t1 = perf_counter()
    with redirect_stdout(io.StringIO()) as buf:
        code = setsmith.cli.main(sys.argv[1:])
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_query_s": t2 - t1,
                      "exit": code, "output": buf.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
