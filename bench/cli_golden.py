"""Write the cli-oneshot problem files and their expected outputs.

    python3 bench/cli_golden.py

Writes bench/cli/problem-{n2,n3,n4}.json and bench/cli/golden.json, which
holds the exit status and the SHA-256 of stdout of every cli-oneshot case.
The CLI's stdout is byte-identical for identical inputs, so the digests
only change when the CLI's output changes; regenerate them only for a
change that is meant to alter the output.
"""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as F

import gen
import run


def problem_doc(inst, vectors, case):
    return {
        "n": inst.n,
        "J": [[str(x) for x in row] for row in inst.j],
        "E": [{"indices": [a + 1, b + 1, c + 1], "coeff": str(v)}
              for (a, b, c), v in sorted(inst.e3.items())],
        "B": [{"indices": [a + 1, b + 1], "coeff": str(v)} for (a, b), v in sorted(inst.b.items())],
        "vectors": {k: [str(x) for x in v] for k, v in vectors.items()},
        "case": case,
    }


def basis(dim, k, scale=1):
    return tuple(F(scale) if a == k else F(0) for a in range(dim))


def problems():
    # n = 2: the two-generator example E = 2 e123, with B = e12 / 2
    n2 = gen.Instance(2, gen.standard_j(2), {(0, 1, 2): F(2)}, b={(0, 1): F(1, 2)})
    n2_vectors = {"u": basis(4, 0, F(1, 2)), "v": basis(4, 1, F(1, 2)), "x": basis(4, 2, F(1, 2))}

    # n = 3: the type-compatible pattern; its (1,1) subgroup is spanned by
    # the first two complex coordinates
    rng = random.Random("cli:n3")
    n3 = gen.make_instance(rng, 3, None, [], [(0, 1, 2)])
    n3.b = {(0, 3): F(1, 3)}
    n3_vectors = {"u": basis(6, 0, F(1, 2)), "v": basis(6, 1), "x": basis(6, 2)}

    # n = 4: a block sum plus the pattern; vectors lie in its (1,1) kernel
    rng = random.Random("cli:n4")
    n4 = gen.make_instance(rng, 4, None, [(0, 1), (2, 3)], [(0, 1, 2)])
    kernel = gen.oneone_kernel(n4.e3, n4.j, n4.dim)
    u, v = (tuple(x / 2 for x in k) for k in kernel[:2])
    n4_vectors = {"u": u, "v": v, "x": tuple(a + b for a, b in zip(u, v))}
    return {
        "n2": problem_doc(n2, n2_vectors, "integral"),
        "n3": problem_doc(n3, n3_vectors, "oneone"),
        "n4": problem_doc(n4, n4_vectors, "oneone"),
    }


def main():
    run.CLI_DIR.mkdir(exist_ok=True)
    for name, doc in problems().items():
        path = run.CLI_DIR / f"problem-{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
    golden = {}
    for case_id, argv in run.cli_cases():
        proc = subprocess.run([sys.executable, "-m", run.PKG, *argv], cwd=run.ROOT,
                              env=run.child_env(), capture_output=True, timeout=300)
        golden[case_id] = {"status": proc.returncode,
                           "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        print(case_id, proc.returncode, proc.stderr.decode().strip(), file=sys.stderr)
    (run.CLI_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
