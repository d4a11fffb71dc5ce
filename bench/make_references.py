"""Regenerate references.json: every workload request at twice its precision.

    python3 bench/make_references.py

Each request runs through the CLI at 2p bits.  Values are stored to
ceil(0.3 (p + 64)) digits, enough to measure agreement beyond p bits;
coefficients, forms and certificate fields are stored exactly.  Run it
only when the expected answers change, and never to make a check pass.
"""

import json
import math
import sys

import refcheck
from run import REFERENCES, call_cli, load_cli
from workloads import WORKLOADS, request_precision


def doubled(argv, precision):
    argv = list(argv)
    if "--precision" in argv:
        argv[argv.index("--precision") + 1] = str(2 * precision)
    else:
        argv += ["--precision", str(2 * precision)]
    return argv


def reference(cli, argv):
    precision = request_precision(argv)
    code, text = call_cli(cli, doubled(argv, precision))
    if code != 0:
        sys.exit(f"{refcheck.request_key(argv)} at {2 * precision} bits exited {code}")
    result = json.loads(text)["result"]
    digits = math.ceil(0.3 * (precision + 64))
    ctx = refcheck.mp_context(2 * precision + 64)

    def rounded(value):
        return refcheck.format_complex(refcheck.parse_complex(value, ctx), digits, ctx)

    def certificate():
        return {f: result["criterion"][f] for f in refcheck.CERTIFICATE_FIELDS}

    subcommand = argv[0]
    if subcommand == "forms":
        return {"forms": result["forms"]}
    if subcommand == "invariant":
        return {"value": rounded(result["value"])}
    if subcommand == "normal-basis":
        return {
            "criterion": certificate(),
            "values": {refcheck.conjugate_key(r): rounded(r["value"]) for r in result["conjugates"]},
        }
    return {"criterion": certificate(), "coefficients": result["coefficients"]}


def main():
    cli = load_cli()
    references = {}
    for workload in WORKLOADS.values():
        for argv in workload.requests:
            key = refcheck.request_key(argv)
            if key not in references:
                print(key, file=sys.stderr)
                references[key] = reference(cli, argv)
    REFERENCES.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
