"""Command-line front end.

Subcommands: setsys build|verify, tokens gen|test, deal, reconstruct,
verify, simulate.  All output is canonical JSON on stdout.  Exit codes:
0 ok, 2 validation error, 3 protocol failure (unauthorized, corrupted or
violated), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys


from . import serial
from .numt import Modulus
from .rng import named_stream
from .setsys import build_grolmusz_system, merge_systems, verify_restricted_intersections
from .sim import SimulationConfig, run_simulation
from .tokens import combine_tokens, encode_access_structure, membership_test, read_token
from .vss import (
    HeaderUnavailableError,
    Secret,
    ShareBundle,
    ShareCorruptionError,
    UnauthorizedError,
    VssError,
    VssParams,
    deal,
    reconstruct,
    serialize_bundles,
    verify_shares,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROTOCOL = 3
EXIT_IO = 4


class ProtocolFailure(Exception):
    def __init__(self, doc):
        super().__init__(str(doc))
        self.doc = doc


def _emit(args, kind: str, payload) -> None:
    if getattr(args, "quiet", False):
        return
    sys.stdout.write(serial.serialize(kind, payload).decode())


def _parse_subset(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_gamma0(text: str) -> list[tuple[int, ...]]:
    return [_parse_subset(part) for part in text.split(";") if part.strip()]


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _write(path: str, blob: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


class IOFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands


def cmd_setsys_build(args) -> int:
    if args.t < 2:
        raise ValueError("need t >= 2")
    system = merge_systems(build_grolmusz_system(Modulus.of(args.m), args.n), args.l)
    payload = serial.set_system_doc(system)
    payload["t"] = args.t
    payload["l"] = args.l
    _write(args.out, serial.serialize("set-system", payload))
    _emit(args, "empty-report", {
        "built": args.out, "sets": len(system), "universe": system.universe_size})
    return EXIT_OK


def cmd_setsys_verify(args) -> int:
    payload = serial.deserialize(_read(args.file), "set-system")
    system = serial.doc_set_system(payload)
    payload.update({name: value for name, value in (("t", args.t), ("l", args.l))
                    if value is not None})
    t = serial.read_int(payload.get("t", 3), "t", 2)
    # l may be absent, but a null l is no integer
    l = serial.read_int(payload["l"], "l", 2) if "l" in payload else None
    report = verify_restricted_intersections(system, t=t, l=l,
                                             samples=args.samples, seed=args.seed)
    _emit(args, "intersection-report", report.to_doc())
    return EXIT_OK if report.ok else EXIT_PROTOCOL


def cmd_tokens_gen(args) -> int:
    rng = named_stream(args.seed, "cli", "tokens", args.parties, args.omega)
    instance = encode_access_structure(args.parties, _parse_subset(args.omega), rng)
    payload = {
        "instance_id": instance.instance_id,
        "parties": instance.party_count,
        "tokens": {str(p): sorted(instance.token_for(p))
                   for p in range(1, instance.party_count + 1)},
    }
    _write(args.out, serial.serialize("token-instance", payload))
    _emit(args, "empty-report", {"written": args.out, "parties": args.parties})
    return EXIT_OK


def cmd_tokens_test(args) -> int:
    payload = serial.deserialize(_read(args.file), "token-instance")
    subset = _parse_subset(args.subset)
    serial.read_fields(payload, "token file", ("instance_id", "parties", "tokens"))
    if not isinstance(payload["instance_id"], str):
        raise serial.SerializationError("instance_id must be a string")
    parties = serial.read_int(payload["parties"], "parties", 1)
    # lazy names, so a huge parties builds no huge set of them
    tokens = serial.read_fields(payload["tokens"], "tokens",
                                map(str, range(1, parties + 1)))
    read = {int(p): read_token(token) for p, token in tokens.items()}
    if not subset or any(p not in read for p in subset):
        raise ValueError("subset must name parties present in the token file")
    ok = membership_test(combine_tokens([read[p] for p in subset]))
    _emit(args, "empty-report", {"subset": list(subset), "authorized": ok})
    return EXIT_OK if ok else EXIT_PROTOCOL


def _vss_params(args) -> VssParams:
    return VssParams.desk(p=args.p, q_bits=args.q_bits, n=args.n)


def cmd_deal(args) -> int:
    params = _vss_params(args)
    secret = Secret(args.secret, args.p)
    bundles = deal(secret, _parse_gamma0(args.gamma0), args.parties, params,
                   seed=args.seed)
    blobs = serialize_bundles(bundles)
    import os

    os.makedirs(args.outdir, exist_ok=True)
    paths = []
    for bundle, blob in zip(bundles, blobs):
        path = os.path.join(args.outdir, f"share_{bundle.party:03d}.json")
        _write(path, blob)
        paths.append(path)
    _emit(args, "empty-report",
          {"shares": paths, "bytes_each": len(blobs[0])})
    return EXIT_OK


def _load_bundles(spec: str) -> list[ShareBundle]:
    paths = [p for p in spec.split(",") if p.strip()]
    if not paths:
        raise ValueError("no share files given")
    bundles = []
    for path in paths:
        payload = serial.deserialize(_read(path), "share-bundle")
        bundles.append(ShareBundle.from_doc(payload))
    return bundles


def cmd_reconstruct(args) -> int:
    bundles = _load_bundles(args.shares)
    try:
        secret = reconstruct(bundles)
    except UnauthorizedError:
        raise ProtocolFailure({"outcome": "unauthorized"})
    except ShareCorruptionError:
        raise ProtocolFailure({"outcome": "corrupt"})
    _emit(args, "reconstruction", {"secret": secret.k, "p": secret.p})
    return EXIT_OK


def cmd_verify(args) -> int:
    bundles = _load_bundles(args.shares)
    secret = Secret(args.secret, bundles[0].params.lwe.p)
    try:
        verdicts = verify_shares(bundles, secret)
    except HeaderUnavailableError:
        raise ProtocolFailure({"outcome": "header-unavailable"})
    _emit(args, "verdict-map", {str(k): v for k, v in sorted(verdicts.items())})
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        secret_k=args.secret, parties=args.parties,
        gamma0=tuple(_parse_gamma0(args.gamma0)),
        coalition=_parse_subset(args.coalition) if args.coalition else (),
        malicious=args.malicious, mode=args.mode, trials=args.trials,
        seed=args.seed, params=_vss_params(args),
    )
    report = run_simulation(config)
    blob = serial.serialize("sim-report", report.to_doc())
    if args.out:
        _write(args.out, blob)
    if not args.quiet:
        sys.stdout.write(serial.serialize("sim-report", {
            "totals": report.totals, "config": report.config}).decode())
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="veilshare", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    top.add_argument("--quiet", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    ss = sub.add_parser("setsys").add_subparsers(dest="action", required=True)
    b = ss.add_parser("build")
    b.add_argument("--m", type=int, default=15)
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--l", type=int, default=2)
    b.add_argument("--t", type=int, default=3)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_setsys_build)
    v = ss.add_parser("verify")
    v.add_argument("file")
    v.add_argument("--t", type=int, default=None)
    v.add_argument("--l", type=int, default=None)
    v.add_argument("--samples", type=int, default=10**6)
    v.set_defaults(func=cmd_setsys_verify)

    tk = sub.add_parser("tokens").add_subparsers(dest="action", required=True)
    g = tk.add_parser("gen")
    g.add_argument("--parties", type=int, required=True)
    g.add_argument("--omega", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_tokens_gen)
    t = tk.add_parser("test")
    t.add_argument("file")
    t.add_argument("--subset", required=True)
    t.set_defaults(func=cmd_tokens_test)

    def add_lwe_flags(p):
        p.add_argument("--p", type=int, default=31)
        p.add_argument("--q-bits", type=int, default=30)
        p.add_argument("--n", type=int, default=4)

    d = sub.add_parser("deal")
    d.add_argument("--secret", type=int, required=True)
    d.add_argument("--gamma0", required=True, help='e.g. "1,2,3;2,4,5"')
    d.add_argument("--parties", type=int, required=True)
    d.add_argument("--outdir", required=True)
    add_lwe_flags(d)
    d.set_defaults(func=cmd_deal)

    r = sub.add_parser("reconstruct")
    r.add_argument("--shares", required=True, help="comma-separated share files")
    r.set_defaults(func=cmd_reconstruct)

    ver = sub.add_parser("verify")
    ver.add_argument("--shares", required=True)
    ver.add_argument("--secret", type=int, required=True)
    ver.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate")
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--malicious", type=int, default=1)
    s.add_argument("--mode", choices=["encoding", "bitflip", "token"],
                   default="encoding")
    s.add_argument("--parties", type=int, default=5)
    s.add_argument("--gamma0", default="1,2,3")
    s.add_argument("--coalition", default="")
    s.add_argument("--secret", type=int, default=3)
    s.add_argument("--out", default="")
    add_lwe_flags(s)
    s.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ProtocolFailure as exc:
        if not args.quiet:
            sys.stdout.write(serial.serialize("empty-report", exc.doc).decode())
        return EXIT_PROTOCOL
    except IOFailure as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except (VssError, ValueError) as exc:
        sys.stderr.write(f"invalid: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
