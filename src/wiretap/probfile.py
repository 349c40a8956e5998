"""Problem-file serialization.

JSON schema (complex scalars are [re, im] pairs):

    {
      "N": 3, "K": 2, "J": 1,
      "N0": 1.0,
      "epsilon": 0.1,
      "P_T": {"value": 12.0, "unit": "dB"},      # or "linear"
      "H": [ [[..row of [re,im]..], ...], ... ],  # K matrices, N x N
      "Z": [ ... ],                               # J matrices
      "csi_mode": "statistical"                   # optional; or
                  {"perfect_users": [[...], ...]} # K vectors of [re,im]
      "alphabet": "bpsk"                          # optional; or [[re,im], ...]
    }

dB-to-linear conversion happens here and only here; the solver core is
unit-clean linear throughout.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .model import STATISTICAL, CsiMode, WiretapProblem, perfect_users


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending field."""


def _number(raw, where: str) -> float:
    # float("1.0") and float(True) would both pass: a JSON number is an int
    # that is not a bool, or a float.
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ProblemFileError(f"{where}: expected a JSON number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError as exc:
        raise ProblemFileError(f"{where}: expected a number: {exc}") from exc


def _complex_from_pair(pair, where: str) -> complex:
    """The one reader of a JSON complex number: a list of exactly two numbers."""
    # A two-character string would unpack as a pair of one-digit numbers.
    if not isinstance(pair, list) or len(pair) != 2:
        raise ProblemFileError(f"{where}: expected an [re, im] pair of numbers, got {pair!r}")
    c = complex(_number(pair[0], where), _number(pair[1], where))
    # JSON's NaN and Infinity parse; the covariance ingestion would reject them.
    if not cmath.isfinite(c):
        raise ProblemFileError(f"{where}: entries must be finite, got {pair!r}")
    return c


def _list(entry, where: str) -> list:
    if not isinstance(entry, list):
        raise ProblemFileError(f"{where}: expected a list, got {entry!r}")
    return entry


def _matrix(entry, n: int, where: str) -> np.ndarray:
    if len(_list(entry, where)) != n:
        raise ProblemFileError(f"{where}: expected {n} rows, got {len(entry)}")
    rows = []
    for i, row in enumerate(entry):
        if len(_list(row, f"{where} row {i}")) != n:
            raise ProblemFileError(f"{where} row {i}: expected {n} entries, got {len(row)}")
        rows.append([_complex_from_pair(c, f"{where}[{i}]") for c in row])
    return np.array(rows, dtype=np.complex128)


def _vector(entry, n: int, where: str) -> np.ndarray:
    if len(_list(entry, where)) != n:
        raise ProblemFileError(f"{where}: expected {n} entries, got {len(entry)}")
    return np.array([_complex_from_pair(c, where) for c in entry], dtype=np.complex128)


def _count(raw, where: str) -> int:
    # int("3") and int(3.7) would both pass, and a JSON true is an int.
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ProblemFileError(f"{where}: expected a JSON integer, got {raw!r}")
    return raw


def _power_linear(raw) -> float:
    if isinstance(raw, dict):
        if "value" not in raw:
            raise ProblemFileError(f"P_T: malformed power entry {raw!r}")
        value, unit = _number(raw["value"], "P_T value"), str(raw.get("unit", "linear"))
        if unit == "dB":
            try:
                return 10.0 ** (value / 10.0)
            except OverflowError as exc:
                raise ProblemFileError(f"P_T: {value} dB is out of range") from exc
        if unit == "linear":
            return value
        raise ProblemFileError(f"P_T: unknown unit {unit!r} (use 'linear' or 'dB')")
    return _number(raw, "P_T")


@dataclass(frozen=True)
class ProblemFile:
    problem: WiretapProblem
    csi_mode: CsiMode
    alphabet: object | None   # built-in name (str) or list of [re, im] pairs


def parse_problem(doc: dict) -> ProblemFile:
    for field in ("N", "K", "J", "N0", "epsilon", "P_T", "H", "Z"):
        if field not in doc:
            raise ProblemFileError(f"missing required field {field!r}")
    n, k, j = (_count(doc[field], field) for field in ("N", "K", "J"))
    for field, count in (("H", k), ("Z", j)):
        if len(_list(doc[field], field)) != count:
            raise ProblemFileError(f"{field}: expected {count} matrices, got {len(doc[field])}")
    h = tuple(_matrix(m, n, f"H[{i}]") for i, m in enumerate(doc["H"]))
    z = tuple(_matrix(m, n, f"Z[{i}]") for i, m in enumerate(doc["Z"]))
    problem = WiretapProblem(H=h, Z=z, N0=_number(doc["N0"], "N0"),
                             epsilon=_number(doc["epsilon"], "epsilon"),
                             P_T=_power_linear(doc["P_T"]))

    mode_raw = doc.get("csi_mode", "statistical")
    if mode_raw == "statistical":
        mode = STATISTICAL
    elif isinstance(mode_raw, dict) and "perfect_users" in mode_raw:
        vecs = mode_raw["perfect_users"]
        if len(_list(vecs, "csi_mode.perfect_users")) != k:
            raise ProblemFileError(f"csi_mode.perfect_users: expected {k} vectors")
        mode = perfect_users([_vector(v, n, f"perfect_users[{i}]") for i, v in enumerate(vecs)])
    else:
        raise ProblemFileError(f"csi_mode: unrecognized value {mode_raw!r}")
    return ProblemFile(problem=problem, csi_mode=mode, alphabet=doc.get("alphabet"))


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must contain a JSON object")
    return parse_problem(doc)


def _pair(c: complex) -> list:
    return [float(np.real(c)), float(np.imag(c))]


def _pairs(vec) -> list:
    return [_pair(c) for c in vec]


def _mat_pairs(mat) -> list:
    return [_pairs(row) for row in mat]


def to_doc(p: WiretapProblem, csi_mode: CsiMode = STATISTICAL, alphabet=None) -> dict:
    doc = {
        "N": p.N,
        "K": p.K,
        "J": p.J,
        "N0": p.N0,
        "epsilon": p.epsilon,
        "P_T": {"value": p.P_T, "unit": "linear"},
        "H": [_mat_pairs(m) for m in p.H],
        "Z": [_mat_pairs(m) for m in p.Z],
    }
    if not csi_mode.is_statistical:
        doc["csi_mode"] = {"perfect_users": [_pairs(v) for v in csi_mode.user_channels]}
    if alphabet is not None:
        doc["alphabet"] = alphabet
    return doc


def save_problem(path: str, p: WiretapProblem, csi_mode: CsiMode = STATISTICAL,
                 alphabet=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_doc(p, csi_mode, alphabet), fh, indent=2, sort_keys=True)
        fh.write("\n")
