"""Persistent per-(n, k) existence catalog with witnesses.

Layout on disk: a single tab-separated record file plus a witness
directory.  One line per (n, k): status is "exists", "nonexistent", or
"open"; exists records normally carry a witness file that re-verifies on
every load as a {0, +-1} CW (corrupt files, and files declaring a larger
coefficient bound, are quarantined, never silently dropped).
The catalog keeps the element of every witness it has verified, on load
or on write, and works from those elements rather than the files.
Records only ever get stronger: open cells may be settled, but a
settled cell never reopens, and an exists/nonexistent collision raises
an integrity alarm carrying both provenances.
"""

from __future__ import annotations

import importlib.resources
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

from . import constructions
from .groupring import (
    GroupRingElement,
    verify,
    witness_format,
    witness_parse,
    WitnessFormatError,
)

RECORD_FILE = "records.tsv"
WITNESS_DIR = "witnesses"
QUARANTINE_DIR = "quarantine"

STATUSES = ("exists", "nonexistent", "open")


class CatalogIntegrityError(Exception):
    """An upsert tried to flip exists <-> nonexistent."""


@dataclass(frozen=True)
class CatalogRecord:
    n: int
    k: int
    status: str
    witness: Optional[str]  # path relative to the catalog root
    provenance: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


# parameters settled by the margin analyses over multiplier orbits
HAND_PROOF_NONEXISTENT = (
    (110, 81),
    (130, 81),
    (143, 36),
    (143, 81),
    (154, 81),
)
# settled through an empty contracted integer-matrix search
CONTRACTED_NONEXISTENT = (
    (132, 81),
    (182, 64),
)
# settled by long exhaustive runs
EXHAUST_NONEXISTENT = (
    (144, 49),
    (152, 49),
    (160, 49),
    (104, 81),
    (160, 81),
)
# cells still open afterwards (34 previously open - 7 - 5 = 22)
OPEN_CASES = (
    (105, 36), (112, 36), (117, 36), (140, 36), (180, 36), (195, 36),
    (116, 49), (120, 49), (192, 49),
    (140, 64), (180, 64), (196, 64),
    (156, 81), (195, 81), (198, 81),
    (112, 100), (120, 100), (155, 100), (156, 100), (165, 100),
    (182, 100), (195, 100),
)
# the verdicts seeded from the tables above, as (cases, status, provenance)
SETTLED = (
    (HAND_PROOF_NONEXISTENT, "nonexistent", "margin analysis over multiplier orbits"),
    (CONTRACTED_NONEXISTENT, "nonexistent", "contracted integer search is empty"),
    (EXHAUST_NONEXISTENT, "nonexistent", "exhaustive orbit search (long run)"),
    (
        OPEN_CASES,
        "open",
        "remaining open case (34 prior - 7 margin proofs - 5 long exhausts = 22)",
    ),
)

BUNDLED_WITNESSES = ("cw7_4.cw", "cw13_9.cw", "cw26_9.cw", "cw63_16.cw")


class Catalog:
    def __init__(self, root: Path | str, n_max: int = 200, k_max: int = 100):
        self.root = Path(root)
        self.n_max = n_max
        self.k_max = k_max
        self.records: dict[tuple[int, int], CatalogRecord] = {}
        # the verified element behind every record that names a witness file
        self.witnesses: dict[tuple[int, int], GroupRingElement] = {}
        self.warnings: list[str] = []
        if (self.root / RECORD_FILE).exists():
            self._load()

    # ------------------------------------------------------------------ io

    def _load(self):
        for line in (self.root / RECORD_FILE).read_text().splitlines():
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                self.warnings.append(f"malformed record skipped: {line!r}")
                continue
            n, k, status, witness, provenance = fields
            try:
                rec = CatalogRecord(
                    int(n), int(k), status, None if witness == "-" else witness, provenance
                )
            except ValueError as exc:
                self.warnings.append(f"malformed record skipped ({exc}): {line!r}")
                continue
            if rec.status == "exists" and rec.witness is not None:
                rec = self._check_witness(rec)
            self.records[(rec.n, rec.k)] = rec

    def _check_witness(self, rec: CatalogRecord) -> CatalogRecord:
        path = self.root / rec.witness
        try:
            elem, k, bound = witness_parse(path.read_text())
            if bound != 1:
                raise WitnessFormatError(f"witness declares coefficient bound {bound}, not 1")
            if k != rec.k or elem.order != rec.n or not verify(elem, k):
                raise WitnessFormatError("witness does not verify against its record")
            self.witnesses[(rec.n, rec.k)] = elem
            return rec
        except (OSError, WitnessFormatError) as exc:
            qdir = self.root / WITNESS_DIR / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.rename(qdir / path.name)
            self.warnings.append(f"witness for ({rec.n},{rec.k}) quarantined: {exc}")
            return replace(
                rec, witness=None, provenance=rec.provenance + " [witness quarantined]"
            )

    def save(self):
        self.root.mkdir(parents=True, exist_ok=True)
        lines = []
        for (n, k) in sorted(self.records, key=lambda key: (key[1], key[0])):
            rec = self.records[(n, k)]
            lines.append(
                "\t".join(
                    (str(rec.n), str(rec.k), rec.status, rec.witness or "-", rec.provenance)
                )
            )
        # write a sibling file and rename it over the old one, so a failed
        # or interrupted write leaves the previous records intact
        tmp = self.root / (RECORD_FILE + ".tmp")
        try:
            with tmp.open("w") as fh:
                fh.write("\n".join(lines) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.root / RECORD_FILE)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # -------------------------------------------------------------- queries

    def status(self, n: int, k: int) -> str:
        rec = self.records.get((n, k))
        return rec.status if rec else "open"

    def record(self, n: int, k: int) -> Optional[CatalogRecord]:
        return self.records.get((n, k))

    def witness_element(self, n: int, k: int) -> Optional[GroupRingElement]:
        return self.witnesses.get((n, k))

    # -------------------------------------------------------------- updates

    def upsert(
        self, record: CatalogRecord, element: Optional[GroupRingElement] = None
    ) -> Optional[CatalogRecord]:
        """Insert or strengthen a record; returns the stored record, or
        None when the update was a forbidden downgrade (ignored).

        exists-records need a verifying witness element, which is written
        into the witness directory.  Provenance naming an external
        construction may stand in for a witness (imported theory results
        have none to offer).
        """
        old = self.records.get((record.n, record.k))
        if old is not None:
            ranked = {"open": 0, "exists": 1, "nonexistent": 1}
            if ranked[record.status] < ranked[old.status]:
                return None  # downgrade: ignore
            if {old.status, record.status} == {"exists", "nonexistent"}:
                raise CatalogIntegrityError(
                    f"({record.n},{record.k}): stored {old.status} [{old.provenance}] "
                    f"vs new {record.status} [{record.provenance}]"
                )
        if record.status == "exists":
            record = self._attach_witness(record, element)
        self.records[(record.n, record.k)] = record
        return record

    def _attach_witness(
        self, record: CatalogRecord, element: Optional[GroupRingElement]
    ) -> CatalogRecord:
        if element is not None:
            if element.order != record.n:
                raise ValueError("witness order does not match the record")
            if not verify(element, record.k):
                raise ValueError(
                    f"witness for ({record.n},{record.k}) fails verification; upsert blocked"
                )
            wdir = self.root / WITNESS_DIR
            wdir.mkdir(parents=True, exist_ok=True)
            name = f"{WITNESS_DIR}/cw{record.n}_{record.k}.cw"
            (self.root / name).write_text(witness_format(element, record.k))
            self.witnesses[(record.n, record.k)] = element
            return replace(record, witness=name)
        if record.witness is not None or "external" not in record.provenance:
            raise ValueError(
                f"exists record ({record.n},{record.k}) needs a witness "
                "or an external-construction provenance"
            )
        self.witnesses.pop((record.n, record.k), None)
        return record

    def import_dir(self, path: Path | str) -> list[CatalogRecord]:
        """Register every valid witness file found in a directory; a cell
        keeps the verified witness it already holds."""
        added = []
        for file in sorted(Path(path).glob("*.cw")):
            try:
                elem, k, _ = witness_parse(file.read_text())
                if (elem.order, k) in self.witnesses and verify(elem, k):
                    self.warnings.append(
                        f"{file.name}: ({elem.order},{k}) already has a verified witness; skipped"
                    )
                    continue
                rec = self.upsert(
                    CatalogRecord(elem.order, k, "exists", None, f"imported {file.name}"),
                    element=elem,
                )
            except ValueError as exc:  # a malformed file, or one that fails verification
                self.warnings.append(f"{file.name}: {exc}")
                continue
            if rec is not None:
                added.append(rec)
        return added

    # --------------------------------------------------------- constructions

    def close_under_constructions(self) -> list[CatalogRecord]:
        """Close the exists-set under multiples and coprime products,
        within the (n_max, k_max) window.  Idempotent.

        Each round tries the multiples, then the products, of the
        witnesses held when it starts, and builds a candidate only for a
        cell that is not yet exists."""
        added: list[CatalogRecord] = []
        while True:
            before = len(added)
            for n, k, provenance, build in self._candidates(sorted(self.witnesses.items())):
                if self.status(n, k) != "exists":
                    rec = CatalogRecord(n, k, "exists", None, provenance)
                    added.append(self.upsert(rec, element=build()))
            if len(added) == before:
                return added

    def _candidates(self, witnessed):
        """(n, k, provenance, builder) of every multiple, then every coprime
        product, of the given witnesses (sorted by (n, k)) within the window."""
        for (n, k), elem in witnessed:
            for d in range(2, self.n_max // n + 1):
                yield (
                    d * n, k, f"multiple of the ({n},{k}) witness",
                    partial(constructions.multiple, elem, d),
                )
        for idx, ((n1, k1), e1) in enumerate(witnessed):
            for (n2, k2), e2 in witnessed[idx + 1 :]:
                if n1 * n2 > self.n_max:
                    break  # witnessed is sorted by order, so every later n2 is too big
                if math.gcd(n1, n2) == 1 and k1 * k2 <= self.k_max:
                    yield (
                        n1 * n2, k1 * k2,
                        f"product of the ({n1},{k1}) and ({n2},{k2}) witnesses",
                        partial(constructions.kronecker, e1, e2),
                    )

    # ------------------------------------------------------------- rendering

    def render_table(self, n_max: Optional[int] = None, k_max: Optional[int] = None) -> str:
        """One row per s = sqrt(k): E = exists, - = nonexistent, ? = open."""
        n_max = self.n_max if n_max is None else n_max
        k_max = self.k_max if k_max is None else k_max
        if n_max < 1 or k_max < 1:
            raise ValueError(f"table bounds must be >= 1, got n_max={n_max}, k_max={k_max}")
        lines = ["existence by weight row (E exists, - nonexistent, ? open)"]
        tens = "".join(str((n // 10) % 10) if n % 10 == 0 else " " for n in range(1, n_max + 1))
        lines.append(" " * 7 + tens)
        symbol = {"exists": "E", "nonexistent": "-", "open": "?"}
        for s in range(1, math.isqrt(k_max) + 1):
            k = s * s
            row = "".join(symbol[self.status(n, k)] for n in range(1, n_max + 1))
            lines.append(f"k={k:>4} {row}")
        return "\n".join(lines) + "\n"


def bundled_witness(name: str) -> tuple[GroupRingElement, int, int]:
    text = (
        importlib.resources.files("cwm").joinpath("data", "witnesses", name).read_text()
    )
    return witness_parse(text)


def seed_known_results(root: Path | str, n_max: int = 200, k_max: int = 100) -> Catalog:
    """Fresh catalog holding the settled results: bundled witnesses, the
    nonexistence set, the remaining open cells, the parameters promised
    by the relative-difference-set family, and the closure of the
    witnessed cells under multiples and products."""
    cat = Catalog(root, n_max=n_max, k_max=k_max)
    for name in BUNDLED_WITNESSES:
        elem, k, _ = bundled_witness(name)
        cat.upsert(
            CatalogRecord(elem.order, k, "exists", None, f"bundled witness {name}"),
            element=elem,
        )
    for cases, status, provenance in SETTLED:
        for n, k in cases:
            cat.upsert(CatalogRecord(n, k, status, None, provenance))
    for n, k in constructions.rds_proper_parameters(9):
        if n <= n_max and k <= k_max and cat.status(n, k) != "exists":
            cat.upsert(
                CatalogRecord(
                    n, k, "exists", None,
                    "relative difference set family (external construction)",
                )
            )
    cat.close_under_constructions()
    cat.save()
    return cat
