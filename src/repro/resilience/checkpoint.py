"""Level-granular checkpoint/resume for the long-running lattice searches.

The search algorithms are level-synchronous: at the end of every completed
unit of work — an Incognito iteration (one a-priori subset size), a
bottom-up lattice height, a binary-search probe — the algorithm's entire
progress is describable as plain data (which nodes survived or were
marked, the boundary frequency sets children still roll up from, the run's
counters).  :class:`CheckpointStore` persists exactly that snapshot after
each unit, atomically (write-temp-fsync-rename, see
:mod:`repro.resilience.atomicio`), so a killed run can be resumed with
``--resume`` and *never re-does a completed level* — completed levels are
replayed from the snapshot (pure graph work, no table scans), and their
counters are restored rather than recomputed.

A checkpoint is only trusted when its header matches the run asking to
resume: same algorithm, same ``k`` / suppression budget, and the same
*content* fingerprint of the prepared table (the in-memory
``cache_fingerprint`` is identity-based and so useless across processes —
:func:`problem_fingerprint` hashes the encoded columns and hierarchy
shapes instead).  A mismatched or missing file simply means "start
fresh"; a torn file cannot exist by construction.

Fixed-signature callers (the bench harness's algorithm table, the CLI's
figure sweeps) opt in through a region default: :func:`use_checkpoints`
installs a directory, and every checkpoint-aware algorithm derives its own
store file from its algorithm tag, ``k``, and the problem fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.resilience.atomicio import atomic_write_json

if TYPE_CHECKING:  # typing only: keep the core <-> resilience cycle lazy
    from repro.core.problem import PreparedTable
    from repro.lattice.node import LatticeNode

#: Schema version of the checkpoint files.
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be parsed."""


class ChainMismatchWarning(UserWarning):
    """A version-chained checkpoint diverged from the live dataset.

    Emitted (never raised) when an incremental session finds that some
    suffix of its persisted fingerprint chain no longer matches the data —
    the session falls back to the longest valid prefix, and the warning
    names exactly which delta diverged (see :meth:`ChainMatch.describe`).
    """


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def problem_fingerprint(problem: "PreparedTable") -> str:
    """Content hash of the prepared data, stable across processes.

    Covers the quasi-identifier (names and order), every hierarchy's level
    structure, and the dictionary-encoded column data — i.e. everything a
    frequency set depends on.  Two processes preparing the same CSV with
    the same spec produce the same fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr((problem.quasi_identifier, problem.num_rows)).encode())
    for name in problem.quasi_identifier:
        hierarchy = problem.hierarchy(name)
        shape = tuple(
            hierarchy.cardinality(level)
            for level in range(hierarchy.height + 1)
        )
        digest.update(repr((name, shape)).encode())
        codes = problem.table.column(name).codes
        digest.update(np.ascontiguousarray(codes).tobytes())
    return digest.hexdigest()


def segment_fingerprint(
    problem: "PreparedTable", start: int, stop: int
) -> str:
    """Content hash of the quasi-identifier data in rows ``[start, stop)``.

    The chain element for one appended delta of a versioned dataset.
    Chain-stable by construction: dictionary encoding appends new values
    *after* the existing codes (``Column.concat``), so the codes of rows
    already in the table never change when later deltas arrive — the same
    slice hashed at any later version yields the same digest.  Unlike
    :func:`problem_fingerprint` it deliberately excludes the hierarchy
    shapes, which *do* grow as deltas introduce new values; the base
    segment of a chain uses the full :func:`problem_fingerprint` instead.
    """
    digest = hashlib.sha256()
    digest.update(
        repr((problem.quasi_identifier, int(start), int(stop))).encode()
    )
    for name in problem.quasi_identifier:
        codes = problem.table.column(name).codes[start:stop]
        digest.update(np.ascontiguousarray(codes).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ChainMatch:
    """Outcome of validating a stored version chain against the live one.

    ``matched`` counts the leading chain elements (base fingerprint plus
    ordered delta fingerprints) that agree; everything derived from those
    segments — persisted delta pieces covering at most
    ``offsets[matched]`` rows — remains reusable.  When a mid-chain
    element disagrees, ``diverged_index`` pinpoints it (0 is the base
    segment, i >= 1 is delta i) together with both fingerprints, so the
    operator learns *which* append no longer matches instead of silently
    losing the whole checkpoint.
    """

    matched: int
    stored: int
    expected: int
    diverged_index: int | None = None
    expected_fingerprint: str | None = None
    found_fingerprint: str | None = None

    @property
    def full(self) -> bool:
        """Whether the stored chain covers the live chain exactly."""
        return (
            self.diverged_index is None
            and self.matched == self.expected
            and self.stored == self.expected
        )

    def describe(self) -> str:
        if self.diverged_index is not None:
            which = (
                "the base segment"
                if self.diverged_index == 0
                else f"delta {self.diverged_index}"
            )
            return (
                f"checkpoint version chain diverged at {which}: expected "
                f"{self.expected_fingerprint}, found "
                f"{self.found_fingerprint}; falling back to the longest "
                f"valid prefix ({self.matched} of {self.expected} "
                f"segment(s))"
            )
        if self.full:
            return (
                f"checkpoint version chain matches all "
                f"{self.expected} segment(s)"
            )
        if self.stored > self.expected:
            return (
                f"checkpoint version chain holds {self.stored} segments "
                f"but the dataset has only {self.expected}; reusing the "
                f"{self.matched} that match"
            )
        return (
            f"checkpoint version chain covers {self.matched} of "
            f"{self.expected} segment(s); the rest will be computed fresh"
        )


def match_chain(
    stored: Sequence[str], expected: Sequence[str]
) -> ChainMatch:
    """Longest-common-prefix comparison of two fingerprint chains."""
    stored = [str(item) for item in stored]
    expected = [str(item) for item in expected]
    for index in range(min(len(stored), len(expected))):
        if stored[index] != expected[index]:
            return ChainMatch(
                matched=index,
                stored=len(stored),
                expected=len(expected),
                diverged_index=index,
                expected_fingerprint=expected[index],
                found_fingerprint=stored[index],
            )
    return ChainMatch(
        matched=min(len(stored), len(expected)),
        stored=len(stored),
        expected=len(expected),
    )


def node_to_json(node: "LatticeNode") -> dict[str, Any]:
    return {"a": list(node.attributes), "l": list(node.levels)}


def node_from_json(data: dict[str, Any]) -> "LatticeNode":
    from repro.lattice.node import LatticeNode

    return LatticeNode(tuple(data["a"]), tuple(int(x) for x in data["l"]))


def nodes_to_json(nodes) -> list[dict[str, Any]]:
    return [node_to_json(node) for node in nodes]


def nodes_from_json(items) -> list["LatticeNode"]:
    return [node_from_json(item) for item in items]


def check_survivors(state: dict[str, Any], heights: Mapping[str, int]) -> None:
    """Raise :class:`CheckpointError` unless an Incognito state fits a problem.

    ``heights`` maps each quasi-identifier attribute to its hierarchy
    height.  ``iterations_done`` must be an int in ``[1, |QI|]`` with its
    own survivor list, and ``completed`` must hold exactly at ``|QI|``.
    Every survivor stored under size key ``s`` must name ``s`` distinct
    quasi-identifier attributes, each at an int level in ``[0, height]``.
    A resume from anything else would build the next candidate graph from
    nodes this problem does not have.
    """
    done = state.get("iterations_done")
    if type(done) is not int or not 1 <= done <= len(heights):
        raise CheckpointError(
            f"iterations_done {done!r} is outside [1, {len(heights)}]"
        )
    if bool(state.get("completed")) != (done == len(heights)):
        raise CheckpointError(f"completed disagrees with iterations_done {done}")
    by_size = state.get("survivors_by_size")
    if not isinstance(by_size, dict) or str(done) not in by_size:
        raise CheckpointError(f"no survivors stored for iteration {done}")
    for size, items in by_size.items():
        try:
            expected = int(size)
            for item in items:
                names, levels = item["a"], item["l"]
                if not len(names) == len(levels) == len(set(names)) == expected:
                    raise CheckpointError(
                        f"survivor {item!r} is not a node over {size} attributes"
                    )
                for name, level in zip(names, levels):
                    if (
                        name not in heights
                        or type(level) is not int
                        or not 0 <= level <= heights[name]
                    ):
                        raise CheckpointError(
                            f"survivor {item!r} puts {name!r} at level "
                            f"{level!r}, outside this problem's lattice"
                        )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed survivors of size {size!r}: {exc!r}"
            ) from None


def frequency_set_to_json(frequency_set) -> dict[str, Any]:
    """JSON-encode one frequency set (node + raw code/count arrays).

    Only used for *boundary* sets — the handful of per-level rollup
    sources the next level still needs — never whole caches, so the
    plain-list encoding stays small.
    """
    return {
        "node": node_to_json(frequency_set.node),
        "key_codes": frequency_set.key_codes.tolist(),
        "counts": frequency_set.counts.tolist(),
    }


def _integer_array(values: Any, what: str) -> np.ndarray:
    """``values`` as an int64 array; :class:`CheckpointError` if not integers."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nested lists
        raise CheckpointError(f"{what} are not a rectangular array: {exc}") from None
    if array.size == 0:
        return array.astype(np.int64)
    if array.dtype.kind not in "iu":
        raise CheckpointError(f"{what} are not integers (dtype {array.dtype})")
    return array.astype(np.int64)


def validated_frequency_arrays(
    problem: "PreparedTable",
    node: "LatticeNode",
    key_codes: Any,
    counts: Any,
    covered_rows: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a persisted frequency set's arrays, or raise :class:`CheckpointError`.

    The one check behind every frequency set read back from disk (run
    checkpoints and incremental chain pieces).  It requires a
    ``(groups, node.size)`` key matrix, every code inside its column's
    level domain ``[0, cardinality)``, ``groups`` counts of at least 1
    each, and, for a chain piece covering ``covered_rows`` rows, counts
    summing to exactly that.  A set that passes merges and rolls up like
    a freshly scanned one; one that fails would silently move counts
    between groups.
    """
    from repro.relational.column import CODE_DTYPE

    keys = _integer_array(key_codes, "key codes")
    counts_array = _integer_array(counts, "counts")
    size = len(node.attributes)
    if keys.size == 0:
        keys = keys.reshape(0, size)
    if keys.ndim != 2 or keys.shape[1] != size:
        raise CheckpointError(
            f"key codes of shape {keys.shape} do not fit {size}-attribute "
            f"node {node}"
        )
    if counts_array.shape != (keys.shape[0],):
        raise CheckpointError(
            f"{counts_array.size} counts for {keys.shape[0]} groups at {node}"
        )
    for position, (attribute, level) in enumerate(node.items()):
        try:
            hierarchy = problem.hierarchy(attribute)
        except KeyError:
            raise CheckpointError(
                f"{node} names {attribute!r}, not a quasi-identifier attribute"
            ) from None
        if level > hierarchy.height:
            raise CheckpointError(
                f"{node} puts {attribute!r} at level {level}, above its "
                f"height {hierarchy.height}"
            )
        column = keys[:, position]
        cardinality = hierarchy.cardinality(level)
        if column.size and (column.min() < 0 or column.max() >= cardinality):
            raise CheckpointError(
                f"{attribute!r} codes at {node} leave the level-{level} "
                f"domain [0, {cardinality})"
            )
    if counts_array.size and counts_array.min() < 1:
        raise CheckpointError(f"a group count at {node} is below 1")
    if covered_rows is not None and int(counts_array.sum()) != covered_rows:
        raise CheckpointError(
            f"counts at {node} sum to {int(counts_array.sum())}, the piece "
            f"covers {covered_rows} rows"
        )
    return keys.astype(CODE_DTYPE), counts_array


def frequency_set_from_json(data: dict[str, Any], problem):
    """Rebuild a frequency set persisted with :func:`frequency_set_to_json`.

    Raises :class:`CheckpointError` when the persisted arrays do not form
    a valid frequency set of ``problem`` (see
    :func:`validated_frequency_arrays`).
    """
    from repro.core.anonymity import FrequencySet

    try:
        node = node_from_json(data["node"])
        raw_keys, raw_counts = data["key_codes"], data["counts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed frequency set: {exc!r}") from None
    key_codes, counts = validated_frequency_arrays(
        problem, node, raw_keys, raw_counts
    )
    return FrequencySet(node, key_codes, counts, problem)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
#: Internal sentinel: a checkpoint file exists but cannot be trusted.
_CORRUPT = object()


def _header_matches(state: dict[str, Any], header: dict[str, Any]) -> bool:
    return all(state.get(key) == expected for key, expected in header.items())


class CheckpointStore:
    """Atomic persistence of one search's level-granular progress.

    Corruption is survived, not raised: ``atomic_write_json`` makes a
    torn *write* impossible on POSIX-atomic filesystems, but power loss
    mid-rename on filesystems without atomic replacement, bit rot, or a
    stray editor can still leave an unparseable file.  :meth:`load`
    detects that, **quarantines** the bad file (renamed with a
    ``.quarantined`` suffix so the evidence survives for inspection) and
    falls back to the *previous* level's snapshot — :meth:`save` rotates
    the outgoing checkpoint to a ``.prev`` sibling before writing the new
    one — so a resumable run loses at most one level of progress instead
    of crashing at startup.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Number of successful saves performed through this store.
        self.saves = 0
        #: Files quarantined by :meth:`load` (empty in healthy runs).
        self.quarantined: list[Path] = []
        #: True when the last load served the rotated previous snapshot.
        self.fell_back = False

    @property
    def previous_path(self) -> Path:
        """Where :meth:`save` rotates the outgoing snapshot."""
        return self.path.with_name(self.path.name + ".prev")

    def load(
        self, validate: Callable[[dict[str, Any]], None] | None = None
    ) -> dict[str, Any] | None:
        """The persisted state, or None when no usable checkpoint exists.

        A corrupt current file is quarantined and the previous level's
        rotated snapshot is served instead; if that is also missing or
        corrupt, the result is None — "start fresh", never an exception.
        A file counts as corrupt when it does not parse, or when
        ``validate`` raises :class:`CheckpointError` on its state.
        """
        self.fell_back = False
        state = self._read_state(self.path, validate)
        if state is _CORRUPT:
            self._quarantine(self.path)
            state = self._read_state(self.previous_path, validate)
            if state is _CORRUPT:
                self._quarantine(self.previous_path)
                state = None
            elif state is not None:
                self.fell_back = True
        return state  # type: ignore[return-value]

    def _read_state(
        self, path: Path, validate: Callable[[dict[str, Any]], None] | None
    ):
        """Parse one checkpoint file: dict, None (absent), or _CORRUPT."""
        try:
            text = path.read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            state = json.loads(text)
        except json.JSONDecodeError:
            return _CORRUPT
        if not isinstance(state, dict):
            return _CORRUPT
        if validate is not None:
            try:
                validate(state)
            except CheckpointError:
                return _CORRUPT
        return state

    def _quarantine(self, path: Path) -> None:
        """Move a bad file aside (never deleted: it is evidence)."""
        target = path.with_name(path.name + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            return
        self.quarantined.append(target)

    def load_matching(
        self,
        header: dict[str, Any],
        validate: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any] | None:
        """The state if every ``header`` field matches, else None.

        A header mismatch (different algorithm, k, fingerprint, or format)
        is not an error — it means the checkpoint belongs to a different
        run and the caller should start fresh (the next save overwrites).
        ``validate`` runs on a matching state only; raising
        :class:`CheckpointError` there makes :meth:`load` treat the file
        as corrupt (quarantine, then ``.prev``).
        """

        def check(state: dict[str, Any]) -> None:
            if validate is not None and _header_matches(state, header):
                validate(state)

        state = self.load(check)
        if state is None or not _header_matches(state, header):
            return None
        return state

    def load_chain(
        self, header: dict[str, Any], chain: Sequence[str]
    ) -> tuple[dict[str, Any] | None, ChainMatch | None]:
        """Chain-aware load: the state plus how much of its chain is valid.

        Non-chain ``header`` fields (algorithm, k, format, ...) behave
        like :meth:`load_matching` — any mismatch means "different run,
        start fresh" and returns ``(None, None)``.  The stored ``"chain"``
        list, however, is *diffed* against the live ``chain`` rather than
        discarded on inequality: the returned :class:`ChainMatch` reports
        the longest matching prefix and, on divergence, exactly which
        segment disagrees with which fingerprints — so a caller can keep
        every piece of state derived from the still-valid prefix instead
        of silently throwing the whole checkpoint away.
        """
        state = self.load()
        if state is None or not _header_matches(state, header):
            return None, None
        stored = state.get("chain")
        if not isinstance(stored, list):
            raise CheckpointError(
                f"checkpoint {self.path} carries no version chain; "
                f"delete it to start fresh"
            )
        return state, match_chain(stored, chain)

    def save(self, state: dict[str, Any]) -> None:
        """Atomically persist ``state``, rotating the old snapshot aside.

        The outgoing checkpoint becomes ``<name>.prev`` *before* the new
        one is written, so there is always a one-level-older fallback for
        :meth:`load` to quarantine-recover into.  A crash between the
        rotate and the write leaves only ``.prev`` — a resume then redoes
        exactly one level, which is the degradation contract.
        """
        try:
            self.path.replace(self.previous_path)
        except OSError:
            pass  # first save, or rotation impossible — never blocks saving
        atomic_write_json(self.path, state)
        self.saves += 1

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)
        self.previous_path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.path)!r}, saves={self.saves})"


# ----------------------------------------------------------------------
# region default (fixed-signature callers: bench table, figure sweeps)
# ----------------------------------------------------------------------
_default_dir: Path | None = None
_default_resume: bool = False


def set_default_checkpoints(
    directory: str | Path | None, resume: bool = False
) -> tuple[Path | None, bool]:
    """Install a region-default checkpoint directory; returns the previous."""
    global _default_dir, _default_resume
    previous = (_default_dir, _default_resume)
    _default_dir = Path(directory) if directory is not None else None
    _default_resume = bool(resume)
    return previous


@contextmanager
def use_checkpoints(
    directory: str | Path | None, resume: bool = False
) -> Iterator[Path | None]:
    """Temporarily install a region-default checkpoint directory."""
    previous = set_default_checkpoints(directory, resume)
    try:
        yield _default_dir
    finally:
        set_default_checkpoints(previous[0], previous[1])


def resolve_checkpoint(
    tag: str, problem: "PreparedTable", k: int
) -> tuple[CheckpointStore | None, bool]:
    """The region-default store for one algorithm run, plus the resume flag.

    Returns ``(None, False)`` when no directory is installed.  The file
    name is deterministic in (algorithm tag, k, problem fingerprint), so
    a re-run of the same sweep finds its own checkpoints and runs over
    different problems or k values never collide.
    """
    if _default_dir is None:
        return None, False
    fingerprint = problem_fingerprint(problem)[:16]
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", tag)
    path = _default_dir / f"{safe}-k{k}-{fingerprint}.ckpt.json"
    return CheckpointStore(path), _default_resume
