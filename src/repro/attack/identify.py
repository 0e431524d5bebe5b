"""Step 4.a — identifying the victim's model from dump strings.

"The adversary analyzes the FPGA DRAM data for distinct patterns or
signatures of different models.  Using criteria like keywords or known
model names (e.g. 'resnet50', 'squeezenet'), they identify the model
run by the targeted process" (§III).

The paper greps for one known name; this module generalizes that into
a signature database mined from the offline profiles: a token is a
*signature* of model M if it appears in M's profiled dump and in no
other model's.  Shared runtime strings (libvart paths and the like)
cancel out automatically, so identification keys on genuinely
model-specific evidence — names, install paths, origin strings,
kernel identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ahocorasick import AhoCorasick
from repro.attack.extraction import ScrapedDump
from repro.attack.profiling import ProfileStore
from repro.errors import IdentificationError
from repro.utils.hexdump import GrepHit


@dataclass(frozen=True)
class ModelSignature:
    """The distinctive tokens of one model."""

    model_name: str
    tokens: frozenset[str]


@dataclass
class IdentificationResult:
    """Outcome of matching a dump against the signature database."""

    best_model: str
    scores: dict[str, float]
    matched_tokens: list[str]
    grep_hits: list[GrepHit] = field(default_factory=list)
    confident: bool = True

    def describe(self) -> str:
        """One-line verdict for the attack report."""
        qualifier = "" if self.confident else " (low confidence)"
        return (
            f"identified model {self.best_model!r}{qualifier} "
            f"({len(self.matched_tokens)} signature tokens matched)"
        )


class SignatureDatabase:
    """Per-model distinctive-token sets derived from offline profiles.

    Construction compiles every token into one shared
    :class:`~repro.analysis.ahocorasick.AhoCorasick` automaton, so
    :meth:`match` scores *all* models in a single pass over the dump.
    A campaign builds the database once and shares it across every
    board worker; the compiled automaton rides along for free.
    """

    def __init__(self, signatures: list[ModelSignature]) -> None:
        if not signatures:
            raise ValueError("signature database cannot be empty")
        self._signatures = {sig.model_name: sig for sig in signatures}
        # bytes pattern -> every source token that encodes to it: with
        # errors="ignore", distinct tokens can collide on one encoding
        # (lone surrogates drop out), and the replaced ``in`` scans
        # matched all of them.
        tokens_of: dict[bytes, set[str]] = {}
        for signature in signatures:
            for token in signature.tokens:
                tokens_of.setdefault(
                    token.encode("utf-8", errors="ignore"), set()
                ).add(token)
        self._tokens_of = tokens_of
        self._automaton = AhoCorasick(tokens_of)

    @classmethod
    def from_profiles(cls, store: ProfileStore, min_token_length: int = 6) -> "SignatureDatabase":
        """Mine signatures: strings unique to each model's profiled dump."""
        profiles = store.profiles()
        if not profiles:
            raise ValueError("profile store is empty")
        signatures = []
        for profile in profiles:
            others: set[str] = set()
            for other in profiles:
                if other.model_name != profile.model_name:
                    others |= other.strings
            distinctive = frozenset(
                token
                for token in profile.strings - others
                if len(token) >= min_token_length
            )
            signatures.append(
                ModelSignature(model_name=profile.model_name, tokens=distinctive)
            )
        return cls(signatures)

    def to_payload(self) -> dict[str, list[str]]:
        """A JSON-safe snapshot of the mined signatures.

        The fabric coordinator's ``hello`` ships this to each worker
        process, which rebuilds the database with :meth:`from_payload`
        instead of re-mining it from profiles — mining is
        O(models² × strings).  Multiprocess-executor shards need no
        payload: they inherit the database (fork) or unpickle it
        (spawn).
        """
        return {
            name: sorted(signature.tokens)
            for name, signature in self._signatures.items()
        }

    @classmethod
    def from_payload(cls, payload: dict[str, list[str]]) -> "SignatureDatabase":
        """Rebuild a database from :meth:`to_payload` output.

        Model order is preserved from the source database (dict order
        survives pickling), so score dictionaries and tie-breaking in
        the worker match the parent process exactly.
        """
        return cls(
            [
                ModelSignature(model_name=name, tokens=frozenset(tokens))
                for name, tokens in payload.items()
            ]
        )

    def signature(self, model_name: str) -> ModelSignature:
        """The signature for one model."""
        return self._signatures[model_name]

    def model_names(self) -> list[str]:
        """All models with signatures, sorted."""
        return sorted(self._signatures)

    def match(self, dump_data) -> dict[str, tuple[float, list[str]]]:
        """Score every model against a raw dump buffer (never copied).

        Score = fraction of the model's signature tokens present
        verbatim in the dump.  Models with empty signatures score 0.

        One automaton pass over the dump finds every token of every
        model at once (instead of one full-dump ``in`` scan per token);
        scores are identical to the scan-per-token reference kept in
        :func:`repro.analysis.reference.reference_match`.
        """
        present: set[str] = set()
        for pattern in self._automaton.find_present(dump_data):
            present |= self._tokens_of[pattern]
        results = {}
        for name, signature in self._signatures.items():
            if not signature.tokens:
                results[name] = (0.0, [])
                continue
            matched = sorted(
                token for token in signature.tokens if token in present
            )
            results[name] = (len(matched) / len(signature.tokens), matched)
        return results


class ModelIdentifier:
    """Applies a signature database to a scraped dump.

    ``min_score`` guards against misattribution from incidental token
    collisions (e.g. a generic layer name shared by an unprofiled
    architecture): a genuine match hits most of its signature tokens,
    an accidental one only a stray few.
    """

    def __init__(self, database: SignatureDatabase, min_score: float = 0.3) -> None:
        if not 0.0 <= min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {min_score}")
        self._database = database
        self._min_score = min_score

    def identify_buffer(self, data) -> IdentificationResult:
        """Attribute raw dump bytes to one model — no board required.

        The world-free core of :meth:`identify`: *data* is any
        bytes-like buffer (bytes, memoryview, an mmap-backed spool
        object), so the analysis service can attribute dumps it never
        simulated.  The winner needs a score of at least ``min_score``;
        otherwise the attribution failed and
        :class:`~repro.errors.IdentificationError` is raised (the
        expected outcome on a scrubbed dump or an unprofiled model).
        A winner whose margin over the runner-up is zero is flagged
        ``confident=False``.  ``grep_hits`` is empty here — evidence
        rows come from the dump's hexdump, which only
        :meth:`identify` has.
        """
        matches = self._database.match(data)
        scores = {name: score for name, (score, _) in matches.items()}
        ranked = sorted(scores, key=lambda name: scores[name], reverse=True)
        best = ranked[0]
        best_score, matched_tokens = matches[best]
        if best_score < self._min_score or not matched_tokens:
            raise IdentificationError(
                f"best candidate {best!r} scored {best_score:.2f} "
                f"(< {self._min_score}); cannot attribute a model"
            )
        runner_up_score = scores[ranked[1]] if len(ranked) > 1 else 0.0
        return IdentificationResult(
            best_model=best,
            scores=scores,
            matched_tokens=matched_tokens,
            confident=best_score > runner_up_score,
        )

    def identify(self, dump: ScrapedDump) -> IdentificationResult:
        """Attribute the dump to one model (attack-pipeline flavour).

        Delegates the scoring to :meth:`identify_buffer` and decorates
        the result with the paper's evidence rows — the first hexdump
        lines where the winning name appears verbatim.
        """
        result = self.identify_buffer(dump.data)
        result.grep_hits = dump.hexdump.grep(result.best_model)[:4]
        return result
