"""Compatible-request micro-batching for the evaluation daemon.

Fan-out traffic probing *neighbouring* design points — same multiplier
geometry, same seed, same sample budget, different capture depths or
period grids — historically serialized into N separate evaluations,
because coalescing only merges byte-identical requests.  But the
underlying engines are grid-oblivious in exactly the right way: one
Monte-Carlo wave evaluation samples *all* requested depths from the
same waveform, and the fused stage sweep (:mod:`repro.vec.fused`)
captures every step of its grid in one pass.  Evaluating the *union*
grid costs one evaluation, not N.

:class:`MicroBatcher` exploits that: requests sharing a
``batch_key`` (:func:`repro.service.requests.batch_compatibility_key`)
that arrive within a small gather window are merged
(:func:`merge_requests`) into one synthetic request over the union
grid, evaluated once through the daemon's ordinary retried,
deadline-bounded path, then split back (:func:`split_responses`) into
per-request responses.

**Bit-identity contract.**  A split response is byte-identical to the
response the member request would have produced alone:

* The sample stream depends only on ``(seed, shard_size, samples)`` —
  all part of the batch key — never on the grid, so the fused run
  draws exactly the operands each solo run would draw.
* Per-depth statistics are *elementwise*: each grid point's error sum
  is accumulated independently and the shard merge
  (:func:`repro.runners.parallel.merge_float_sums`) adds element-wise
  in shard order.  Slicing the union result at a member's (sorted)
  grid positions therefore yields float-for-float the member's solo
  arrays.
* The one grid-*dependent* scalar — a sweep's ``error_free_step`` — is
  recomputed per member through the same rule the solo path uses
  (:func:`repro.sim.sweep.error_free_step_on_grid`).

Cache keys, cache writes, and progress frames stay per-request: every
member's result is stored under the member's own content address, so a
later solo request cache-hits exactly as if it had run alone.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.cache import cache_key
from repro.service.requests import EvalRequest

__all__ = [
    "MicroBatcher",
    "merge_requests",
    "split_result_payload",
    "split_responses",
]

#: default gather window (seconds) a batch leader waits for company
DEFAULT_BATCH_WINDOW = 0.01

#: default ceiling on members fused into one evaluation
DEFAULT_MAX_BATCH = 16


# ---------------------------------------------------------------- merge/split

def merge_requests(reqs: Sequence[EvalRequest]) -> EvalRequest:
    """One synthetic request evaluating the union grid of *reqs*.

    All members share a ``batch_key`` by construction, so they agree on
    kind, config, sample budget and deadline; only the grid differs.
    The merged request carries a real content address over the union
    grid — it coalesces and caches like any organic request for that
    grid would.
    """
    first = reqs[0]
    for req in reqs[1:]:
        if req.batch_key != first.batch_key:
            raise ValueError(
                "cannot merge requests from different batch classes"
            )
    if first.kind == "montecarlo":
        from repro.sim.montecarlo import montecarlo_key_components

        depths = sorted({int(b) for r in reqs for b in r.params["depths"]})
        components = montecarlo_key_components(
            first.config, first.params["samples"], depths
        )
        params = {"samples": first.params["samples"], "depths": tuple(depths)}
    elif first.kind == "sweep":
        from repro.sim.sweep import stage_sweep_key_components

        steps = sorted({int(b) for r in reqs for b in r.params["steps"]})
        components = stage_sweep_key_components(
            first.config, "online", first.params["samples"], steps
        )
        params = {"samples": first.params["samples"], "steps": tuple(steps)}
    else:
        raise ValueError(f"kind {first.kind!r} is not batchable")
    key = cache_key(**components)
    return EvalRequest(
        id=None,
        kind=first.kind,
        config=first.config,
        params=params,
        key_components=components,
        key=key,
        cache_key=key,
        deadline=first.deadline,
        batch_key=first.batch_key,
    )


def _grid_indices(union: Sequence[int], member: Sequence[int]) -> List[int]:
    """Positions of *member*'s (sorted) grid points inside the union grid."""
    where = {int(v): i for i, v in enumerate(union)}
    return [where[int(v)] for v in member]


def split_result_payload(
    kind: str, merged: Dict[str, Any], member: EvalRequest
) -> Tuple[Dict[str, Any], Any]:
    """Slice the merged result payload down to *member*'s grid.

    Returns ``(payload, result)`` — the JSON payload for the response
    and the reconstructed Result object for the member's cache write.
    Reconstruction goes through the result classes' own
    ``from_dict``/``to_dict`` so field order, types, and float
    formatting match the solo path exactly.
    """
    if kind == "montecarlo":
        from repro.sim.montecarlo import MonteCarloResult

        full = MonteCarloResult.from_dict(merged)
        idx = _grid_indices(
            [int(b) for b in full.depths], member.params["depths"]
        )
        result: Any = MonteCarloResult(
            ndigits=full.ndigits,
            delta=full.delta,
            num_samples=full.num_samples,
            depths=full.depths[idx],
            mean_abs_error=full.mean_abs_error[idx],
            violation_probability=full.violation_probability[idx],
        )
    elif kind == "sweep":
        from repro.sim.sweep import SweepResult, error_free_step_on_grid

        full = SweepResult.from_dict(merged)
        idx = _grid_indices(
            [int(b) for b in full.steps], member.params["steps"]
        )
        steps = full.steps[idx]
        mean_err = full.mean_abs_error[idx]
        result = SweepResult(
            steps=steps,
            mean_abs_error=mean_err,
            violation_probability=full.violation_probability[idx],
            rated_step=full.rated_step,
            settle_step=full.settle_step,
            error_free_step=error_free_step_on_grid(
                steps, mean_err, full.settle_step
            ),
            num_samples=full.num_samples,
        )
    else:
        raise ValueError(f"kind {kind!r} is not batchable")
    payload = result.to_dict()
    payload.pop("metrics", None)
    return payload, result


def split_responses(
    merged_req: EvalRequest,
    response: Dict[str, Any],
    members: Sequence[EvalRequest],
    cache: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """Per-member responses from the fused evaluation's *response*.

    * Success — each member gets its sliced payload under its own id,
      key, and cache entry (the fused run stored only the union grid).
    * Error / deadline / cancelled — the failure is copied per
      member with the member's id; the texts are grid-independent, so
      these too match the solo spelling.
    """
    out: List[Dict[str, Any]] = []
    if not response.get("ok") or "result" not in response:
        for member in members:
            failure = dict(response)
            failure["id"] = member.id
            out.append(failure)
        return out
    for member in members:
        payload, result = split_result_payload(
            merged_req.kind, response["result"], member
        )
        if cache is not None and member.cache_key is not None:
            cache.put(member.cache_key, result, member.key_components)
        out.append(
            {
                "ok": True,
                "id": member.id,
                "kind": member.kind,
                "key": member.key,
                "result": payload,
            }
        )
    return out


# ------------------------------------------------------------------ batcher

class _Group:
    """One gather window's worth of compatible requests."""

    __slots__ = ("members", "full", "task", "aborted")

    def __init__(self) -> None:
        self.members: List[Tuple[EvalRequest, asyncio.Future]] = []
        self.full = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.aborted = False


class MicroBatcher:
    """Gather-window batching of compatible evaluation leaders.

    ``run_group`` is the daemon callback evaluating one closed group:
    ``async (List[EvalRequest]) -> List[response]``, responses in member
    order.  Each submitting caller (a coalescing *leader* holding its
    own admission slot) awaits its member future; the first member of a
    class opens the window, and the group fires when the window elapses
    or ``max_batch`` members joined, whichever is first.
    """

    def __init__(
        self,
        run_group: Callable[
            [List[EvalRequest]], Awaitable[List[Dict[str, Any]]]
        ],
        window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self._run_group = run_group
        self.window = window
        self.max_batch = max_batch
        self._groups: Dict[str, _Group] = {}

    @property
    def depth(self) -> int:
        """Number of batch classes currently gathering."""
        return len(self._groups)

    async def submit(self, req: EvalRequest) -> Dict[str, Any]:
        """Join *req* to its compatibility group; await its response."""
        if req.batch_key is None:
            raise ValueError(f"request kind {req.kind!r} is not batchable")
        group = self._groups.get(req.batch_key)
        if group is None:
            group = _Group()
            self._groups[req.batch_key] = group
            group.task = asyncio.ensure_future(
                self._gather_and_run(req.batch_key, group)
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        group.members.append((req, future))
        if len(group.members) >= self.max_batch:
            # close the window early; later arrivals start a new group
            self._groups.pop(req.batch_key, None)
            group.full.set()
        return await asyncio.shield(future)

    async def _gather_and_run(self, batch_key: str, group: _Group) -> None:
        try:
            await asyncio.wait_for(group.full.wait(), timeout=self.window)
        except asyncio.TimeoutError:
            pass
        finally:
            # window over: no further joins, whatever happens next
            if self._groups.get(batch_key) is group:
                self._groups.pop(batch_key, None)
        if group.aborted:
            return
        members = [req for req, _ in group.members]
        try:
            responses = await self._run_group(members)
        except BaseException as exc:
            failure = {
                "ok": False,
                "code": "internal",
                "error": f"batch evaluation failed: "
                         f"{type(exc).__name__}: {exc}",
            }
            for req, future in group.members:
                if not future.done():
                    future.set_result({**failure, "id": req.id})
            if isinstance(exc, asyncio.CancelledError):
                raise
            metrics().count("service.internal_errors")
            current_tracer().event(
                "service.batch_failed", error=f"{type(exc).__name__}: {exc}"
            )
            return
        for (req, future), response in zip(group.members, responses):
            if not future.done():
                future.set_result(response)

    def abort_all(self, response: Dict[str, Any]) -> int:
        """Resolve every gathering member with *response* (drain path)."""
        aborted = 0
        for group in list(self._groups.values()):
            group.aborted = True
            for req, future in group.members:
                if not future.done():
                    future.set_result({**dict(response), "id": req.id})
                    aborted += 1
            group.full.set()
        self._groups.clear()
        return aborted
