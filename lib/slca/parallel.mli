(** Domain-parallel scan-packed SLCA with cost-modeled chunking.

    Range-partitions the driver (rarest) list into contiguous chunks,
    scans each chunk on a {!Xr_pool} worker with
    {!Scan_packed.scan_chunk}, and merges the per-chunk survivors by
    replaying the online non-smallest prune across chunk boundaries.
    Output is byte-identical to {!Scan_packed.compute_ranges} for
    every contiguous partition (asserted by the qcheck property suite
    and the parallel benchmark), so where the splits land is a pure
    performance decision — and it is made by a cost model rather than
    by equal driver counts:

    - {!measure} gallops every partner cursor to a grid of grain
      boundaries over the driver range (concurrently, one pool task
      per partner list) and charges each grain its driver decodes plus
      a logarithmic galloping term per partner for the postings the
      cursor passes. The result ({!masses}) maps cumulative modeled
      cost onto driver positions.
    - {!chunk_bounds} splits where the cumulative cost crosses k/n of
      the total, so chunks carry equal {e work} even when the partner
      mass is skewed into one corner of the driver range.
    - The same model drives the sequential-fallback gate: a query
      whose modeled cost is below {!threshold} — checked first against
      a free upper bound from the range lengths ({!estimate}), then
      against the measured total — runs sequentially and never pays
      fork/join overhead. Any run on a pool of size 1 is sequential
      regardless. *)

open Xr_xml

(** {1 Posting masses and the cost model} *)

type masses
(** Measured cumulative cost over a grain grid of the driver range.
    Valid only for the exact sorted range list it was measured from
    (same packed buffers, same bounds) — the batch plan cache stores
    one per compiled plan and generation. *)

val measure :
  ?pool:Xr_pool.t ->
  ?grains:int ->
  (Dewey.Packed.t * int * int) list ->
  masses option
(** [measure lists] sorts [lists] exactly as the kernels do (stable,
    by range length), gallops each partner cursor to [grains]
    (default 64) equal-count boundaries of the driver range, and
    returns the cumulative cost curve. Read-only: cursors are private,
    nothing is decoded. [None] on empty or degenerate input. With a
    [pool] of size [> 1] and at least two partners, partner gallops
    run concurrently (one task per partner list). *)

val estimate : (Dewey.Packed.t * int * int) list -> float
(** Upper bound of the measured total cost, from range lengths alone
    (free: no cursor moves). The first stage of the cost gate. *)

val total_cost : masses -> float

val grain_count : masses -> int

val grain_bounds : masses -> int array
(** The grain grid: driver entry indices, strictly increasing, first =
    range start, last = range end (a copy — EXPLAIN renders it). *)

val cost_curve : masses -> float array
(** Cumulative modeled cost at each grain boundary (a copy, same
    length as {!grain_bounds}; last element = {!total_cost}). *)

val chunk_bounds : masses -> chunks:int -> int array
(** [chunk_bounds m ~chunks] is a partition of the measured driver
    range [[| b0; ...; bn |]] ([b0] = range start, [bn] = range end,
    strictly increasing): split points sit on the first grain boundary
    past each k/n crossing of the cumulative cost. May return fewer
    than [chunks] chunks when heavy grains absorb several crossings —
    never an empty or overlapping chunk. *)

val auto_chunks : pool_size:int -> total_cost:float -> int
(** Target chunk count: [4 * pool_size], capped so no chunk models
    below ~2k cost units, floored at 2. *)

val default_grains : int

(** {1 The parallel kernel} *)

(** [compute_ranges lists] — semantics of
    {!Scan_packed.compute_ranges}. [?pool] defaults to
    {!Xr_pool.global} (only consulted once the cost gate has passed,
    so sequential runs never create it); [?chunks] forces an explicit
    equal-count chunking ([>= 2] parallelizes even under the gate —
    the test suite's adversarial-split hook, [<= 1] forces
    sequential); [?threshold] overrides {!threshold} for this call;
    [?masses] supplies a pre-measured cost curve (the plan compiler's
    cache) and must come from {!measure} over the same ranges. *)
val compute_ranges :
  ?pool:Xr_pool.t ->
  ?chunks:int ->
  ?threshold:int ->
  ?masses:masses ->
  (Dewey.Packed.t * int * int) list ->
  Dewey.t list

val compute :
  ?pool:Xr_pool.t -> ?chunks:int -> ?threshold:int -> Dewey.Packed.t list -> Dewey.t list

(** {1 Sequential-fallback cost gate}

    Minimum modeled query cost (roughly: postings decoded plus probe
    work, see {!measure}) for a parallel run; below it the sequential
    kernel runs and the fallback counter ticks. Process-wide; the
    server sets it from [--parallel-threshold]. *)

val default_threshold : int

val threshold : unit -> int

val set_threshold : int -> unit

(** {1 Fallback counter} *)

val fallbacks : unit -> int
(** Sequential fallbacks taken so far (cost-gate underruns, size-1
    pools, degenerate chunkings) — exposed through the server's
    [/stats] alongside the pool counters. *)

val note_fallback : unit -> unit
(** Tick the fallback counter; the refinement layer records its own
    below-threshold decisions here. *)
