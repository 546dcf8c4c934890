(** Scan-Eager SLCA over packed posting lists.

    Same algorithm as {!Scan_eager} — drive on the rarest keyword, probe
    the closest matches in the other lists — but operating directly on
    the varint-encoded label buffers of {!Xr_xml.Dewey.Packed}: the only
    label decoded per driver step is the driver entry itself (into a
    reused scratch buffer), the other lists are compared in encoded form
    via galloping {!Xr_index.Cursor.Packed} seeks. Non-smallest
    candidates are pruned online against a single held candidate
    (correct because driver order constrains the candidate stream — see
    the implementation), so there is no sort-based post-pass. The inner
    loop allocates nothing; only actual results are materialized. *)

open Xr_xml

val compute : Dewey.Packed.t list -> Dewey.t list

(** [compute_ranges lists] restricts each packed list to the half-open
    entry range paired with it — the per-partition SLCA step of the
    refinement algorithms, which slice every keyword list to one subtree
    without copying anything. An empty range yields []. *)
val compute_ranges : (Dewey.Packed.t * int * int) list -> Dewey.t list

(** [scan_chunk ~driver:(l, dlo, dhi) ~others] runs the scan kernel over
    the driver entries [dlo..dhi-1] only, probing [others] over their
    full attached ranges, and returns the chunk's surviving candidates
    in candidate order — the emitted results plus the held candidate
    sealed at chunk end. For the whole driver range this is exactly
    {!compute_ranges}; over a partition of the range it is the parallel
    kernel's per-chunk step, whose outputs {!Parallel} merges by
    replaying the same online prune across chunk boundaries. Assumes
    every range is well-formed; performs no driver selection.

    [preseek] (default false) pre-positions the partner cursors on the
    chunk's first driver entry before scanning — purely positional (the
    first probe lands the cursor in the same place), so results never
    depend on it; interior parallel chunks set it to start probing near
    their data instead of galloping in from the range base. *)
val scan_chunk :
  ?preseek:bool ->
  driver:(Dewey.Packed.t * int * int) ->
  others:(Dewey.Packed.t * int * int) list ->
  unit ->
  Dewey.t list

(** [sort_by_length lists] orders [lists] by ascending range length,
    stably — the driver-selection rule shared by the sequential and
    parallel kernels (head = driver). *)
val sort_by_length :
  (Dewey.Packed.t * int * int) list -> (Dewey.Packed.t * int * int) list

(** {2 Tiny-driver fallback}

    Below [tiny_threshold] driver entries, {!compute_ranges} dispatches
    to a cursor-free kernel ({!scan_tiny}): on highly selective queries
    the general kernel's cursor setup and probe-counter folds outweigh
    the scan itself. Both kernels produce byte-identical results; the
    query-plan compiler ({!Xr_batch.Plan}) records which one a query
    resolves to. *)

val default_tiny_threshold : int

val tiny_threshold : unit -> int

val set_tiny_threshold : int -> unit

(** Scans dispatched to the tiny kernel since startup
    ([xr_slca_tiny_scans_total]). *)
val tiny_scans : unit -> int

(** [scan_tiny ~driver ~others ()] is {!scan_chunk} computed with bare
    binary searches over position arrays instead of galloping cursors —
    same candidate stream, same online prune, no per-scan setup cost.
    Exposed for the differential tests. *)
val scan_tiny :
  driver:(Dewey.Packed.t * int * int) ->
  others:(Dewey.Packed.t * int * int) list ->
  unit ->
  Dewey.t list
