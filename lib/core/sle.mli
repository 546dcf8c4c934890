(** Algorithm 3: short-list eager (SLE) Top-K query refinement.

    Keyword inverted lists are consumed in ascending length order (with
    the paper's smarter priority: keywords that appear on a rule's RHS, or
    in no rule's LHS, come first — they are likely part of the final
    Top-K). For each partition containing the current keyword, the other
    lists are probed by random access to assemble the partition's keyword
    set, and the k-best DP proposes candidates. Exploration stops as soon
    as the optimistic bound [C_potential] — the cheapest dissimilarity any
    refined query over the still-unprocessed keywords could have — cannot
    beat the current K-th candidate. SLCA results of the surviving Top-K
    are then computed by any SLCA engine over the full lists (step 2). *)

type stats = {
  keywords_processed : int;  (** short lists consumed before the stop test fired *)
  partitions_probed : int;
  dp_runs : int;
  stopped_early : bool;
}

(** [run ?ranking ?slca ~k setup] returns the refinement outcome and
    statistics, operating directly on the packed inverted lists (slices,
    partition enumeration and SLCAs all in packed form — no posting array
    is ever materialized). [slca] is promoted to its packed partner
    ({!Xr_slca.Engine.packed_partner}); it defaults to scan-packed. *)
val run :
  ?ranking:Ranking.config ->
  ?slca:Xr_slca.Engine.algorithm ->
  k:int ->
  Refine_common.t ->
  Result.t * stats
