(** Algorithm 1: stack-based query refinement.

    Extends the XKSearch stack algorithm: the merged document-order stream
    of all [KS] inverted lists (original keywords plus every keyword a
    relevant rule can introduce) drives a stack whose entries carry
    witness flags over [KS]. When a popped entry witnesses the whole
    original query and is a meaningful SLCA, refinement is cancelled and
    the query's own results are collected. Otherwise [getOptimalRQ] runs
    on the popped entry's witness set, and the cheapest refined query
    whose witnessing node is meaningful is retained together with its SLCA
    results — everything within one scan of the merged lists
    (Theorem 1). *)

type stats = {
  pops : int;
  dp_runs : int;
}

(** [run setup] drives the merged scan directly on the packed inverted
    lists: cursor heads are merged in varint-encoded form and only the
    winning head of each step is decoded, into a reused scratch buffer —
    no posting array is ever materialized. *)
val run :
  ?ranking:Ranking.config ->
  Refine_common.t ->
  Result.t * stats
