(** Algorithm 2: partition-based Top-K query refinement.

    The document is processed partition by partition (a partition is the
    subtree under one child of the root, Definition 6.1), driven by the
    smallest unconsumed posting across all [KS] inverted lists — a single
    forward scan. Inside a partition the k-best dynamic program proposes
    Top-2K candidates from the keywords present there; candidates that
    cannot beat the current [RQSortedList] maximum are pruned {e before}
    any SLCA computation, and admitted candidates get their SLCAs computed
    within the partition only, by any SLCA engine (Lemma 3). The full
    ranking model then reorders the surviving 2K pool into the final
    Top-K.

    If some partition matches the original query itself with a meaningful
    SLCA, refinement is cancelled and the query's own results are
    returned (Definition 3.4). *)

open Xr_xml

type stats = {
  partitions_visited : int;
  partitions_skipped : int;  (** pruned before SLCA computation *)
  dp_runs : int;
  slca_runs : int;
}

(** [run ?ranking ?slca ~k setup] returns the refinement outcome and scan
    statistics. The scan runs directly on the packed inverted lists —
    partition probes and slices happen in varint-encoded form and the
    per-partition SLCAs run on packed ranges, so no posting array is ever
    materialized. [slca] is promoted to its packed partner
    ({!Xr_slca.Engine.packed_partner}); it defaults to scan-packed (the
    packed form of the paper's choice). *)
val run :
  ?ranking:Ranking.config ->
  ?slca:Xr_slca.Engine.algorithm ->
  k:int ->
  Refine_common.t ->
  Result.t * stats

(** [partition_roots doc] lists the Dewey labels of the document
    partitions, document order (exposed for tests). *)
val partition_roots : Doc.t -> Dewey.t list
