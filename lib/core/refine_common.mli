(** Shared setup for the three refinement algorithms: normalizes the
    query, restricts the rule set to it, resolves [KS = Q + new keywords]
    to their packed inverted lists, and infers the search-for context
    once. The packed lists are shared with the index (building a [t]
    copies nothing). *)

open Xr_xml

type t = {
  index : Xr_index.Index.t;
  query : string list;  (** normalized original query, order preserved *)
  rules : Ruleset.t;  (** rules relevant to the query, RHS in document *)
  ks : string array;  (** KS: query keywords first, then new keywords *)
  packed : Dewey.Packed.t array;  (** per KS position, shared with index *)
  q_size : int;  (** first [q_size] entries of [ks] are the query *)
  meaningful : Xr_slca.Meaningful.t;
  dp_config : Optimal_rq.config;
}

val make :
  ?dp_config:Optimal_rq.config ->
  ?search_for:Xr_slca.Search_for.config ->
  Xr_index.Index.t ->
  Ruleset.t ->
  string list ->
  t

(** [list_length t i] is the posting count of KS position [i]. *)
val list_length : t -> int -> int

(** [keyword_length t k] is {!list_length} by keyword name (0 when [k] is
    not a KS member). *)
val keyword_length : t -> string -> int

(** [packed_sublists t ranges keywords] is the packed ranges of
    [keywords] (which must be KS members) restricted to the per-KS-position
    entry ranges [ranges], zero-copy, for {!Xr_slca.Engine.compute_ranges}. *)
val packed_sublists :
  t -> (int * int) array -> string list -> (Dewey.Packed.t * int * int) list

(** [packed_full_lists t keywords] is the whole-document packed lists of
    [keywords], as zero-copy ranges. *)
val packed_full_lists : t -> string list -> (Dewey.Packed.t * int * int) list

(** [meaningful_slcas_ranges t alg ranges] runs an SLCA engine over
    packed ranges (see {!Xr_slca.Engine.compute_ranges}) and keeps the
    meaningful results. *)
val meaningful_slcas_ranges :
  t -> Xr_slca.Engine.algorithm -> (Dewey.Packed.t * int * int) list -> Dewey.t list

(** A memoized DP candidate list: each candidate carries its precomputed
    keyword-set key ({!Refined_query.key}), and [pure_rev] remembers an
    [Rq_list] revision at which walking the list had no effect (every
    candidate already present or rejected) — at that same revision the
    walk needs no replay. *)
type cand_set = {
  cands : (Refined_query.t * string) list;
  mutable pure_rev : int;
}

(** [make_candidates_for t ~k ~dp_runs] is the per-partition candidate
    source of Algorithms 2 and 3: given a partition's presence test
    ([present j] holds iff KS position [j] occurs there), the
    [max (2 * k) beam] cheapest refined queries over the keywords
    present there, cost-sorted. Partitions with the same keyword-presence signature
    share one DP run; [dp_runs] counts the runs. A KS wider than 62
    keywords does not fit the signature's bitmask: every call then runs
    the DP. *)
val make_candidates_for : t -> k:int -> dp_runs:int ref -> (int -> bool) -> cand_set
