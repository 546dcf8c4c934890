(** XRefine: the top-level automatic refinement engine (the paper's
    prototype of the same name).

    Given an indexed document and a keyword query, the engine mines (or
    accepts) refinement rules, decides adaptively whether the query needs
    refinement, and produces either the query's own meaningful SLCAs or
    the ranked Top-K refined queries with their results — with the
    algorithm, the plugged SLCA engine and every model parameter
    configurable. *)

type algorithm =
  | Stack_refine  (** Algorithm 1 (Top-1), packed scan *)
  | Partition  (** Algorithm 2 (Top-K), packed scan *)
  | Short_list_eager  (** Algorithm 3 (Top-K), packed scan *)

val algorithm_name : algorithm -> string

val algorithm_of_name : string -> algorithm option

type config = {
  k : int;  (** how many refined queries to return; default 3 *)
  algorithm : algorithm;  (** default [Partition] (packed scan) *)
  slca : Xr_slca.Engine.algorithm;
      (** plugged SLCA engine; default scan-parallel (scan-packed
          chunked over the domain pool, sequential below the
          {!Xr_slca.Parallel.threshold}). {!search} runs it as given (a
          list-based engine decodes the packed lists on every call); the
          refinement algorithms promote a list-based choice to its packed
          partner ({!Xr_slca.Engine.packed_partner}), result-identical. *)
  ranking : Ranking.config;
  dp : Optimal_rq.config;
  search_for : Xr_slca.Search_for.config;
  auto_mine : bool;  (** derive rules from the document + thesaurus; default true *)
  rank_results : bool;
      (** order each result list by XML TF*IDF relevance instead of
          document order; default false *)
  mine : Ruleset.mine_config;
  thesaurus : Xr_text.Thesaurus.t option;  (** default: the built-in one *)
}

val default_config : config

type run_stats =
  | Stack_stats of Stack_refine.stats
  | Partition_stats of Partition.stats
  | Sle_stats of Sle.stats

type response = {
  result : Result.t;
  rules_used : Rule.t list;  (** relevant rules actually consulted *)
  stats : run_stats;
}

(** [refine ?config ?rules index query] runs the full pipeline. [rules]
    are merged with mined rules when [config.auto_mine] holds. *)
val refine :
  ?config:config -> ?rules:Rule.t list -> Xr_index.Index.t -> string list -> response

(** [compiled_rules ?config ?rules index query] is the pruned rule list
    {!refine} would consult for [query]: mined rules (when
    [config.auto_mine] holds) merged with [rules], restricted to
    relevant left-hand sides and in-vocabulary right-hand sides.
    Running [refine ~config:{config with auto_mine = false} ~rules:r]
    with the returned [r] is byte-identical to the auto-mining run and
    skips the mining pass — the basis of compiled refine plans. *)
val compiled_rules :
  ?config:config -> ?rules:Rule.t list -> Xr_index.Index.t -> string list -> Rule.t list

(** [needs_refinement ?config index query] is Definition 3.4: does the
    query lack a meaningful SLCA? *)
val needs_refinement : ?config:config -> Xr_index.Index.t -> string list -> bool

(** [search ?config index query] plain meaningful-SLCA search of the query
    itself, no refinement. *)
val search : ?config:config -> Xr_index.Index.t -> string list -> Xr_xml.Dewey.t list

(** Outcome of the fully adaptive pipeline: repair empty queries, narrow
    over-broad ones, pass the rest through. *)
type auto_outcome =
  | Matched of Xr_xml.Dewey.t list  (** a manageable meaningful result set *)
  | Auto_refined of response  (** no meaningful result: refinement ran *)
  | Narrowed of Xr_xml.Dewey.t list * Specialize.suggestion list
      (** too many results: original set plus specializations *)

(** [auto ?config ?specialize ?rules index query] combines both
    directions of query refinement — the paper's contribution for
    empty-result queries and its future-work counterpart (specialization)
    for over-broad ones. *)
val auto :
  ?config:config ->
  ?specialize:Specialize.config ->
  ?rules:Rule.t list ->
  Xr_index.Index.t ->
  string list ->
  auto_outcome
