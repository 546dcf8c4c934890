(** Query specialization — the paper's stated future work ("how to refine
    a query which has too many matching results").

    Where refinement repairs a query with {e no} meaningful result,
    specialization narrows a query with an overwhelming number of them:
    it proposes Top-K queries [Q + k'] where the added keyword [k'] is
    drawn from the actual result subtrees (so every suggestion still has
    meaningful matches, the refinement counterpart of Lemma 2(3)) and
    scored by the same statistics machinery — association-rule confidence
    with the original keywords (Formula 7) and how close the keyword's
    selectivity lands to a target result-set reduction. *)

open Xr_xml

type config = {
  max_results : int;
      (** a query with more meaningful SLCAs than this is "too broad";
          default 50 *)
  k : int;  (** suggestions to return; default 5 *)
  target : float;
      (** ideal fraction of the original results a suggestion keeps;
          default 0.2 *)
  sample : int;
      (** cap on result subtrees inspected for candidates; default 200 *)
  slca : Xr_slca.Engine.algorithm;
      (** SLCA engine of the result checks; default scan-packed, which
          runs on the index's packed lists (a list-based engine decodes
          them on every call) *)
  search_for : Xr_slca.Search_for.config;
}

val default_config : config

type suggestion = {
  keywords : string list;  (** the specialized query, sorted *)
  added : string;  (** the keyword that was added *)
  score : float;
  slcas : Dewey.t list;  (** the specialized query's meaningful SLCAs *)
}

(** [too_broad ?config index query] is true iff the query has more
    meaningful SLCAs than [config.max_results]. *)
val too_broad : ?config:config -> Xr_index.Index.t -> string list -> bool

(** [suggest ?config index query] proposes up to [config.k] specialized
    queries, best first. Empty if the query has no meaningful result (use
    refinement instead) or no candidate keyword narrows it. *)
val suggest : ?config:config -> Xr_index.Index.t -> string list -> suggestion list
