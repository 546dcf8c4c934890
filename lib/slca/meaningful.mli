(** Meaningful SLCA (Definitions 3.3 and 3.4).

    An SLCA result is meaningful iff it is a self-or-descendant of a node
    whose type is one of the inferred search-for candidates; a query needs
    refinement iff it has no meaningful SLCA over the document. *)

open Xr_xml

type t

(** [make ?config stats keywords] infers the search-for candidate list for
    the query once; the result is reused for every meaningfulness check of
    that query (original and refined queries share the search-for node,
    per Guideline 3's premise). *)
val make : ?config:Search_for.config -> Xr_index.Stats.t -> Interner.id list -> t

(** [candidates t] is the inferred candidate list (best first). *)
val candidates : t -> (Path.id * float) list

(** [is_meaningful t ~path] decides meaningfulness from a result node's
    type: some candidate type must be a prefix path of it. *)
val is_meaningful : t -> path:Path.id -> bool

(** [is_meaningful_dewey t dewey] resolves the node first; [false] for an
    unknown label. *)
val is_meaningful_dewey : t -> Dewey.t -> bool

(** [filter t slcas] keeps the meaningful results. *)
val filter : t -> Dewey.t list -> Dewey.t list
