(** The index bundle: compiled document + inverted lists + statistics,
    with persistence to any {!Xr_store.Kv.t} (Section VII of the paper;
    Berkeley DB there, our B+tree here). *)

open Xr_xml

type t = {
  doc : Doc.t;
  inverted : Inverted.t;
  stats : Stats.t;
}

(** Compatibility name for the only in-memory representation, one
    packed list per keyword ({!Inverted}). It exists so callers that
    still spell [~mode:Flat] keep compiling; selecting it changes
    nothing. *)
type mode = Flat

(** [build doc] builds all in-memory indices. [mode] is a compatibility
    argument (see {!mode}). *)
val build : ?mode:mode -> Doc.t -> t

(** [of_string s] parses, compiles and indexes an XML document. *)
val of_string : string -> t

(** [of_file path] reads, parses, compiles and indexes an XML file.
    [mode] is a compatibility argument (see {!mode}). *)
val of_file : ?mode:mode -> string -> t

(** [append_partition t subtree] incrementally indexes [subtree] as a new
    last child of the document root (a new partition): nodes, inverted
    lists and statistics are extended without rescanning the existing
    document. Returns the updated bundle; the input bundle must not be
    used afterwards (its statistics tables are shared and bumped in
    place). *)
val append_partition : t -> Tree.t -> t

(** [append_partition_delta t subtree] is {!append_partition} plus the
    list of keyword ids whose inverted lists were extended — the delta an
    incremental persister needs to write ({!save_delta}). *)
val append_partition_delta : t -> Tree.t -> t * Interner.id list

(** [fork t] is an index bundle whose mutable structures (interners, path
    table, statistics) are private copies, sharing the immutable node
    array, tree and packed inverted lists with [t]. {!append_partition}
    on the fork leaves [t] fully intact, so concurrent readers of [t] in
    other domains never observe the mutation — the snapshot primitive
    behind online ingest (generation N keeps serving while N+1 is
    built). *)
val fork : t -> t

(** [save t kv] persists the document text, every inverted list, the
    frequency table and the per-type aggregates into [kv] (and syncs). *)
val save : t -> Xr_store.Kv.t -> unit

(** [save_delta t kv ~changed] persists an incremental update after
    {!append_partition_delta}: only the inverted lists of [changed]
    keywords are rewritten, plus the (small) document text, frequency
    table, aggregates and vocabulary. Ends with a single [sync] — the
    commit point. A crash before that sync leaves the store serving the
    previously synced generation intact. *)
val save_delta : t -> Xr_store.Kv.t -> changed:Xr_xml.Interner.id list -> unit

(** [load kv] restores an index bundle saved by {!save}: the document
    is re-parsed from the stored text; inverted lists and statistics are
    decoded from the store without rescanning the document.
    @raise Failure if the store does not hold a saved index, is
    inconsistent with the stored document, or holds a frequency row that
    {!Stats.import} rejects (the message names the [ft] key). *)
val load : Xr_store.Kv.t -> t
