(** Keyword inverted lists.

    For each keyword of the document, the list of element nodes that
    contain it directly (in their tag name or own text), in document
    order, each entry carrying the node's Dewey label and node type — the
    [<DeweyID, prefixPath>] form of the paper's first index. *)

open Xr_xml

type posting = { dewey : Dewey.t; path : Path.id }

(** Struct-of-arrays posting list: every Dewey label of the list packed
    into one contiguous buffer (see {!Dewey.Packed}), node-type ids
    alongside. This is the only resident form, shared across query
    domains; a [posting array] is decoded from it on demand ({!list}). *)
type packed = { labels : Dewey.Packed.t; paths : int array }

(** One packed list per keyword id. *)
type t

(** [build doc] scans the compiled document once and builds all lists. *)
val build : Doc.t -> t

(** [of_packed lists] adopts already-packed lists (indexed by keyword
    id); used when restoring a persisted index without re-encoding. *)
val of_packed : packed array -> t

val empty_packed : packed

(** [extend t ~vocab_size additions] is a new table covering ids up to
    [vocab_size - 1], with each [(kw, postings)] of [additions] appended
    to [kw]'s list; every appended posting must sort after the existing
    tail of its list (they do when a new partition is appended at the end
    of the document). The input table is unchanged. *)
val extend : t -> vocab_size:int -> (Interner.id * posting list) list -> t

(** [packed_list t kw] is the packed posting list of keyword [kw]
    ([empty_packed] if absent). This is the zero-copy accessor the SLCA
    kernels scan. *)
val packed_list : t -> Interner.id -> packed

(** [list t kw] is the boxed posting list of keyword [kw] (empty if
    absent). It decodes the packed list on every call and keeps nothing:
    the paper's list-based baselines read it, serving paths scan
    {!packed_list}. *)
val list : t -> Interner.id -> posting array

(** [list_by_name t doc k] resolves keyword [k] (normalized) first; like
    {!list}, it decodes on every call. *)
val list_by_name : t -> Doc.t -> string -> posting array

(** [length t kw] is the posting-list length of [kw]. *)
val length : t -> Interner.id -> int

(** [iter f t] applies [f kw list] to every keyword in id order; it
    decodes every list on every call (prefer {!iter_packed}). *)
val iter : (Interner.id -> posting array -> unit) -> t -> unit

(** [iter_packed f t] applies [f kw packed] to every keyword in id
    order, materializing nothing. *)
val iter_packed : (Interner.id -> packed -> unit) -> t -> unit

(** [postings_total t] is the posting count over all keywords. *)
val postings_total : t -> int

(** [label_bytes_total t] is the byte count of all packed label
    buffers. *)
val label_bytes_total : t -> int

(** [resident_bytes t] estimates the resident bytes of all lists (see
    {!packed_bytes} for the accounting). *)
val resident_bytes : t -> int

(** [packed_postings pk] is the number of postings in a packed list. *)
val packed_postings : packed -> int

(** [packed_label_bytes pk] is the size of the packed label buffer. *)
val packed_label_bytes : packed -> int

(** [packed_bytes pk] estimates the resident bytes of a packed list:
    label buffer plus one word per offsets slot and node-type id. *)
val packed_bytes : packed -> int
