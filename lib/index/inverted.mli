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

type t

(** [build doc] scans the compiled document once and builds all lists. *)
val build : Doc.t -> t

(** [of_lists lists] packs per-keyword posting arrays (indexed by keyword
    id, document order within each). *)
val of_lists : posting array array -> t

(** [of_packed lists] adopts already-packed lists (indexed by keyword
    id); used when restoring a persisted index without re-encoding. *)
val of_packed : packed array -> t

(** [of_dag dag] is a table backed by the DAG-compressed expansion:
    {!packed_list} merges a keyword's flat view out of the shared
    expansion on first access and memoizes it (safe under parallel
    domains — a racing domain at worst merges twice). A merged view is
    byte-identical to what the flat build packs, so every consumer of
    this interface behaves identically over either backing. *)
val of_dag : Xr_dag.t -> t

(** [dag t] is the compressed backing, if [t] has one. *)
val dag : t -> Xr_dag.t option

(** [to_flat t] is [t] re-backed by fully materialized flat lists
    (identity when already flat). Forces every merge. *)
val to_flat : t -> t

val empty_packed : packed

(** [pack_postings arr] packs one posting array. *)
val pack_postings : posting array -> packed

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

(** [merge_count t] is the number of DAG-to-flat list merges performed
    so far (memo hits excluded; 0 on a flat backing). *)
val merge_count : t -> int

(** [merged_keywords t] is the number of keywords whose flat view is
    currently memoized out of the DAG (0 on a flat backing). *)
val merged_keywords : t -> int

(** [length t kw] is the posting-list length of [kw]. *)
val length : t -> Interner.id -> int

(** [keyword_count t] is the number of keywords with a non-empty list. *)
val keyword_count : t -> int

(** [iter f t] applies [f kw list] to every keyword in id order; it
    decodes every list on every call (prefer {!iter_packed}). *)
val iter : (Interner.id -> posting array -> unit) -> t -> unit

(** [iter_packed f t] applies [f kw packed] to every keyword in id
    order. On a flat backing this materializes nothing; on a DAG backing
    it forces the merge of every keyword (persistence uses it — prefer
    {!iter_lengths} or the [*_total] accessors on passive paths like
    metrics scrapes). *)
val iter_packed : (Interner.id -> packed -> unit) -> t -> unit

(** [iter_lengths f t] applies [f kw posting_count] to every keyword in
    id order, without merging or materializing anything on either
    backing. *)
val iter_lengths : (Interner.id -> int -> unit) -> t -> unit

val prefetch : ?pool:Xr_pool.t -> t -> Interner.id list -> unit
(** [prefetch t kws] forces the flat views of [kws] resident before a
    scan touches them: a no-op on a flat backing, on a DAG backing it
    merges the missing views — concurrently (one pool task per
    keyword) when [pool] (default: the global pool only if it already
    exists) has more than one domain. Never changes what
    {!packed_list} returns; a racing query at worst merges a view
    twice, exactly as without prefetching. *)

(** [peek_merged t kw] is [kw]'s packed list if it is resident right
    now: always on a flat backing, only if already merged on a DAG
    backing. Never forces anything. *)
val peek_merged : t -> Interner.id -> packed option

(** [postings_total t] is the flat posting count over all keywords,
    without forcing any merge. *)
val postings_total : t -> int

(** [label_bytes_total t] is the resident packed-label byte count: all
    list buffers on a flat backing; the shared expansion buffer plus
    already-merged views on a DAG backing. Never forces anything. *)
val label_bytes_total : t -> int

(** [resident_bytes t] estimates total resident bytes of the backing
    (see {!packed_bytes} for the accounting), including, on a DAG
    backing, the compressed structure plus the merged-view cache.
    Never forces anything. *)
val resident_bytes : t -> int

(** [packed_postings pk] is the number of postings in a packed list. *)
val packed_postings : packed -> int

(** [packed_label_bytes pk] is the size of the packed label buffer. *)
val packed_label_bytes : packed -> int

(** [packed_bytes pk] estimates the resident bytes of a packed list:
    label buffer plus one word per offsets slot and node-type id. *)
val packed_bytes : packed -> int
