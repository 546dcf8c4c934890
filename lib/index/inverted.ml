open Xr_xml

type posting = { dewey : Dewey.t; path : Path.id }

(* Struct-of-arrays posting list: all labels in one packed buffer, node
   types alongside. This is the only resident representation — boxed
   posting records are decoded from it on demand and never kept. *)
type packed = { labels : Dewey.Packed.t; paths : int array }

(* Two resident backings behind one accessor surface:

   - [Flat]: one packed list per keyword, the uncompressed form.
   - [Dag]: the DAG-compressed expansion ({!Xr_dag}), with per-keyword
     flat views merged out of it on first access and memoized. A merged
     view is byte-identical to what the flat build would have packed, so
     every downstream consumer — kernels, refinement, persistence, the
     batch planner — sees exactly the flat index through [packed_list],
     paying the merge once per touched keyword instead of keeping every
     list resident.

   The memo cells use atomic release/acquire publication, which makes
   merging safe when the index is shared across query domains; a racing
   domain at worst merges twice. *)
type t =
  | Flat of packed array (* indexed by keyword id *)
  | Dag of dag_backing

and dag_backing = {
  dag : Xr_dag.t;
  merged : packed option Atomic.t array;
  merges : int Atomic.t; (* merges performed (memo hits excluded) *)
}

let empty_packed = { labels = Dewey.Packed.empty; paths = [||] }

let pack_postings (postings : posting array) =
  {
    labels = Dewey.Packed.of_array (Array.map (fun p -> p.dewey) postings);
    paths = Array.map (fun p -> p.path) postings;
  }

let of_packed packed = Flat packed

let of_lists lists = of_packed (Array.map pack_postings lists)

let of_dag dag =
  Dag
    {
      dag;
      merged = Array.init (Xr_dag.vocab dag) (fun _ -> Atomic.make None);
      merges = Atomic.make 0;
    }

let dag = function Flat _ -> None | Dag d -> Some d.dag

let vocab = function Flat packed -> Array.length packed | Dag d -> Array.length d.merged

let build (doc : Doc.t) =
  let n = Interner.size doc.keywords in
  let acc = Array.make n [] in
  (* Nodes are in document order; build lists in reverse then flip. *)
  Array.iter
    (fun (node : Doc.node) ->
      List.iter
        (fun (kw, _count) ->
          acc.(kw) <- { dewey = node.dewey; path = node.path } :: acc.(kw))
        node.keywords)
    doc.nodes;
  of_lists (Array.map (fun l -> Array.of_list (List.rev l)) acc)

let packed_list t kw =
  match t with
  | Flat packed -> if kw >= 0 && kw < Array.length packed then packed.(kw) else empty_packed
  | Dag d ->
    if kw < 0 || kw >= Array.length d.merged then empty_packed
    else begin
      let cell = d.merged.(kw) in
      match Atomic.get cell with
      | Some pk -> pk
      | None ->
        let labels, paths = Xr_dag.merge d.dag kw in
        let pk = { labels; paths } in
        Atomic.incr d.merges;
        Atomic.set cell (Some pk);
        pk
    end

(* Force the flat views of [kws] before the scan needs them. Flat
   backing: free. DAG backing: merge every not-yet-resident view —
   concurrently, one pool task per keyword, when a multi-domain pool
   is available (default: the global pool only if it already exists,
   so CLI one-shots never spawn domains to warm a cache). Merges are
   independent per keyword and the memo cells tolerate racing writers,
   so this is purely a scheduling change. *)
let prefetch ?pool t kws =
  match t with
  | Flat _ -> ()
  | Dag d -> (
    let todo =
      List.filter
        (fun kw -> kw >= 0 && kw < Array.length d.merged && Atomic.get d.merged.(kw) = None)
        (List.sort_uniq compare kws)
    in
    match todo with
    | [] -> ()
    | [ kw ] -> ignore (packed_list t kw)
    | kws -> (
      let pool = match pool with Some _ as p -> p | None -> Xr_pool.peek_global () in
      match pool with
      | Some pool when Xr_pool.size pool > 1 ->
        let arr = Array.of_list kws in
        Xr_pool.run pool (Array.map (fun kw () -> ignore (packed_list t kw)) arr)
      | _ -> List.iter (fun kw -> ignore (packed_list t kw)) kws))

let peek_merged t kw =
  match t with
  | Flat packed -> if kw >= 0 && kw < Array.length packed then Some packed.(kw) else None
  | Dag d ->
    if kw < 0 || kw >= Array.length d.merged then None else Atomic.get d.merged.(kw)

let list t kw =
  let pk = packed_list t kw in
  Array.init (Dewey.Packed.length pk.labels) (fun i ->
      { dewey = Dewey.Packed.get pk.labels i; path = pk.paths.(i) })

let merge_count = function Flat _ -> 0 | Dag d -> Atomic.get d.merges

let merged_keywords t =
  match t with
  | Flat _ -> 0
  | Dag d ->
    Array.fold_left
      (fun a cell -> match Atomic.get cell with Some _ -> a + 1 | None -> a)
      0 d.merged

let list_by_name t doc k =
  match Doc.keyword_id doc k with Some kw -> list t kw | None -> [||]

let length t kw =
  match t with
  | Flat packed ->
    if kw >= 0 && kw < Array.length packed then Dewey.Packed.length packed.(kw).labels
    else 0
  | Dag d -> Xr_dag.posting_count d.dag kw

let keyword_count t =
  match t with
  | Flat packed ->
    Array.fold_left
      (fun a pk -> if Dewey.Packed.length pk.labels > 0 then a + 1 else a)
      0 packed
  | Dag d ->
    let n = ref 0 in
    for kw = 0 to Array.length d.merged - 1 do
      if Xr_dag.posting_count d.dag kw > 0 then incr n
    done;
    !n

let iter f t =
  for kw = 0 to vocab t - 1 do
    f kw (list t kw)
  done

let iter_packed f t =
  for kw = 0 to vocab t - 1 do
    f kw (packed_list t kw)
  done

let iter_lengths f t =
  match t with
  | Flat packed -> Array.iteri (fun kw pk -> f kw (Dewey.Packed.length pk.labels)) packed
  | Dag d ->
    for kw = 0 to Array.length d.merged - 1 do
      f kw (Xr_dag.posting_count d.dag kw)
    done

let packed_array t =
  match t with
  | Flat packed -> packed
  | Dag d -> Array.init (Array.length d.merged) (fun kw -> packed_list t kw)

let to_flat t = match t with Flat _ -> t | Dag _ -> of_packed (packed_array t)

(* Appends in packed form: the touched lists are never decoded. *)
let extend t ~vocab_size additions =
  let old_packed = packed_array t in
  let n = max vocab_size (Array.length old_packed) in
  let packed = Array.make n empty_packed in
  Array.blit old_packed 0 packed 0 (Array.length old_packed);
  List.iter
    (fun (kw, postings) ->
      let old = packed.(kw) and fresh = pack_postings (Array.of_list postings) in
      let n0 = Dewey.Packed.length old.labels in
      if
        n0 > 0
        && Dewey.Packed.length fresh.labels > 0
        && Dewey.Packed.compare_entries old.labels (n0 - 1) fresh.labels 0 >= 0
      then invalid_arg "Inverted.extend: appended postings must extend document order";
      packed.(kw) <-
        {
          labels = Dewey.Packed.append old.labels fresh.labels;
          paths = Array.append old.paths fresh.paths;
        })
    additions;
  of_packed packed

(* ---- footprint accounting (surfaced by the server's /stats) ------------- *)

let packed_postings pk = Dewey.Packed.length pk.labels

let packed_label_bytes pk = Dewey.Packed.byte_size pk.labels

let packed_bytes pk =
  (* label buffer + one word per offsets-table slot + one word per node
     type id; the words dominate, which is why the offsets table stays
     the cost to beat for further compression. *)
  Dewey.Packed.byte_size pk.labels
  + (8 * (Dewey.Packed.length pk.labels + 1))
  + (8 * Array.length pk.paths)

let postings_total t =
  match t with
  | Flat packed -> Array.fold_left (fun a pk -> a + packed_postings pk) 0 packed
  | Dag d -> Xr_dag.postings_total d.dag

let sum_merged f d =
  Array.fold_left
    (fun a cell -> match Atomic.get cell with Some pk -> a + f pk | None -> a)
    0 d.merged

let label_bytes_total t =
  match t with
  | Flat packed -> Array.fold_left (fun a pk -> a + packed_label_bytes pk) 0 packed
  | Dag d -> Xr_dag.label_bytes d.dag + sum_merged packed_label_bytes d

let resident_bytes t =
  match t with
  | Flat packed -> Array.fold_left (fun a pk -> a + packed_bytes pk) 0 packed
  | Dag d ->
    (* honest accounting: the compressed structure plus whatever flat
       views queries have already merged out of it — the worst case
       (every keyword touched) is the flat index plus the DAG *)
    Xr_dag.bytes d.dag + sum_merged packed_bytes d
