open Xr_xml

let memo_shard_count = 16 (* power of two: shard index is a hash mask *)

(* Counters of one (T, k) pair. [last] is the node index of the T-typed
   ancestor that [df] last counted. *)
type cell = { mutable df : int; mutable tf : int; mutable last : int }

(* Pair keys are [(path lsl 31) lor kw], independent of how large the
   vocabulary and the path table grow. The hash folds the path bits into
   the low bits a bucket index keeps, inline: [Hashtbl.hash] is a C call
   per pair. *)
module Cells = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lxor (k lsr 29)
end)

let max_kw = (1 lsl 31) - 1

let key path kw = if path < 0 || kw < 0 || kw > max_kw then -1 else (path lsl 31) lor kw

type t = {
  doc : Doc.t;
  inverted : Inverted.t;
  cells : cell Cells.t;
  distinct : int array; (* G_T, by path id *)
  nodes_per_path : int array; (* N_T, by path id *)
  memo_shards : memo_shard array;
      (* [cooccur] memoizes at query time; the index is otherwise
         read-only after [build]. The memo is sharded by key hash so
         request domains and pool workers filling it concurrently do
         not serialize on a single lock. *)
}

and memo_shard = {
  memo : (Path.id * Interner.id * Interner.id, int) Hashtbl.t;
  lock : Mutex.t;
}

let make_memo_shards () =
  Array.init memo_shard_count (fun _ ->
      { memo = Hashtbl.create 32; lock = Mutex.create () })

let cell t tpath kw =
  let k = key tpath kw in
  match Cells.find t.cells k with
  | c -> c
  | exception Not_found ->
    let c = { df = 0; tf = 0; last = -1 } in
    Cells.add t.cells k c;
    t.distinct.(tpath) <- t.distinct.(tpath) + 1;
    c

(* The accumulation kernel. [types.(d)] is the node's ancestor type at
   depth [d + 1] and [stack.(d)] the node index of that ancestor. Nodes
   arrive in pre-order, so a (T, k) pair's occurrences under one T-typed
   ancestor are consecutive: [df] counts a new ancestor exactly when it
   differs from the pair's [last]. Top-level recursion over the keyword
   list and the ancestor depths, so nothing is allocated per pair. *)
let rec add_keyword t types stack kw count d =
  if d >= 0 then begin
    let c = cell t (Array.unsafe_get types d) kw in
    c.tf <- c.tf + count;
    let ancestor = stack.(d) in
    if c.last <> ancestor then begin
      c.last <- ancestor;
      c.df <- c.df + 1
    end;
    add_keyword t types stack kw count (d - 1)
  end

let rec add_keywords t types stack = function
  | [] -> ()
  | (kw, count) :: rest ->
    add_keyword t types stack kw count (Array.length types - 1);
    add_keywords t types stack rest

(* Counts [nodes], whose first node has index [base] in the document.
   [stack] starts all zero: an appended partition's nodes all sit under
   the root, node 0. *)
let accumulate t nodes ~base =
  let paths = t.doc.Doc.paths in
  let types =
    Array.init (Path.size paths) (fun p ->
        Array.of_list (List.rev (Path.ancestors paths p)))
  in
  let depth = Array.fold_left (fun m a -> max m (Array.length a)) 1 types in
  let stack = Array.make depth 0 in
  Array.iteri
    (fun j (node : Doc.node) ->
      let types = types.(node.path) in
      stack.(Array.length types - 1) <- base + j;
      t.nodes_per_path.(node.path) <- t.nodes_per_path.(node.path) + 1;
      add_keywords t types stack node.keywords)
    nodes

let make doc inverted cells ~distinct ~nodes_per_path =
  { doc; inverted; cells; distinct; nodes_per_path; memo_shards = make_memo_shards () }

let build (doc : Doc.t) inverted =
  let npaths = Path.size doc.paths in
  let t =
    make doc inverted (Cells.create 4096) ~distinct:(Array.make npaths 0)
      ~nodes_per_path:(Array.make npaths 0)
  in
  accumulate t doc.nodes ~base:0;
  t

(* The kernel over the added nodes alone. Their ancestors are new nodes
   and the root, whose cells already hold [last = 0], so the root is
   never counted twice. *)
let append t ~doc ~inverted ~added =
  let npaths = Path.size doc.Doc.paths in
  let grow a = Array.append a (Array.make (npaths - Array.length a) 0) in
  let t' =
    make doc inverted t.cells ~distinct:(grow t.distinct)
      ~nodes_per_path:(grow t.nodes_per_path)
  in
  accumulate t' added ~base:(Doc.node_count doc - Array.length added);
  t'

let fork t ~doc =
  let cells = Cells.create (Cells.length t.cells) in
  Cells.iter
    (fun k c -> Cells.add cells k { df = c.df; tf = c.tf; last = c.last })
    t.cells;
  make doc t.inverted cells ~distinct:(Array.copy t.distinct)
    ~nodes_per_path:(Array.copy t.nodes_per_path)

let doc t = t.doc

let df t ~path ~kw =
  match Cells.find t.cells (key path kw) with c -> c.df | exception Not_found -> 0

let tf t ~path ~kw =
  match Cells.find t.cells (key path kw) with c -> c.tf | exception Not_found -> 0

let distinct_keywords t path =
  if path >= 0 && path < Array.length t.distinct then t.distinct.(path) else 0

let node_count t path =
  if path >= 0 && path < Array.length t.nodes_per_path then t.nodes_per_path.(path) else 0

(* Distinct T-typed nodes whose subtrees hold both keywords. Such a node
   is identified by its Dewey label, the first d = depth(T) - 1
   components of every posting under it. The shorter list leads: for
   each of its entries that descends from a T-typed node p (one path
   climb), the longer list gallops to its first entry >= p, a hit iff
   that entry lies under p — it then descends from the same T-typed
   node, so it needs no type check of its own — and the shorter list
   steps past its other entries under p. The longer list is only probed,
   never walked, and the probes allocate nothing. *)
let cooccur_compute t ~path k1 k2 =
  let d = Path.depth t.doc.paths path - 1 in
  let a = Inverted.packed_list t.inverted k1 and b = Inverted.packed_list t.inverted k2 in
  let short, long =
    if Dewey.Packed.length a.Inverted.labels <= Dewey.Packed.length b.Inverted.labels
    then (a, b)
    else (b, a)
  in
  let labels = short.Inverted.labels in
  let n = Dewey.Packed.length labels in
  let cur = Cursor.Packed.make long.Inverted.labels in
  let p = Array.make (max 1 (Dewey.Packed.max_depth labels)) 0 in
  let under_p l j = Dewey.Packed.common_prefix_len_sub l j p d = d in
  let hits = ref 0 and i = ref 0 in
  while !i < n && not (Cursor.Packed.at_end cur) do
    if Path.is_prefix t.doc.paths ~ancestor:path ~descendant:short.Inverted.paths.(!i)
    then begin
      ignore (Dewey.Packed.blit_entry labels !i p);
      Cursor.Packed.seek_geq_sub cur p d;
      if
        (not (Cursor.Packed.at_end cur))
        && under_p long.Inverted.labels (Cursor.Packed.position cur)
      then incr hits;
      incr i;
      while !i < n && under_p labels !i do
        incr i
      done
    end
    else incr i
  done;
  !hits

let memo_fam =
  Xr_obs.Registry.Counter.family ~name:"xr_stats_cooccur_memo_total"
    ~help:"Co-occurrence memo lookups during ranking" ~label_names:[ "outcome" ] ()

let memo_hits_h = Xr_obs.Registry.Counter.handle memo_fam [ "hit" ]

let memo_misses_h = Xr_obs.Registry.Counter.handle memo_fam [ "miss" ]

let cooccur t ~path k1 k2 =
  let k1, k2 = if k1 <= k2 then (k1, k2) else (k2, k1) in
  if k1 = k2 then df t ~path ~kw:k1
  else begin
    let key = (path, k1, k2) in
    let shard = t.memo_shards.(Hashtbl.hash key land (memo_shard_count - 1)) in
    let cached = Mutex.protect shard.lock (fun () -> Hashtbl.find_opt shard.memo key) in
    match cached with
    | Some v ->
      Xr_obs.Registry.Counter.inc memo_hits_h;
      v
    | None ->
      Xr_obs.Registry.Counter.inc memo_misses_h;
      (* Compute outside the lock: a racing domain at worst recomputes the
         same value; [replace] keeps the table consistent either way. *)
      let v = cooccur_compute t ~path k1 k2 in
      Mutex.protect shard.lock (fun () -> Hashtbl.replace shard.memo key v);
      v
  end

let paths_containing t kw =
  let acc = ref [] in
  Cells.iter
    (fun k c -> if k land max_kw = kw then acc := (k lsr 31, c.df) :: !acc)
    t.cells;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let path_count t = Path.size t.doc.paths

let export t =
  let acc = ref [] in
  Cells.iter (fun k c -> acc := (k lsr 31, k land max_kw, c.df, c.tf) :: !acc) t.cells;
  List.sort compare !acc

(* Appended nodes sit under the root alone, so [last = 0] keeps every
   imported cell from counting an old ancestor again. *)
let import (doc : Doc.t) inverted ~rows ~nodes_per_path =
  let npaths = Path.size doc.paths and nkw = Interner.size doc.keywords in
  let t =
    make doc inverted (Cells.create 4096) ~distinct:(Array.make npaths 0) ~nodes_per_path
  in
  List.iter
    (fun (path, kw, d, f) ->
      if
        path < 0 || path >= npaths || kw < 0 || kw >= nkw
        || Cells.mem t.cells (key path kw)
        || d < 1 || d > nodes_per_path.(path) || f < d
      then failwith (Printf.sprintf "bad frequency row (%d, %d, %d, %d)" path kw d f);
      let c = cell t path kw in
      c.df <- d;
      c.tf <- f;
      c.last <- 0)
    rows;
  t

let total_nodes t = Doc.node_count t.doc
