open Xr_xml
module P = Dewey.Packed

type stats = {
  nodes : int;
  classes : int;
  occurrence_classes : int;
  instances : int;
  tree_edges : int;
  dag_edges : int;
  postings : int;
}

(* The resident encoding. Everything a query touches is either O(1)
   (per-keyword counts, class bounds) or a byte buffer decoded lazily:

   - [exp_labels]/[exp_paths]: the expansion table — every instance of
     every occurrence class exactly once, grouped class by class,
     document order within a class. One entry per *node*, shared by all
     of the node's keywords; the flat index stores it once per
     (node, keyword) pair instead.
   - [class_bounds]/[class_path_off]: occurrence class -> its entry
     range / path-varint range in the expansion.
   - [kw_off]/[kw_blob]: per keyword, [varint total-postings]
     [varint class-count] [delta-varint ascending class ids]. The
     leading total makes {!posting_count} effectively O(1) without a
     word-sized table per keyword — at small corpus sizes three int
     arrays over the vocabulary would eat most of the compression
     win. *)
type t = {
  vocab : int;
  stats : stats;
  exp_labels : P.t;
  exp_paths : string;
  class_bounds : int array;
  class_path_off : int array;
  kw_off : int array;
  kw_blob : string;
}

(* ---- varints (unsigned LEB128, same wire form as Dewey.Packed) ------- *)

let add_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let rec read_from s off shift acc =
  let b = Char.code (String.unsafe_get s off) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then (acc, off + 1) else read_from s (off + 1) (shift + 7) acc

let read s off = read_from s off 0 0

(* ---- build ------------------------------------------------------------ *)

(* Bottom-up hash-consing over a canonical key string per node: tag,
   attributes, and the children in order — text children verbatim,
   element children by their (already assigned) class id. Every piece is
   length-prefixed, so distinct subtrees can never collide; the total
   key volume is O(document). Two nodes of one class therefore have
   identical tag/text/attributes, hence identical [Doc.direct_keywords]
   — the invariant the occurrence-class grouping rests on (and checked
   below, so a future change to tokenization cannot silently corrupt
   the compressed index). *)
let build (doc : Doc.t) =
  let nodes = doc.Doc.nodes in
  let nnodes = Array.length nodes in
  let vocab = Interner.size doc.Doc.keywords in
  let class_of_key : (string, int) Hashtbl.t = Hashtbl.create (max 64 nnodes) in
  let nclasses = ref 0 in
  let tree_edges = ref 0 and dag_edges = ref 0 in
  let occ_of_class : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let occ_kws_rev = ref [] in
  let nocc = ref 0 in
  let pairs_rev = ref [] in
  (* (occurrence class, node index), document order *)
  let ninst = ref 0 and postings = ref 0 in
  let idx = ref 0 in
  let buf = Buffer.create 128 in
  (* shared: used strictly between a node's children returning and its
     own key being interned, never across the recursion *)
  let rec walk (e : Tree.t) =
    let my = !idx in
    incr idx;
    let kids =
      List.rev (List.fold_left (fun acc c -> walk c :: acc) [] (Tree.element_children e))
    in
    tree_edges := !tree_edges + List.length kids;
    Buffer.clear buf;
    let adds s =
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s
    in
    adds e.Tree.tag;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf 'a';
        adds k;
        adds v)
      e.Tree.attrs;
    let kid = ref kids in
    List.iter
      (function
        | Tree.Text s ->
          Buffer.add_char buf 't';
          adds s
        | Tree.Elem _ -> (
          match !kid with
          | c :: rest ->
            Buffer.add_char buf 'e';
            Buffer.add_string buf (string_of_int c);
            Buffer.add_char buf ';';
            kid := rest
          | [] -> assert false))
      e.Tree.children;
    let key = Buffer.contents buf in
    let c =
      match Hashtbl.find_opt class_of_key key with
      | Some c -> c
      | None ->
        let c = !nclasses in
        incr nclasses;
        Hashtbl.add class_of_key key c;
        dag_edges := !dag_edges + List.length kids;
        c
    in
    let node = nodes.(my) in
    if node.Doc.keywords <> [] then begin
      let occ =
        match Hashtbl.find_opt occ_of_class c with
        | Some o -> o
        | None ->
          let o = !nocc in
          incr nocc;
          Hashtbl.add occ_of_class c o;
          occ_kws_rev := node.Doc.keywords :: !occ_kws_rev;
          o
      in
      pairs_rev := (occ, my) :: !pairs_rev;
      incr ninst;
      postings := !postings + List.length node.Doc.keywords
    end;
    c
  in
  ignore (walk doc.Doc.tree);
  if !idx <> nnodes then
    failwith "Xr_dag.build: tree walk out of step with the compiled node array";
  let nocc = !nocc and ninst = !ninst in
  let occ_kws = Array.of_list (List.rev !occ_kws_rev) in
  let pairs = List.rev !pairs_rev in
  List.iter
    (fun (o, n) ->
      if nodes.(n).Doc.keywords <> occ_kws.(o) then
        failwith "Xr_dag.build: identical subtrees with differing direct keywords")
    pairs;
  let sizes = Array.make (max 1 nocc) 0 in
  List.iter (fun (o, _) -> sizes.(o) <- sizes.(o) + 1) pairs;
  let class_bounds = Array.make (nocc + 1) 0 in
  for o = 0 to nocc - 1 do
    class_bounds.(o + 1) <- class_bounds.(o) + sizes.(o)
  done;
  let inst_nodes = Array.make (max 1 ninst) 0 in
  let cursor = Array.copy class_bounds in
  List.iter
    (fun (o, n) ->
      inst_nodes.(cursor.(o)) <- n;
      cursor.(o) <- cursor.(o) + 1)
    pairs;
  let exp_labels =
    P.of_array (Array.init ninst (fun i -> nodes.(inst_nodes.(i)).Doc.dewey))
  in
  let pbuf = Buffer.create (ninst * 2) in
  let class_path_off = Array.make (nocc + 1) 0 in
  for o = 0 to nocc - 1 do
    class_path_off.(o) <- Buffer.length pbuf;
    for i = class_bounds.(o) to class_bounds.(o + 1) - 1 do
      add_varint pbuf nodes.(inst_nodes.(i)).Doc.path
    done
  done;
  class_path_off.(nocc) <- Buffer.length pbuf;
  let exp_paths = Buffer.contents pbuf in
  let kcls : int list array = Array.make (max 1 vocab) [] in
  let kcount = Array.make (max 1 vocab) 0 in
  for o = 0 to nocc - 1 do
    List.iter
      (fun (kw, _count) ->
        kcls.(kw) <- o :: kcls.(kw);
        kcount.(kw) <- kcount.(kw) + sizes.(o))
      occ_kws.(o)
  done;
  let kbuf = Buffer.create (vocab * 4) in
  let kw_off = Array.make (vocab + 1) 0 in
  for kw = 0 to vocab - 1 do
    kw_off.(kw) <- Buffer.length kbuf;
    match kcls.(kw) with
    | [] -> ()
    | rev ->
      let cls = List.rev rev in
      add_varint kbuf kcount.(kw);
      add_varint kbuf (List.length cls);
      let prev = ref 0 in
      List.iter
        (fun c ->
          add_varint kbuf (c - !prev);
          prev := c)
        cls
  done;
  kw_off.(vocab) <- Buffer.length kbuf;
  {
    vocab;
    stats =
      {
        nodes = nnodes;
        classes = !nclasses;
        occurrence_classes = nocc;
        instances = ninst;
        tree_edges = !tree_edges;
        dag_edges = !dag_edges;
        postings = !postings;
      };
    exp_labels;
    exp_paths;
    class_bounds;
    class_path_off;
    kw_off;
    kw_blob = Buffer.contents kbuf;
  }

(* ---- accessors -------------------------------------------------------- *)

let stats t = t.stats

let vocab t = t.vocab

let expansion t = t.exp_labels

let postings_total t = t.stats.postings

let posting_count t kw =
  if kw < 0 || kw >= t.vocab || t.kw_off.(kw) = t.kw_off.(kw + 1) then 0
  else fst (read t.kw_blob t.kw_off.(kw))

let class_list t kw =
  if kw < 0 || kw >= t.vocab || t.kw_off.(kw) = t.kw_off.(kw + 1) then [||]
  else begin
    let _, off = read t.kw_blob t.kw_off.(kw) in
    let m, off = read t.kw_blob off in
    let cls = Array.make m 0 in
    let off = ref off and prev = ref 0 in
    for j = 0 to m - 1 do
      let d, o = read t.kw_blob !off in
      prev := !prev + d;
      cls.(j) <- !prev;
      off := o
    done;
    cls
  end

let label_bytes t = P.byte_size t.exp_labels

let bytes t =
  P.byte_size t.exp_labels
  + (8 * (P.length t.exp_labels + 1))
  + String.length t.exp_paths
  + (8 * Array.length t.class_bounds)
  + (8 * Array.length t.class_path_off)
  + (8 * Array.length t.kw_off)
  + String.length t.kw_blob

let node_dedup_ratio t =
  if t.stats.nodes = 0 then 1.0
  else float_of_int t.stats.classes /. float_of_int t.stats.nodes

let edge_dedup_ratio t =
  if t.stats.tree_edges = 0 then 1.0
  else float_of_int t.stats.dag_edges /. float_of_int t.stats.tree_edges

(* ---- expansion to the flat form --------------------------------------- *)

(* K-way merge of the keyword's class ranges by document order. Entries
   within a range are already sorted and ranges never share a label, so
   a binary min-heap over the range heads yields the exact flat posting
   order; re-encoding through [P.of_array] makes the result
   byte-identical to what {!Xr_index.Inverted.build} packs — merged
   lists are indistinguishable from flat ones downstream, caches and
   persistence included. *)
let merge t kw =
  let total = posting_count t kw in
  if total = 0 then (P.empty, [||])
  else begin
    let cls = class_list t kw in
    let m = Array.length cls in
    let cur = Array.make m 0 and hi = Array.make m 0 and poff = Array.make m 0 in
    for j = 0 to m - 1 do
      cur.(j) <- t.class_bounds.(cls.(j));
      hi.(j) <- t.class_bounds.(cls.(j) + 1);
      poff.(j) <- t.class_path_off.(cls.(j))
    done;
    let labels = Array.make total [||] in
    let paths = Array.make total 0 in
    let take out j =
      labels.(out) <- P.get t.exp_labels cur.(j);
      let v, o = read t.exp_paths poff.(j) in
      paths.(out) <- v;
      poff.(j) <- o;
      cur.(j) <- cur.(j) + 1
    in
    if m = 1 then
      for out = 0 to total - 1 do
        take out 0
      done
    else begin
      let heap = Array.make m 0 in
      let hn = ref m in
      let less a b = P.compare_entries t.exp_labels cur.(a) t.exp_labels cur.(b) < 0 in
      let swap i j =
        let x = heap.(i) in
        heap.(i) <- heap.(j);
        heap.(j) <- x
      in
      let rec down i =
        let s = ref i in
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        if l < !hn && less heap.(l) heap.(!s) then s := l;
        if r < !hn && less heap.(r) heap.(!s) then s := r;
        if !s <> i then begin
          swap i !s;
          down !s
        end
      in
      for j = 0 to m - 1 do
        heap.(j) <- j
      done;
      for i = (m / 2) - 1 downto 0 do
        down i
      done;
      for out = 0 to total - 1 do
        let j = heap.(0) in
        take out j;
        if cur.(j) >= hi.(j) then begin
          decr hn;
          heap.(0) <- heap.(!hn)
        end;
        if !hn > 0 then down 0
      done
    end;
    (P.of_array labels, paths)
  end
