(* Shared test references, linked into every test executable: the
   definitional SLCA oracle and the random document/query generator of
   the refinement properties.

   The oracle reads only the compiled document's nodes — no posting
   list, cursor or kernel — so it is independent of everything it
   checks. A node is an SLCA iff its subtree contains every keyword and
   no child subtree does too. Subtrees are contiguous in document order,
   so "contains keyword k" is a difference of per-keyword prefix counts
   over the node array, and one pass decides every node: linear in the
   number of nodes. *)

open Xr_xml

type t = {
  doc : Doc.t;
  ends : int array;  (** nodes [i .. ends.(i) - 1] form node [i]'s subtree *)
  parents : int array;  (** node index of the parent, -1 for the root *)
  counts : (Interner.id, int array) Hashtbl.t;
      (** per keyword, [c.(i)] = nodes among the first [i] that contain it
          directly; filled on first use *)
}

let make (doc : Doc.t) =
  let nodes = doc.Doc.nodes in
  let n = Array.length nodes in
  let ends = Array.make n n and parents = Array.make n (-1) in
  (* open ancestors of the current node, deepest first *)
  let rec close i depth = function
    | j :: rest when Dewey.depth nodes.(j).Doc.dewey >= depth ->
      ends.(j) <- i;
      close i depth rest
    | open_ -> open_
  in
  let stack = ref [] in
  Array.iteri
    (fun i (node : Doc.node) ->
      stack := close i (Dewey.depth node.Doc.dewey) !stack;
      (match !stack with p :: _ -> parents.(i) <- p | [] -> ());
      stack := i :: !stack)
    nodes;
  { doc; ends; parents; counts = Hashtbl.create 16 }

let counts t kw =
  match Hashtbl.find_opt t.counts kw with
  | Some c -> c
  | None ->
    let nodes = t.doc.Doc.nodes in
    let c = Array.make (Array.length nodes + 1) 0 in
    Array.iteri
      (fun i (node : Doc.node) ->
        c.(i + 1) <- (c.(i) + if List.mem_assoc kw node.Doc.keywords then 1 else 0))
      nodes;
    Hashtbl.add t.counts kw c;
    c

(* [slca t keywords] is the SLCA set of the conjunctive query
   [keywords] (normalized, duplicates collapse), in document order;
   empty for an empty query or a keyword absent from the document. *)
let slca t keywords =
  let ids = List.map (Doc.keyword_id t.doc) keywords in
  if ids = [] || List.mem None ids then []
  else begin
    let ids = List.sort_uniq compare (List.map Option.get ids) in
    let counts = List.map (counts t) ids in
    let n = Array.length t.ends in
    let covers i = List.for_all (fun c -> c.(t.ends.(i)) > c.(i)) counts in
    let covered = Array.init n covers in
    let child_covers = Array.make n false in
    Array.iteri
      (fun i p -> if covered.(i) && p >= 0 then child_covers.(p) <- true)
      t.parents;
    List.filter_map
      (fun i ->
        if covered.(i) && not child_covers.(i) then Some t.doc.Doc.nodes.(i).Doc.dewey
        else None)
      (List.init n Fun.id)
  end

(* ---- random documents with corrupted queries ------------------------------ *)

let gen_doc_query =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d" ] in
  let word = oneofl [ "xx"; "yy"; "zz"; "ww"; "xxyy"; "zzww" ] in
  let rec node depth =
    if depth = 0 then map2 Tree.leaf tag word
    else
      frequency
        [
          (1, map2 Tree.leaf tag word);
          ( 2,
            (fun st ->
              let tg = tag st in
              let w = word st in
              let children = list_size (int_bound 3) (node (depth - 1)) st in
              Tree.elem tg (Tree.Text w :: List.map (fun c -> Tree.Elem c) children)) );
        ]
  in
  (* query words include corrupted forms: split halves, glued pairs, typos *)
  let qword = oneofl [ "xx"; "yy"; "zz"; "ww"; "xxyy"; "zzww"; "x"; "xy"; "zzw"; "qq" ] in
  pair (node 3) (list_size (int_range 1 3) qword)

let arb_refine_case =
  QCheck.make
    ~print:(fun (t, q) -> Printer.to_string t ^ "\nquery: " ^ String.concat "," q)
    gen_doc_query
