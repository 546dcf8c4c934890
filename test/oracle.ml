(* Shared test references, linked into every test executable: the
   definitional SLCA oracle, the random label/list/document generators
   of the properties, and adversarial document shapes.

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

(* ---- shared generators ---------------------------------------------------- *)

(* A random Dewey label of up to [depth] components, mostly below
   [small] (so prefixes and shared ancestors are common), with
   occasional two- and three-byte varint components. *)
let gen_label_sized ~depth ~small =
  QCheck.Gen.(
    list_size (int_bound depth)
      (frequency [ (6, int_bound small); (2, int_bound 300); (1, int_bound 100_000) ])
    |> map Array.of_list)

let gen_label = gen_label_sized ~depth:6 ~small:5

(* A non-empty posting list: 1 to [max_len] distinct labels in document
   order. *)
let gen_sorted_labels ?(label = gen_label) max_len =
  QCheck.Gen.(
    list_size (int_range 1 max_len) label |> map (fun l -> List.sort_uniq Dewey.compare l))

(* A random tree of depth up to 3 over the given tags and words: every
   inner element carries a word and up to [fanout] children. *)
let gen_tree ~tags ~words ~fanout =
  let open QCheck.Gen in
  let tag = oneofl tags and word = oneofl words in
  let rec node depth =
    if depth = 0 then map2 Tree.leaf tag word
    else
      frequency
        [
          (1, map2 Tree.leaf tag word);
          ( 2,
            fun st ->
              let tg = tag st in
              let w = word st in
              let children = list_size (int_bound fanout) (node (depth - 1)) st in
              Tree.elem tg (Tree.Text w :: List.map (fun c -> Tree.Elem c) children) );
        ]
  in
  node 3

(* Tiny random documents for the SLCA engine properties. *)
let gen_doc = gen_tree ~tags:[ "a"; "b"; "c" ] ~words:[ "x"; "y"; "z"; "w" ] ~fanout:4

(* ---- adversarial document shapes ------------------------------------------- *)

(* Deep repetition: one subtree pattern repeated at every level (6
   blocks of 5 identical entries). *)
let deep_repetition () =
  let entry =
    Tree.elem "entry" [ Tree.Elem (Tree.leaf "k" "alpha"); Tree.Elem (Tree.leaf "v" "beta") ]
  in
  let block = Tree.elem "block" (List.init 5 (fun _ -> Tree.Elem entry)) in
  Tree.elem "root" (List.init 6 (fun _ -> Tree.Elem block))

let single_node () = Tree.elem "root" [ Tree.Text "lonely" ]

(* All-distinct: 40 leaves, no two subtrees equal. *)
let all_distinct () =
  Tree.elem "root"
    (List.init 40 (fun i ->
         Tree.Elem (Tree.leaf "item" (Printf.sprintf "w%d unique%d" (i mod 7) i))))

let shapes () =
  [
    ("deep-repetition", deep_repetition ());
    ("single-node", single_node ());
    ("all-distinct", all_distinct ());
  ]

(* Random trees over a tiny vocabulary (so identical subtrees recur),
   with duplicated siblings, up to depth 4. The seed is the
   qcheck-shrinkable input; the tree is derived deterministically from
   it. *)
let tree_of_seed seed =
  let st = Random.State.make [| seed |] in
  let words = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon" |] in
  let tags = [| "a"; "b"; "c" |] in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let budget = ref (8 + Random.State.int st 40) in
  let rec node depth =
    decr budget;
    if depth >= 4 || !budget <= 0 || Random.State.int st 3 = 0 then
      Tree.leaf (pick tags) (pick words)
    else begin
      let kids = ref [] in
      let k = 1 + Random.State.int st 3 in
      for _ = 1 to k do
        let child = node (depth + 1) in
        let reps = 1 + Random.State.int st 3 in
        for _ = 1 to reps do
          kids := Tree.Elem child :: !kids
        done
      done;
      Tree.elem (pick tags) (List.rev !kids)
    end
  in
  Tree.elem "root" [ Tree.Elem (node 0) ]

(* ---- random documents with corrupted queries ------------------------------ *)

let gen_doc_query =
  let open QCheck.Gen in
  let doc =
    gen_tree ~tags:[ "a"; "b"; "c"; "d" ] ~words:[ "xx"; "yy"; "zz"; "ww"; "xxyy"; "zzww" ]
      ~fanout:3
  in
  (* query words include corrupted forms: split halves, glued pairs, typos *)
  let qword = oneofl [ "xx"; "yy"; "zz"; "ww"; "xxyy"; "zzww"; "x"; "xy"; "zzw"; "qq" ] in
  pair doc (list_size (int_range 1 3) qword)

let arb_refine_case =
  QCheck.make
    ~print:(fun (t, q) -> Printer.to_string t ^ "\nquery: " ^ String.concat "," q)
    gen_doc_query
