(* DAG-compressed index (Xr_dag): hash-consing invariants, the headline
   equivalence property — a DAG-backed index is indistinguishable from
   the flat build everywhere (per-keyword merged lists byte-identical,
   SLCA engines and the refinement pipeline return identical results) —
   plus the mode plumbing: compress round trips, incremental append,
   persistence. Adversarial shapes (deep repetition, single node,
   all-distinct subtrees) run both as fixed cases and as a qcheck
   property over generated trees. *)

open Xr_xml
module P = Dewey.Packed
module Inverted = Xr_index.Inverted
module Index = Xr_index.Index
module Engine = Xr_slca.Engine

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Test corpora stay small: the suite runs 2x2 (pool x index) in CI. *)
let corpora =
  lazy
    [
      ("figure1", Xr_data.Figure1.doc ());
      ("baseball", Xr_data.Baseball.doc ());
      ("auction", Xr_data.Auction.doc ());
      ("dblp", Doc.of_tree (Xr_data.Dblp.scaled ~publications:120 ~seed:7));
    ]

let both_builds doc =
  (Index.build ~mode:Index.Flat doc, Index.build ~mode:Index.Dag doc)

let dag_of (index : Index.t) =
  match Inverted.dag index.Index.inverted with
  | Some d -> d
  | None -> Alcotest.fail "dag-mode index has no dag backing"

(* Keyword ids with non-empty lists, most frequent first. *)
let keywords_by_frequency (index : Index.t) =
  let acc = ref [] in
  Inverted.iter_lengths (fun kw n -> if n > 0 then acc := (kw, n) :: !acc) index.Index.inverted;
  List.map fst (List.sort (fun (_, a) (_, b) -> Int.compare b a) !acc)

(* Query mix: frequent pairs/triples, rare pairs, and a frequent/rare
   mix. *)
let query_mix (index : Index.t) =
  match keywords_by_frequency index with
  | [] | [ _ ] -> []
  | kws ->
    let n = List.length kws in
    let at i = List.nth kws (min i (n - 1)) in
    let last i = List.nth kws (max 0 (n - 1 - i)) in
    [
      [ at 0; at 1 ];
      [ at 0; at 1; at 2 ];
      [ last 0; last 1 ];
      [ last 0; last 1; last 2 ];
      [ at 0; last 0 ];
      [ at 0 ];
      [ last 1 ];
    ]
    |> List.map (List.sort_uniq Int.compare)

let dewey_list = Alcotest.testable (Fmt.Dump.list Dewey.pp) (List.equal Dewey.equal)

(* ---- structural invariants ---------------------------------------------- *)

let test_stats_invariants () =
  List.iter
    (fun (name, doc) ->
      let _, dagged = both_builds doc in
      let dag = dag_of dagged in
      let s = Xr_dag.stats dag in
      check Alcotest.int (name ^ " nodes") (Doc.node_count doc) s.Xr_dag.nodes;
      if not (s.Xr_dag.classes <= s.Xr_dag.nodes && s.Xr_dag.classes > 0) then
        Alcotest.failf "%s: classes %d out of range" name s.Xr_dag.classes;
      if s.Xr_dag.dag_edges > s.Xr_dag.tree_edges then
        Alcotest.failf "%s: dag edges exceed tree edges" name;
      if s.Xr_dag.occurrence_classes > s.Xr_dag.classes then
        Alcotest.failf "%s: occurrence classes exceed classes" name;
      if s.Xr_dag.instances > s.Xr_dag.nodes then
        Alcotest.failf "%s: instances exceed nodes" name;
      (* expansion covers exactly the instances, grouped by class *)
      check Alcotest.int (name ^ " expansion length") s.Xr_dag.instances
        (P.length (Xr_dag.expansion dag));
      let r1 = Xr_dag.node_dedup_ratio dag and r2 = Xr_dag.edge_dedup_ratio dag in
      if not (r1 > 0. && r1 <= 1. && r2 > 0. && r2 <= 1.) then
        Alcotest.failf "%s: dedup ratios out of range (%f, %f)" name r1 r2)
    (Lazy.force corpora)

(* ---- the equivalence property ------------------------------------------- *)

(* Every keyword's merged list must be byte-identical to the flat pack:
   same label buffer, same offsets, same per-posting path ids. *)
let assert_lists_identical name (flat : Index.t) (other : Index.t) =
  check Alcotest.int
    (name ^ " postings_total")
    (Inverted.postings_total flat.Index.inverted)
    (Inverted.postings_total other.Index.inverted);
  Inverted.iter_lengths
    (fun kw _ ->
      let a = Inverted.packed_list flat.Index.inverted kw in
      let b = Inverted.packed_list other.Index.inverted kw in
      let abuf, aoff, adepth = P.to_raw a.Inverted.labels in
      let bbuf, boff, bdepth = P.to_raw b.Inverted.labels in
      if abuf <> bbuf then Alcotest.failf "%s: kw %d label buffers differ" name kw;
      if aoff <> boff then Alcotest.failf "%s: kw %d offset tables differ" name kw;
      if adepth <> bdepth then Alcotest.failf "%s: kw %d max depths differ" name kw;
      if a.Inverted.paths <> b.Inverted.paths then
        Alcotest.failf "%s: kw %d path ids differ" name kw)
    flat.Index.inverted

let test_merge_byte_identical () =
  List.iter
    (fun (name, doc) ->
      let flat, dagged = both_builds doc in
      assert_lists_identical name flat dagged)
    (Lazy.force corpora)

(* Engines under test on the dag side: the packed scan family plus the
   packed stack. *)
let engines = [ Engine.Scan_packed; Engine.Stack_packed; Engine.Scan_parallel ]

let assert_queries_equal name (flat : Index.t) (dagged : Index.t) queries =
  List.iter
    (fun ids ->
      let reference = Engine.query_ids Engine.Scan_eager flat ids in
      List.iter
        (fun alg ->
          let got = Engine.query_ids alg dagged ids in
          check dewey_list
            (Printf.sprintf "%s %s on dag" name (Engine.name alg))
            reference got)
        engines)
    queries

let test_engines_equivalent () =
  List.iter
    (fun (name, doc) ->
      let flat, dagged = both_builds doc in
      assert_queries_equal name flat dagged (query_mix flat))
    (Lazy.force corpora)

let test_refinement_equivalent () =
  List.iter
    (fun (name, doc) ->
      let flat, dagged = both_builds doc in
      match keywords_by_frequency flat with
      | k1 :: k2 :: _ ->
        let w = Doc.keyword_name doc in
        List.iter
          (fun query ->
            let a = (Xr_refine.Engine.refine flat query).Xr_refine.Engine.result in
            let b = (Xr_refine.Engine.refine dagged query).Xr_refine.Engine.result in
            check Alcotest.string
              (Printf.sprintf "%s refine {%s}" name (String.concat " " query))
              (Xr_refine.Result.describe flat.Index.doc a)
              (Xr_refine.Result.describe dagged.Index.doc b))
          [
            [ w k1; w k2 ];
            [ w k1; "zzznosuchword" ];
            [ w k1; w k2; "zzznosuchword" ];
          ]
      | _ -> ())
    (Lazy.force corpora)

(* ---- adversarial shapes -------------------------------------------------- *)

let leafs n f = List.init n (fun i -> Tree.Elem (f i))

(* Deep repetition: one subtree pattern repeated at every level — the
   best case for hash-consing (classes ~ depth, nodes ~ width^depth). *)
let deep_repetition () =
  let unit_ = Tree.elem "entry" [ Tree.Elem (Tree.leaf "k" "alpha"); Tree.Elem (Tree.leaf "v" "beta") ] in
  let level1 = Tree.elem "block" (List.init 5 (fun _ -> Tree.Elem unit_)) in
  Tree.elem "root" (List.init 6 (fun _ -> Tree.Elem level1))

let single_node () = Tree.elem "root" [ Tree.Text "lonely" ]

(* All-distinct: no two subtrees equal — the worst case, where the dag
   degenerates to the tree and compression must still be correct. *)
let all_distinct () =
  Tree.elem "root" (leafs 40 (fun i -> Tree.leaf "item" (Printf.sprintf "w%d unique%d" (i mod 7) i)))

let assert_tree_equivalent label tree =
  let doc = Doc.of_tree tree in
  let flat, dagged = both_builds doc in
  assert_lists_identical label flat dagged;
  assert_queries_equal label flat dagged (query_mix flat)

let test_adversarial_fixed () =
  assert_tree_equivalent "deep-repetition" (deep_repetition ());
  assert_tree_equivalent "single-node" (single_node ());
  assert_tree_equivalent "all-distinct" (all_distinct ());
  (* deep repetition must actually compress *)
  let dagged = Index.build ~mode:Index.Dag (Doc.of_tree (deep_repetition ())) in
  let r = Xr_dag.node_dedup_ratio (dag_of dagged) in
  if r > 0.2 then
    Alcotest.failf "deep repetition barely deduped: node ratio %.3f" r

(* Random trees over a tiny vocabulary (so sharing happens), with a bias
   toward duplicated siblings; the seed is the qcheck-shrinkable input
   and the tree is derived deterministically from it. *)
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

let prop_random_trees =
  QCheck.Test.make ~name:"dag = flat on random repetitive trees" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let doc = Doc.of_tree (tree_of_seed seed) in
      let flat, dagged = both_builds doc in
      assert_lists_identical "random" flat dagged;
      assert_queries_equal "random" flat dagged (query_mix flat);
      true)

(* ---- mode plumbing ------------------------------------------------------- *)

let test_mode_names () =
  check Alcotest.string "flat name" "flat" (Index.mode_name Index.Flat);
  check Alcotest.string "dag name" "dag" (Index.mode_name Index.Dag);
  check Alcotest.bool "of_name flat" true (Index.mode_of_name "flat" = Some Index.Flat);
  check Alcotest.bool "of_name dag" true (Index.mode_of_name "dag" = Some Index.Dag);
  check Alcotest.bool "of_name junk" true (Index.mode_of_name "junk" = None)

let test_compress_round_trip () =
  let doc = Doc.of_tree (Xr_data.Dblp.scaled ~publications:40 ~seed:3) in
  let flat = Index.build ~mode:Index.Flat doc in
  let dagged = Index.compress Index.Dag flat in
  check Alcotest.bool "mode after compress" true (Index.mode dagged = Index.Dag);
  assert_lists_identical "compress->dag" flat dagged;
  let back = Index.compress Index.Flat dagged in
  check Alcotest.bool "mode after expand" true (Index.mode back = Index.Flat);
  assert_lists_identical "compress->flat" flat back;
  (* identity on a matching mode *)
  check Alcotest.bool "compress is identity on same mode" true
    (Index.compress Index.Flat flat == flat);
  (* statistics were rebound, not lost: refinement runs end to end *)
  assert_queries_equal "compress" flat dagged (query_mix flat)

let test_append_partition_dag () =
  let full_tree = Xr_data.Dblp.scaled ~publications:24 ~seed:5 in
  let children = Tree.element_children full_tree in
  let first, rest =
    (List.filteri (fun i _ -> i < 8) children, List.filteri (fun i _ -> i >= 8) children)
  in
  let base = Tree.elem full_tree.Tree.tag (List.map (fun c -> Tree.Elem c) first) in
  let flat =
    List.fold_left
      (fun idx pub -> Index.append_partition idx pub)
      (Index.build ~mode:Index.Flat (Doc.of_tree base))
      rest
  in
  let dagged =
    List.fold_left
      (fun idx pub -> Index.append_partition idx pub)
      (Index.build ~mode:Index.Dag (Doc.of_tree base))
      rest
  in
  check Alcotest.bool "append keeps dag backing" true (Index.mode dagged = Index.Dag);
  assert_lists_identical "append" flat dagged;
  assert_queries_equal "append" flat dagged (query_mix flat)

let test_save_load_dag () =
  let doc = Doc.of_tree (Xr_data.Dblp.scaled ~publications:30 ~seed:11) in
  let flat = Index.build ~mode:Index.Flat doc in
  let dagged = Index.build ~mode:Index.Dag doc in
  (* saving a dag index stores the flat lists; loading with ~mode:Dag
     re-derives the compression *)
  let kv = Xr_store.Kv.memory () in
  Index.save dagged kv;
  let reloaded = Index.load ~mode:Index.Dag kv in
  check Alcotest.bool "reloaded as dag" true (Index.mode reloaded = Index.Dag);
  assert_lists_identical "save/load dag" flat reloaded;
  assert_queries_equal "save/load dag" flat reloaded (query_mix flat);
  let reflat = Index.load ~mode:Index.Flat kv in
  check Alcotest.bool "reloaded as flat" true (Index.mode reflat = Index.Flat);
  assert_lists_identical "save/load flat" flat reflat

let () =
  Alcotest.run "dag"
    [
      ( "structure",
        [
          Alcotest.test_case "stats invariants" `Quick test_stats_invariants;
          Alcotest.test_case "merged lists byte-identical" `Quick test_merge_byte_identical;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "engines flat = dag (all corpora)" `Quick test_engines_equivalent;
          Alcotest.test_case "refinement flat = dag" `Quick test_refinement_equivalent;
          Alcotest.test_case "adversarial shapes" `Quick test_adversarial_fixed;
          qcheck prop_random_trees;
        ] );
      ( "modes",
        [
          Alcotest.test_case "mode names" `Quick test_mode_names;
          Alcotest.test_case "compress round trip" `Quick test_compress_round_trip;
          Alcotest.test_case "append partition (dag)" `Quick test_append_partition_dag;
          Alcotest.test_case "save/load (dag)" `Quick test_save_load_dag;
        ] );
    ]
