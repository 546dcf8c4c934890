open Xr_xml
module Inverted = Xr_index.Inverted
module Cursor = Xr_index.Cursor
module Stats = Xr_index.Stats
module Index = Xr_index.Index
module Kv = Xr_store.Kv

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let fig1 = lazy (Index.build (Xr_data.Figure1.doc ()))

let kw index k =
  match Doc.keyword_id index.Index.doc k with
  | Some id -> id
  | None -> Alcotest.failf "keyword %s not in document" k

let path_of index s =
  let doc = index.Index.doc in
  let found = ref None in
  Path.iter (fun p -> if String.equal (Doc.path_string doc p) s then found := Some p) doc.Doc.paths;
  match !found with Some p -> p | None -> Alcotest.failf "path %s not found" s

(* ---- inverted lists ----------------------------------------------------- *)

let test_inverted_document_order () =
  let index = Lazy.force fig1 in
  Inverted.iter
    (fun _ postings ->
      Array.iteri
        (fun i (p : Inverted.posting) ->
          if i > 0 && Dewey.compare postings.(i - 1).Inverted.dewey p.dewey >= 0 then
            Alcotest.fail "posting list out of document order")
        postings)
    index.Index.inverted

let test_inverted_contents () =
  let index = Lazy.force fig1 in
  let xml = Inverted.list index.Index.inverted (kw index "xml") in
  check Alcotest.int "xml occurs twice" 2 (Array.length xml);
  check
    (Alcotest.list Alcotest.string)
    "xml positions (title elements)"
    [ "0.1.1.0.0"; "0.1.1.1.0" ]
    (Array.to_list (Array.map (fun p -> Dewey.to_string p.Inverted.dewey) xml));
  (* tag names are indexed: every author node carries the token *)
  check Alcotest.int "author tag postings" 2
    (Array.length (Inverted.list_by_name index.Index.inverted index.Index.doc "author"));
  check Alcotest.int "absent keyword" 0
    (Array.length (Inverted.list_by_name index.Index.inverted index.Index.doc "zzz"))

let test_prefix_slice () =
  let index = Lazy.force fig1 in
  let labels =
    (Inverted.packed_list index.Index.inverted (kw index "2003")).Inverted.labels
  in
  let slice dewey = Dewey.Packed.prefix_slice labels ~lo:0 dewey in
  let lo, hi = slice (Dewey.of_string "0.1") in
  check Alcotest.int "slice covers author 0.1" 2 (hi - lo);
  let lo0, hi0 = slice (Dewey.of_string "0.0") in
  check Alcotest.int "no 2003 under author 0.0" 0 (hi0 - lo0);
  (* slice on the whole document *)
  let lo_r, hi_r = slice Dewey.root in
  check Alcotest.int "root slice is everything" (Dewey.Packed.length labels) (hi_r - lo_r)

let prop_prefix_slice_correct =
  let index = Lazy.force fig1 in
  let doc = index.Index.doc in
  let vocab = Array.of_list (Doc.vocabulary doc) in
  let gen =
    QCheck.Gen.(
      pair (int_bound (Array.length vocab - 1)) (int_bound (Doc.node_count doc - 1)))
  in
  QCheck.Test.make ~name:"prefix_slice = filter by is_prefix" ~count:300 (QCheck.make gen)
    (fun (ki, ni) ->
      let labels =
        (Inverted.packed_list index.Index.inverted (kw index vocab.(ki))).Inverted.labels
      in
      let node = doc.Doc.nodes.(ni) in
      let lo, hi = Dewey.Packed.prefix_slice labels ~lo:0 node.Doc.dewey in
      let entries lo n = List.init n (fun i -> Dewey.Packed.get labels (lo + i)) in
      let all = entries 0 (Dewey.Packed.length labels) in
      let expected = List.filter (Dewey.is_prefix node.Doc.dewey) all in
      List.equal Dewey.equal (entries lo (hi - lo)) expected)

(* ---- cursor ------------------------------------------------------------- *)

let test_cursor () =
  let index = Lazy.force fig1 in
  let list = Inverted.list index.Index.inverted (kw index "title") in
  let c = Cursor.make list in
  check Alcotest.int "initial position" 0 (Cursor.position c);
  check Alcotest.bool "peek" true (Cursor.peek c <> None);
  Cursor.advance c;
  check Alcotest.int "sequential count" 1 (Cursor.sequential_accesses c);
  Cursor.seek_geq c (Dewey.of_string "0.1");
  check Alcotest.bool "seek lands in 0.1" true
    (match Cursor.peek c with
    | Some p -> Dewey.is_prefix (Dewey.of_string "0.1") p.Inverted.dewey
    | None -> false);
  check Alcotest.int "random count" 1 (Cursor.random_accesses c);
  (* monotone: seeking backwards is a no-op *)
  let pos = Cursor.position c in
  Cursor.seek_geq c Dewey.root;
  check Alcotest.int "never moves backward" pos (Cursor.position c);
  while not (Cursor.at_end c) do
    Cursor.advance c
  done;
  check Alcotest.bool "exhausted" true (Cursor.peek c = None);
  Cursor.advance c;
  check Alcotest.bool "advance at end is no-op" true (Cursor.at_end c)

(* ---- statistics --------------------------------------------------------- *)

let test_stats_df_tf () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let inpro = path_of index "/bib/author/publications/inproceedings" in
  let author = path_of index "/bib/author" in
  (* the paper's example: two inproceedings contain "XML" *)
  check Alcotest.int "f_xml^inproceedings" 2 (Stats.df stats ~path:inpro ~kw:(kw index "xml"));
  check Alcotest.int "f_xml^author" 1 (Stats.df stats ~path:author ~kw:(kw index "xml"));
  check Alcotest.int "tf(xml, author)" 2 (Stats.tf stats ~path:author ~kw:(kw index "xml"));
  check Alcotest.int "f_2003^author" 1 (Stats.df stats ~path:author ~kw:(kw index "2003"));
  check Alcotest.int "tf(2003, author)" 2 (Stats.tf stats ~path:author ~kw:(kw index "2003"));
  check Alcotest.int "N_author" 2 (Stats.node_count stats author);
  check Alcotest.int "N_inproceedings" 4 (Stats.node_count stats inpro);
  (* john appears once, under author 0.0 only *)
  check Alcotest.int "f_john^author" 1 (Stats.df stats ~path:author ~kw:(kw index "john"));
  check Alcotest.int "total nodes" (Doc.node_count index.Index.doc) (Stats.total_nodes stats)

let test_stats_distinct () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let hobby = path_of index "/bib/author/hobby" in
  (* hobby subtree: tokens {hobby, on, line, games} *)
  check Alcotest.int "G_hobby" 4 (Stats.distinct_keywords stats hobby)

let test_stats_cooccur () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let inpro = path_of index "/bib/author/publications/inproceedings" in
  let author = path_of index "/bib/author" in
  let xml = kw index "xml" and k2003 = kw index "2003" in
  check Alcotest.int "xml & 2003 in 2 inproceedings" 2 (Stats.cooccur stats ~path:inpro xml k2003);
  check Alcotest.int "symmetric" 2 (Stats.cooccur stats ~path:inpro k2003 xml);
  check Alcotest.int "xml & 2003 in 1 author" 1 (Stats.cooccur stats ~path:author xml k2003);
  check Alcotest.int "self co-occurrence = df" 2 (Stats.cooccur stats ~path:inpro xml xml);
  let john = kw index "john" in
  check Alcotest.int "never together" 0 (Stats.cooccur stats ~path:inpro xml john)

(* brute-force cross-check of df/tf over the whole Figure-1 document *)
let test_stats_bruteforce () =
  let index = Lazy.force fig1 in
  let doc = index.Index.doc in
  let stats = index.Index.stats in
  let subtree_count_of root_dewey k =
    (* occurrences of keyword k within the subtree *)
    let total = ref 0 in
    Array.iter
      (fun (n : Doc.node) ->
        if Dewey.is_prefix root_dewey n.Doc.dewey then
          List.iter (fun (id, c) -> if id = k then total := !total + c) n.Doc.keywords)
      doc.Doc.nodes;
    !total
  in
  let vocab = Doc.vocabulary doc in
  Path.iter
    (fun path ->
      let roots =
        Array.to_list doc.Doc.nodes |> List.filter (fun (n : Doc.node) -> n.Doc.path = path)
      in
      List.iter
        (fun name ->
          match Doc.keyword_id doc name with
          | None -> ()
          | Some k ->
            let df_expected =
              List.length (List.filter (fun (n : Doc.node) -> subtree_count_of n.Doc.dewey k > 0) roots)
            in
            let tf_expected =
              List.fold_left (fun a (n : Doc.node) -> a + subtree_count_of n.Doc.dewey k) 0 roots
            in
            if Stats.df stats ~path ~kw:k <> df_expected then
              Alcotest.failf "df mismatch for %s at %s" name (Doc.path_string doc path);
            if Stats.tf stats ~path ~kw:k <> tf_expected then
              Alcotest.failf "tf mismatch for %s at %s" name (Doc.path_string doc path))
        vocab)
    doc.Doc.paths

let test_paths_containing () =
  let index = Lazy.force fig1 in
  let hits = Stats.paths_containing index.Index.stats (kw index "xml") in
  (* xml lives under: bib, author, publications, inproceedings, title *)
  check Alcotest.int "5 node types contain xml" 5 (List.length hits)

(* co-occurrence vs brute force on random documents *)
let prop_cooccur_brute_force =
  let gen =
    let open QCheck.Gen in
    let tag = oneofl [ "a"; "b"; "c" ] in
    let word = oneofl [ "x"; "y"; "z" ] in
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
    node 3
  in
  QCheck.Test.make ~name:"cooccur equals brute force" ~count:150
    (QCheck.make ~print:Xr_xml.Printer.to_string gen)
    (fun tree ->
      let index = Index.build (Doc.of_tree tree) in
      let doc = index.Index.doc in
      let stats = index.Index.stats in
      let subtree_has root_dewey k =
        let lo, hi = Doc.subtree_node_range doc root_dewey in
        let rec go i =
          i < hi
          && (List.exists (fun (id, _) -> id = k) doc.Doc.nodes.(i).Doc.keywords || go (i + 1))
        in
        go lo
      in
      let kws = List.filter_map (Doc.keyword_id doc) [ "x"; "y"; "z"; "a"; "b" ] in
      let ok = ref true in
      Path.iter
        (fun path ->
          List.iter
            (fun k1 ->
              List.iter
                (fun k2 ->
                  let expected =
                    Array.to_list doc.Doc.nodes
                    |> List.filter (fun (n : Doc.node) ->
                           n.Doc.path = path && subtree_has n.Doc.dewey k1
                           && subtree_has n.Doc.dewey k2)
                    |> List.length
                  in
                  let got = Stats.cooccur stats ~path k1 k2 in
                  if got <> expected then ok := false)
                kws)
            kws)
        doc.Doc.paths;
      !ok)

(* cooccur is bounded by both dfs *)
let test_cooccur_bounds () =
  let index = Lazy.force fig1 in
  let stats = index.Index.stats in
  let doc = index.Index.doc in
  let kws = List.filter_map (Doc.keyword_id doc) (Doc.vocabulary doc) in
  Path.iter
    (fun path ->
      List.iter
        (fun k1 ->
          List.iter
            (fun k2 ->
              let c = Stats.cooccur stats ~path k1 k2 in
              if c > min (Stats.df stats ~path ~kw:k1) (Stats.df stats ~path ~kw:k2) then
                Alcotest.fail "cooccur exceeds df bound")
            (List.filteri (fun i _ -> i < 12) kws))
        (List.filteri (fun i _ -> i < 12) kws))
    doc.Doc.paths

(* ---- persistence -------------------------------------------------------- *)

let roundtrip_via kv_make =
  let index = Lazy.force fig1 in
  let kv = kv_make () in
  Index.save index kv;
  let index2 = Index.load kv in
  let doc = index.Index.doc and doc2 = index2.Index.doc in
  check Alcotest.int "node count" (Doc.node_count doc) (Doc.node_count doc2);
  check
    (Alcotest.list Alcotest.string)
    "vocabulary" (Doc.vocabulary doc) (Doc.vocabulary doc2);
  (* every inverted list identical *)
  List.iter
    (fun k ->
      let l1 = Inverted.list_by_name index.Index.inverted doc k in
      let l2 = Inverted.list_by_name index2.Index.inverted doc2 k in
      check Alcotest.int (k ^ " list length") (Array.length l1) (Array.length l2);
      Array.iteri
        (fun i (p : Inverted.posting) ->
          if not (Dewey.equal p.Inverted.dewey l2.(i).Inverted.dewey) then
            Alcotest.failf "posting mismatch for %s" k)
        l1)
    (Doc.vocabulary doc);
  (* statistics identical *)
  Path.iter
    (fun path ->
      List.iter
        (fun k ->
          match Doc.keyword_id doc k with
          | None -> ()
          | Some id ->
            if
              Stats.df index.Index.stats ~path ~kw:id
              <> Stats.df index2.Index.stats ~path ~kw:id
              || Stats.tf index.Index.stats ~path ~kw:id
                 <> Stats.tf index2.Index.stats ~path ~kw:id
            then Alcotest.fail "stats mismatch after reload")
        (Doc.vocabulary doc);
      if
        Stats.node_count index.Index.stats path <> Stats.node_count index2.Index.stats path
        || Stats.distinct_keywords index.Index.stats path
           <> Stats.distinct_keywords index2.Index.stats path
      then Alcotest.fail "aggregate mismatch after reload")
    doc.Doc.paths;
  kv.Kv.close ()

let test_save_load_memory () = roundtrip_via Kv.memory

let test_save_load_btree () =
  let path = Filename.temp_file "xridx" ".db" in
  Sys.remove path;
  roundtrip_via (fun () -> Kv.btree_file path);
  Sys.remove path

let test_load_missing () =
  let kv = Kv.memory () in
  try
    ignore (Index.load kv);
    Alcotest.fail "expected failure on empty store"
  with Failure _ -> ()

(* ---- incremental maintenance -------------------------------------------- *)

(* appending partitions one by one must equal a from-scratch rebuild *)
let assert_index_equal (a : Index.t) (b : Index.t) =
  let da = a.Index.doc and db = b.Index.doc in
  check Alcotest.int "node count" (Doc.node_count da) (Doc.node_count db);
  check (Alcotest.list Alcotest.string) "vocabulary" (Doc.vocabulary da) (Doc.vocabulary db);
  check Alcotest.int "path count" (Path.size da.Doc.paths) (Path.size db.Doc.paths);
  List.iter
    (fun k ->
      let la = Inverted.list_by_name a.Index.inverted da k in
      let lb = Inverted.list_by_name b.Index.inverted db k in
      check Alcotest.int (k ^ " list length") (Array.length la) (Array.length lb);
      Array.iteri
        (fun i (p : Inverted.posting) ->
          if
            (not (Dewey.equal p.Inverted.dewey lb.(i).Inverted.dewey))
            || p.Inverted.path <> lb.(i).Inverted.path
          then Alcotest.failf "posting mismatch for %s" k)
        la)
    (Doc.vocabulary da);
  Path.iter
    (fun path ->
      if Stats.node_count a.Index.stats path <> Stats.node_count b.Index.stats path then
        Alcotest.failf "N_T mismatch at %s" (Doc.path_string da path);
      if Stats.distinct_keywords a.Index.stats path <> Stats.distinct_keywords b.Index.stats path
      then Alcotest.failf "G_T mismatch at %s" (Doc.path_string da path);
      List.iter
        (fun k ->
          match Doc.keyword_id da k with
          | None -> ()
          | Some kw ->
            if Stats.df a.Index.stats ~path ~kw <> Stats.df b.Index.stats ~path ~kw then
              Alcotest.failf "df mismatch for %s at %s" k (Doc.path_string da path);
            if Stats.tf a.Index.stats ~path ~kw <> Stats.tf b.Index.stats ~path ~kw then
              Alcotest.failf "tf mismatch for %s at %s" k (Doc.path_string da path))
        (Doc.vocabulary da))
    da.Doc.paths

let test_append_partition_matches_rebuild () =
  let full_tree = Xr_data.Dblp.scaled ~publications:30 ~seed:5 in
  let children = Tree.element_children full_tree in
  let first, rest =
    (List.filteri (fun i _ -> i < 10) children, List.filteri (fun i _ -> i >= 10) children)
  in
  let base = Tree.elem full_tree.Tree.tag (List.map (fun c -> Tree.Elem c) first) in
  let incremental =
    List.fold_left (fun idx pub -> Index.append_partition idx pub) (Index.build (Doc.of_tree base)) rest
  in
  let rebuilt = Index.build (Doc.of_tree full_tree) in
  assert_index_equal incremental rebuilt

let test_append_partition_new_types_and_keywords () =
  let index = Index.build (Xr_data.Figure1.doc ()) in
  let extra =
    Tree.elem "editor"
      [
        Tree.Elem (Tree.leaf "name" "Grace Hopper");
        Tree.Elem (Tree.leaf "affiliation" "navy research");
      ]
  in
  let index' = Index.append_partition index extra in
  (* new vocabulary and node types are live *)
  check Alcotest.bool "new keyword indexed" true
    (Doc.keyword_id index'.Index.doc "hopper" <> None);
  check Alcotest.int "posting for new keyword" 1
    (Array.length (Inverted.list_by_name index'.Index.inverted index'.Index.doc "hopper"));
  (* the new partition is queryable end to end *)
  let slcas = Xr_slca.Engine.query Xr_slca.Engine.Stack index' [ "grace"; "hopper" ] in
  check (Alcotest.list Alcotest.string) "slca in new partition" [ "0.2.0" ]
    (List.map Dewey.to_string slcas);
  (* equality with a rebuild *)
  let full =
    Tree.elem "bib"
      (Tree.element_children (Xr_data.Figure1.tree ()) |> List.map (fun c -> Tree.Elem c))
  in
  let full = Tree.elem "bib" (full.Tree.children @ [ Tree.Elem extra ]) in
  assert_index_equal index' (Index.build (Doc.of_tree full))

let () =
  Alcotest.run "xr_index"
    [
      ( "inverted",
        [
          Alcotest.test_case "document order" `Quick test_inverted_document_order;
          Alcotest.test_case "contents" `Quick test_inverted_contents;
          Alcotest.test_case "prefix slice" `Quick test_prefix_slice;
          qcheck prop_prefix_slice_correct;
        ] );
      ("cursor", [ Alcotest.test_case "monotone + accounting" `Quick test_cursor ]);
      ( "stats",
        [
          Alcotest.test_case "df/tf" `Quick test_stats_df_tf;
          Alcotest.test_case "distinct keywords" `Quick test_stats_distinct;
          Alcotest.test_case "co-occurrence" `Quick test_stats_cooccur;
          Alcotest.test_case "brute-force cross-check" `Quick test_stats_bruteforce;
          Alcotest.test_case "paths_containing" `Quick test_paths_containing;
        ] );
      ( "cooccur-extra",
        [
          qcheck prop_cooccur_brute_force;
          Alcotest.test_case "df bound" `Quick test_cooccur_bounds;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "append = rebuild (dblp)" `Quick test_append_partition_matches_rebuild;
          Alcotest.test_case "new types and keywords" `Quick
            test_append_partition_new_types_and_keywords;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load memory" `Quick test_save_load_memory;
          Alcotest.test_case "save/load btree" `Quick test_save_load_btree;
          Alcotest.test_case "missing store" `Quick test_load_missing;
        ] );
    ]
