open Xr_xml

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- Dewey ------------------------------------------------------------ *)

let test_dewey_basics () =
  check Alcotest.int "root depth" 0 (Dewey.depth Dewey.root);
  let d = Dewey.child (Dewey.child Dewey.root 1) 2 in
  check Alcotest.int "depth" 2 (Dewey.depth d);
  check Alcotest.string "to_string" "0.1.2" (Dewey.to_string d);
  check Alcotest.string "root to_string" "0" (Dewey.to_string Dewey.root);
  check Alcotest.bool "parse roundtrip" true (Dewey.equal d (Dewey.of_string "0.1.2"));
  check Alcotest.bool "root parse" true (Dewey.equal Dewey.root (Dewey.of_string "0"));
  (match Dewey.parent d with
  | Some p -> check Alcotest.string "parent" "0.1" (Dewey.to_string p)
  | None -> Alcotest.fail "expected parent");
  check Alcotest.bool "root has no parent" true (Dewey.parent Dewey.root = None)

let test_dewey_order () =
  let sorted = [ "0"; "0.0"; "0.0.0"; "0.0.1"; "0.1"; "0.1.0"; "0.2"; "0.10" ] in
  let labels = List.map Dewey.of_string sorted in
  let resorted = List.sort Dewey.compare (List.rev labels) in
  check
    (Alcotest.list Alcotest.string)
    "document order" sorted
    (List.map Dewey.to_string resorted)

let test_dewey_prefix_lca () =
  let a = Dewey.of_string "0.1.2.3" and b = Dewey.of_string "0.1.5" in
  check Alcotest.string "lca" "0.1" (Dewey.to_string (Dewey.lca a b));
  check Alcotest.bool "prefix yes" true (Dewey.is_prefix (Dewey.of_string "0.1") a);
  check Alcotest.bool "prefix self" true (Dewey.is_prefix a a);
  check Alcotest.bool "prefix no" false (Dewey.is_prefix a b);
  check Alcotest.bool "root prefixes all" true (Dewey.is_prefix Dewey.root b);
  (* components exclude the notational leading "0" for the root *)
  check Alcotest.int "common prefix len" 1 (Dewey.common_prefix_len a b);
  check Alcotest.string "prefix extraction" "0.1.2" (Dewey.to_string (Dewey.prefix a 2))

let test_dewey_bad_parse () =
  Alcotest.check_raises "bad start" (Invalid_argument "Dewey.of_string: must start with 0: 1.2")
    (fun () -> ignore (Dewey.of_string "1.2"));
  (try
     ignore (Dewey.of_string "0.x");
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let dewey_gen =
  QCheck.Gen.(list_size (int_bound 6) (int_bound 8) >|= Array.of_list)

let arb_dewey = QCheck.make ~print:(fun d -> Dewey.to_string d) dewey_gen

let prop_dewey_roundtrip =
  QCheck.Test.make ~name:"dewey to_string/of_string roundtrip" ~count:500 arb_dewey (fun d ->
      Dewey.equal d (Dewey.of_string (Dewey.to_string d)))

let prop_dewey_total_order =
  QCheck.Test.make ~name:"dewey compare antisymmetric + lca commutes" ~count:500
    (QCheck.pair arb_dewey arb_dewey) (fun (a, b) ->
      let c1 = Dewey.compare a b and c2 = Dewey.compare b a in
      (c1 = -c2 || (c1 = 0 && c2 = 0)) && Dewey.equal (Dewey.lca a b) (Dewey.lca b a))

let prop_dewey_lca_is_prefix =
  QCheck.Test.make ~name:"lca is a prefix of both" ~count:500 (QCheck.pair arb_dewey arb_dewey)
    (fun (a, b) ->
      let l = Dewey.lca a b in
      Dewey.is_prefix l a && Dewey.is_prefix l b)

let prop_dewey_prefix_order =
  QCheck.Test.make ~name:"a prefix never sorts after its extension" ~count:500
    (QCheck.pair arb_dewey (QCheck.make QCheck.Gen.(int_bound 8))) (fun (a, i) ->
      Dewey.compare a (Dewey.child a i) < 0)

(* ---- Interner ---------------------------------------------------------- *)

let test_interner () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check Alcotest.int "dense ids" 0 a;
  check Alcotest.int "dense ids 2" 1 b;
  check Alcotest.int "idempotent" a (Interner.intern t "alpha");
  check Alcotest.string "name" "beta" (Interner.name t b);
  check Alcotest.int "size" 2 (Interner.size t);
  check Alcotest.bool "find missing" true (Interner.find t "gamma" = None);
  (* force growth *)
  for i = 0 to 999 do
    ignore (Interner.intern t (string_of_int i))
  done;
  check Alcotest.int "size after growth" 1002 (Interner.size t);
  check Alcotest.string "old entry survives growth" "alpha" (Interner.name t a)

(* ---- Token ------------------------------------------------------------ *)

let test_token () =
  check
    (Alcotest.list Alcotest.string)
    "tokenize" [ "xml"; "keyword"; "2003" ]
    (Token.tokenize "  XML keyword, (2003)!");
  check (Alcotest.list Alcotest.string) "empty" [] (Token.tokenize " ,;- ");
  check Alcotest.string "normalize" "online" (Token.normalize "On-Line");
  check Alcotest.bool "is_keyword yes" true (Token.is_keyword "xml2");
  check Alcotest.bool "is_keyword no (case)" false (Token.is_keyword "Xml");
  check Alcotest.bool "is_keyword no (empty)" false (Token.is_keyword "")

(* ---- Tree ------------------------------------------------------------- *)

let sample_tree () =
  Tree.elem "bib"
    [
      Tree.Elem (Tree.leaf "title" "XML data management");
      Tree.Text "stray";
      Tree.Elem (Tree.elem ~attrs:[ ("id", "7") ] "year" [ Tree.Text "2003" ]);
    ]

let test_tree () =
  let t = sample_tree () in
  check Alcotest.int "size" 3 (Tree.size t);
  check Alcotest.int "depth" 2 (Tree.depth t);
  check Alcotest.int "element children" 2 (List.length (Tree.element_children t));
  check Alcotest.string "text includes direct only" "stray" (Tree.text t);
  let year = List.nth (Tree.element_children t) 1 in
  check Alcotest.string "attr values count as text" "2003 7" (Tree.text year);
  check Alcotest.int "find_all" 1 (List.length (Tree.find_all t (fun e -> e.Tree.tag = "year")))

(* ---- Lexer / Parser / Printer ------------------------------------------ *)

let test_parse_simple () =
  let t = Parser.parse_string "<a><b x='1'>hi</b><c/></a>" in
  check Alcotest.string "root" "a" t.Tree.tag;
  check Alcotest.int "children" 2 (List.length (Tree.element_children t));
  let b = List.hd (Tree.element_children t) in
  check Alcotest.string "text" "hi 1" (Tree.text b)

let test_parse_entities_cdata_comments () =
  let t =
    Parser.parse_string
      "<?xml version=\"1.0\"?><!DOCTYPE a><a><!-- note --><b>x &amp; y &#65;</b><c><![CDATA[<raw&>]]></c></a>"
  in
  let b = List.nth (Tree.element_children t) 0 in
  let c = List.nth (Tree.element_children t) 1 in
  check Alcotest.string "entities" "x & y A" (Tree.text b);
  check Alcotest.string "cdata" "<raw&>" (Tree.text c)

let test_parse_errors () =
  let expect_error s =
    try
      ignore (Parser.parse_string s);
      Alcotest.failf "expected parse error on %S" s
    with Parser.Error _ -> ()
  in
  expect_error "";
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "<a></a><b></b>";
  expect_error "<a attr></a>";
  expect_error "<a>&unknown;</a>";
  expect_error "oops<a/>"

(* Nesting fails closed: 64 levels (the root is level 1) parse, one more
   is a Parser.Error naming the limit, whether the innermost element is
   an open/close pair or self-closing. *)
let test_parse_depth_limit () =
  let chain n ~inner =
    String.concat "" (List.init (n - 1) (fun _ -> "<a>"))
    ^ inner
    ^ String.concat "" (List.init (n - 1) (fun _ -> "</a>"))
  in
  List.iter
    (fun inner ->
      check Alcotest.int "64 levels parse" 64
        (Tree.depth (Parser.parse_string (chain 64 ~inner)));
      match Parser.parse_string (chain 65 ~inner) with
      | _ -> Alcotest.fail "65 levels parsed"
      | exception Parser.Error (_, msg) ->
        check Alcotest.string "message names the limit"
          "elements nest deeper than the limit of 64 levels" msg)
    [ "<b>x</b>"; "<b/>" ]

let test_print_parse_roundtrip () =
  let t = sample_tree () in
  let t' = Parser.parse_string (Printer.to_string t) in
  (* whitespace-only text may be introduced/normalized; compare structure
     and text content *)
  check Alcotest.int "size" (Tree.size t) (Tree.size t');
  check Alcotest.string "root" t.Tree.tag t'.Tree.tag

let test_escape () =
  check Alcotest.string "escape" "&amp;&lt;&gt;&quot;&apos;" (Printer.escape "&<>\"'");
  let t = Tree.leaf "t" "a<b&c" in
  let t' = Parser.parse_string (Printer.to_string t) in
  check Alcotest.string "escaped text survives" "a<b&c" (Tree.text t')

(* random tree generator for the roundtrip property *)
let gen_tree =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "item"; "node" ] in
  let text = oneofl [ "x"; "hello world"; "a & b < c"; "2003"; "" ] in
  fix
    (fun self depth ->
      let leaf = map2 (fun tg tx -> Tree.leaf tg tx) tag text in
      if depth = 0 then leaf
      else
        frequency
          [
            (1, leaf);
            ( 2,
              map2
                (fun tg children -> Tree.elem tg (List.map (fun c -> Tree.Elem c) children))
                tag
                (list_size (int_bound 3) (self (depth - 1))) );
          ])
    3

let arb_tree = QCheck.make ~print:(fun t -> Printer.to_string t) gen_tree

let non_blank s = String.exists (fun c -> not (List.mem c [ ' '; '\t'; '\n'; '\r' ])) s

(* The parser drops whitespace-only character data; compare trees modulo
   blank text nodes and text normalization. *)
let rec tree_equivalent (a : Tree.t) (b : Tree.t) =
  String.equal a.tag b.tag
  && (let ta = String.concat " " (Token.tokenize (Tree.text a)) in
      let tb = String.concat " " (Token.tokenize (Tree.text b)) in
      String.equal ta tb)
  && List.equal tree_equivalent (Tree.element_children a) (Tree.element_children b)

let prop_print_parse =
  QCheck.Test.make ~name:"printer/parser roundtrip (structure + tokens)" ~count:200 arb_tree
    (fun t ->
      ignore non_blank;
      tree_equivalent t (Parser.parse_string (Printer.to_string t))
      && tree_equivalent t (Parser.parse_string (Printer.to_string ~indent:false t)))

(* the parser never raises anything but Parser.Error on arbitrary input *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser: Ok or Parser.Error, never a crash" ~count:1000
    (QCheck.make
       ~print:(fun s -> String.escaped s)
       QCheck.Gen.(
         oneof
           [
             string_size ~gen:printable (int_bound 60);
             (* markup-heavy soup *)
             (let frag = oneofl [ "<a>"; "</a>"; "<b x='1'"; "&amp;"; "&#6"; "<!--"; "-->"; "]]>";
                                  "<![CDATA["; "<?pi"; "?>"; "text"; "<"; ">"; "\""; "'" ] in
              map (String.concat "") (list_size (int_bound 12) frag));
           ]))
    (fun s ->
      match Parser.parse_string s with
      | (_ : Tree.t) -> true
      | exception Parser.Error _ -> true)

(* ---- Path ------------------------------------------------------------- *)

let test_path () =
  let tags = Interner.create () in
  let paths = Path.create () in
  let bib = Interner.intern tags "bib" in
  let author = Interner.intern tags "author" in
  let name = Interner.intern tags "name" in
  let p_bib = Path.root paths ~tag:bib in
  let p_author = Path.child paths ~parent:p_bib ~tag:author in
  let p_name = Path.child paths ~parent:p_author ~tag:name in
  check Alcotest.int "dedup" p_author (Path.child paths ~parent:p_bib ~tag:author);
  check Alcotest.int "depth root" 1 (Path.depth paths p_bib);
  check Alcotest.int "depth nested" 3 (Path.depth paths p_name);
  check Alcotest.bool "is_prefix" true (Path.is_prefix paths ~ancestor:p_bib ~descendant:p_name);
  check Alcotest.bool "is_prefix self" true
    (Path.is_prefix paths ~ancestor:p_name ~descendant:p_name);
  check Alcotest.bool "not prefix" false
    (Path.is_prefix paths ~ancestor:p_name ~descendant:p_author);
  check Alcotest.string "to_string" "/bib/author/name" (Path.to_string paths tags p_name);
  check Alcotest.int "ancestors" 3 (List.length (Path.ancestors paths p_name));
  check Alcotest.bool "ancestor_at" true (Path.ancestor_at paths p_name ~depth:2 = Some p_author);
  check Alcotest.bool "ancestor_at too deep" true (Path.ancestor_at paths p_bib ~depth:2 = None);
  check Alcotest.int "size" 3 (Path.size paths)

(* ---- Doc -------------------------------------------------------------- *)

let test_doc () =
  let doc = Doc.of_string "<bib><author><name>John</name><name>Mary</name></author></bib>" in
  check Alcotest.int "node count" 4 (Doc.node_count doc);
  (* document order *)
  let labels = Array.to_list (Array.map (fun n -> Dewey.to_string n.Doc.dewey) doc.Doc.nodes) in
  check (Alcotest.list Alcotest.string) "doc order" [ "0"; "0.0"; "0.0.0"; "0.0.1" ] labels;
  (match Doc.find doc (Dewey.of_string "0.0.1") with
  | Some n -> check Alcotest.string "find tag" "name" (Doc.tag_name doc n)
  | None -> Alcotest.fail "find failed");
  check Alcotest.bool "find missing" true (Doc.find doc (Dewey.of_string "0.5") = None);
  check Alcotest.bool "keyword john" true (Doc.keyword_id doc "JOHN" <> None);
  check Alcotest.bool "keyword missing" true (Doc.keyword_id doc "xyzzy" = None);
  (match Doc.subtree doc (Dewey.of_string "0.0") with
  | Some t -> check Alcotest.int "subtree size" 3 (Tree.size t)
  | None -> Alcotest.fail "subtree failed");
  check Alcotest.string "label" "name:0.0.0" (Doc.label doc (Dewey.of_string "0.0.0"));
  (* tag tokens are keywords *)
  check Alcotest.bool "tag token indexed" true (Doc.keyword_id doc "author" <> None)

let test_doc_direct_keywords () =
  let doc = Doc.of_string "<a><b>x x y</b></a>" in
  match Doc.find doc (Dewey.of_string "0.0") with
  | None -> Alcotest.fail "node 0.0 missing"
  | Some n ->
    let count k =
      match Doc.keyword_id doc k with
      | None -> 0
      | Some id -> ( try List.assoc id n.Doc.keywords with Not_found -> 0)
    in
    check Alcotest.int "multiplicity" 2 (count "x");
    check Alcotest.int "single" 1 (count "y");
    check Alcotest.int "tag token" 1 (count "b")

(* ---- Xpath ------------------------------------------------------------ *)

let test_xpath_eval () =
  let doc = Xr_data.Figure1.doc () in
  let eval s = List.map Dewey.to_string (Xpath.eval doc (Xpath.parse_exn s)) in
  check (Alcotest.list Alcotest.string) "child path" [ "0.0.0"; "0.1.0" ] (eval "/bib/author/name");
  check Alcotest.int "descendant" 6 (List.length (eval "//title"));
  check Alcotest.int "mixed" 6 (List.length (eval "/bib//title"));
  check (Alcotest.list Alcotest.string) "root" [ "0" ] (eval "/bib");
  check Alcotest.int "wildcard" 2 (List.length (eval "/bib/*/publications"));
  check
    (Alcotest.list Alcotest.string)
    "filter" [ "0.1.1.0"; "0.1.1.1" ]
    (eval "//inproceedings[xml]");
  check (Alcotest.list Alcotest.string) "no match" [] (eval "/bib/zzz");
  check (Alcotest.list Alcotest.string) "filter no match" [] (eval "//title[zzzz]");
  (* matches *)
  let p = Xpath.parse_exn "//hobby" in
  check Alcotest.bool "matches yes" true (Xpath.matches doc p (Dewey.of_string "0.1.2"));
  check Alcotest.bool "matches no" false (Xpath.matches doc p (Dewey.of_string "0.1.0"));
  check Alcotest.bool "matches unknown" false (Xpath.matches doc p (Dewey.of_string "0.7"))

let test_xpath_parse_errors () =
  let bad s =
    match Xpath.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad [ ""; "bib"; "/"; "//"; "/a["; "/a[]"; "/a[x]b"; "/a b" ];
  (* roundtrip of to_string *)
  List.iter
    (fun s ->
      check Alcotest.string ("roundtrip " ^ s) s (Xpath.to_string (Xpath.parse_exn s)))
    [ "/bib/author"; "//title"; "/a//b/*[xml]" ]

(* every node eval returns satisfies matches, and vice versa *)
let prop_xpath_eval_matches_agree =
  let paths =
    [ "/a"; "//b"; "/a/b"; "/a//c"; "//*"; "/a/*"; "//b[x]"; "/a//b[y]"; "//c[w]" ]
  in
  QCheck.Test.make ~name:"xpath eval = filter by matches" ~count:200
    (QCheck.make
       ~print:(fun (t, p) -> Printer.to_string t ^ "\npath: " ^ p)
       QCheck.Gen.(pair gen_tree (oneofl paths)))
    (fun (tree, path) ->
      let doc = Doc.of_tree tree in
      let p = Xpath.parse_exn path in
      let evaled = Xpath.eval doc p in
      let by_matches =
        Array.to_list doc.Doc.nodes
        |> List.filter_map (fun (n : Doc.node) ->
               if Xpath.matches doc p n.Doc.dewey then Some n.Doc.dewey else None)
      in
      List.equal Dewey.equal evaled by_matches)

let () =
  Alcotest.run "xr_xml"
    [
      ( "dewey",
        [
          Alcotest.test_case "basics" `Quick test_dewey_basics;
          Alcotest.test_case "document order" `Quick test_dewey_order;
          Alcotest.test_case "prefix & lca" `Quick test_dewey_prefix_lca;
          Alcotest.test_case "bad parse" `Quick test_dewey_bad_parse;
          qcheck prop_dewey_roundtrip;
          qcheck prop_dewey_total_order;
          qcheck prop_dewey_lca_is_prefix;
          qcheck prop_dewey_prefix_order;
        ] );
      ("interner", [ Alcotest.test_case "intern/find/name" `Quick test_interner ]);
      ("token", [ Alcotest.test_case "tokenize/normalize" `Quick test_token ]);
      ("tree", [ Alcotest.test_case "accessors" `Quick test_tree ]);
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities/cdata/comments" `Quick test_parse_entities_cdata_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "escaping" `Quick test_escape;
          qcheck prop_print_parse;
          qcheck prop_parser_total;
          Alcotest.test_case "deep nesting fails closed" `Quick test_parse_depth_limit;
        ] );
      ("path", [ Alcotest.test_case "prefix paths" `Quick test_path ]);
      ( "xpath",
        [
          Alcotest.test_case "eval" `Quick test_xpath_eval;
          Alcotest.test_case "parse errors" `Quick test_xpath_parse_errors;
          qcheck prop_xpath_eval_matches_agree;
        ] );
      ( "doc",
        [
          Alcotest.test_case "compile" `Quick test_doc;
          Alcotest.test_case "direct keywords" `Quick test_doc_direct_keywords;
        ] );
    ]
